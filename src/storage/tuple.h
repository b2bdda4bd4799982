#ifndef EMJOIN_STORAGE_TUPLE_H_
#define EMJOIN_STORAGE_TUPLE_H_

#include <span>
#include <vector>

#include "extmem/defs.h"
#include "storage/schema.h"

namespace emjoin::storage {

/// An owned tuple: a row of attribute values laid out per some Schema.
using Tuple = std::vector<Value>;

/// A borrowed tuple (one row inside a disk block or memory chunk).
using TupleRef = std::span<const Value>;

/// Schema of the natural join of two relations: `a`'s attributes followed
/// by `b`'s attributes not in `a`.
Schema JoinedSchema(const Schema& a, const Schema& b);

}  // namespace emjoin::storage

#endif  // EMJOIN_STORAGE_TUPLE_H_
