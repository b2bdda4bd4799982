#include "storage/tuple.h"

namespace emjoin::storage {

Schema JoinedSchema(const Schema& a, const Schema& b) {
  std::vector<AttrId> attrs = a.attrs();
  for (AttrId x : b.attrs()) {
    if (!a.Contains(x)) attrs.push_back(x);
  }
  return Schema(std::move(attrs));
}

}  // namespace emjoin::storage
