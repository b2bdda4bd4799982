#include "extmem/fault_injector.h"

#include <algorithm>
#include <cstdlib>

namespace emjoin::extmem {

std::optional<Status> ParseFaultSetting(std::string_view key,
                                        const std::string& value,
                                        FaultConfig* config) {
  const auto bad = [key](const char* expected) {
    return Status(StatusCode::kInvalidInput,
                  std::string(key) + " must be " + expected);
  };
  double* probability = key == "fault-read"    ? &config->read_fail
                        : key == "fault-write" ? &config->write_fail
                        : key == "fault-torn"  ? &config->torn_write
                                               : nullptr;
  if (probability != nullptr) {
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || p < 0.0 || p > 1.0) {
      return bad("in [0, 1]");
    }
    *probability = p;
    return Status::Ok();
  }
  if (key == "fault-adaptive-retry") {
    if (value != "0" && value != "1") return bad("0 or 1");
    config->adaptive_retry = value == "1";
    return Status::Ok();
  }
  if (key != "fault-seed" && key != "fault-retries" &&
      key != "fault-kill-at") {
    return std::nullopt;
  }
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    return bad("an unsigned integer");
  }
  const std::uint64_t number = std::strtoull(value.c_str(), nullptr, 10);
  if (key == "fault-seed") {
    config->seed = number;
  } else if (key == "fault-retries") {
    config->retry.max_retries = static_cast<std::uint32_t>(number);
  } else {
    config->kill_at_ios = number;
  }
  return Status::Ok();
}

std::optional<TupleCount> FaultInjector::NextShrink(std::uint64_t clock_ios,
                                                    TupleCount current,
                                                    TupleCount floor) {
  if (current <= floor) return std::nullopt;
  bool shrink = false;
  // One-shot scheduled shrinks become due when the clock passes their
  // tick; each fires exactly once (at the first poll at-or-after it).
  while (next_scheduled_shrink_ < config_.shrink_at_ios.size() &&
         clock_ios >= config_.shrink_at_ios[next_scheduled_shrink_]) {
    ++next_scheduled_shrink_;
    shrink = true;
  }
  if (config_.shrink_every_poll) shrink = true;
  if (!shrink && config_.shrink_prob > 0.0) {
    shrink = dist_(rng_) < config_.shrink_prob;
  }
  if (!shrink) return std::nullopt;
  const long double scaled =
      static_cast<long double>(current) * config_.shrink_factor;
  const TupleCount next =
      std::max<TupleCount>(floor, static_cast<TupleCount>(scaled));
  if (next >= current) return std::nullopt;
  ++stats_.shrinks;
  return next;
}

const char* RetryModeName(RetryMode mode) {
  switch (mode) {
    case RetryMode::kSteady: return "steady";
    case RetryMode::kPersistent: return "persistent";
    case RetryMode::kFailFast: return "fail_fast";
  }
  return "unknown";
}

namespace {
// Adaptive thresholds. A streak of kDeadStreak consecutive failed draws
// reads as a dead device; after kWarmupDraws total decisions, a fault
// rate at or above 1-in-kFlakyRateDenom reads as persistently flaky.
constexpr std::uint64_t kDeadStreak = 8;
constexpr std::uint64_t kWarmupDraws = 32;
constexpr std::uint64_t kFlakyRateDenom = 10;
}  // namespace

void FaultInjector::Observe(bool faulted) {
  ++draws_;
  streak_ = faulted ? streak_ + 1 : 0;
  if (streak_ >= kDeadStreak) {
    SetMode(RetryMode::kFailFast);
  } else if (draws_ >= kWarmupDraws &&
             stats_.TotalFaults() * kFlakyRateDenom >= draws_) {
    SetMode(RetryMode::kPersistent);
  } else {
    SetMode(RetryMode::kSteady);
  }
}

void FaultInjector::SetMode(RetryMode mode) {
  if (mode == mode_) return;
  prev_mode_ = mode_;
  mode_ = mode;
  mode_changed_ = true;
  ++mode_transitions_;
  effective_ = config_.retry;
  switch (mode_) {
    case RetryMode::kSteady:
      break;
    case RetryMode::kPersistent:
      // Flaky-but-live: double the retry budget so bad-luck runs survive.
      effective_.max_retries = config_.retry.max_retries * 2;
      break;
    case RetryMode::kFailFast:
      // Dead device: one cheap re-attempt, no backoff — surface IO_ERROR
      // instead of burning the virtual clock on doomed waits.
      effective_.max_retries = std::min<std::uint32_t>(
          config_.retry.max_retries, 1);
      effective_.backoff_base_ios = 0;
      break;
  }
}

std::string FaultInjector::Describe() const {
  std::string s = "seed=" + std::to_string(config_.seed);
  s += " faults=" + std::to_string(stats_.TotalFaults());
  s += " (r=" + std::to_string(stats_.read_faults);
  s += " w=" + std::to_string(stats_.write_faults);
  s += " torn=" + std::to_string(stats_.torn_writes) + ")";
  s += " retries=" + std::to_string(stats_.retries);
  s += " backoff_ios=" + std::to_string(stats_.backoff_ios);
  s += " shrinks=" + std::to_string(stats_.shrinks);
  s += " exhaustions=" + std::to_string(stats_.exhaustions);
  if (config_.adaptive_retry) {
    s += " retry_mode=";
    s += RetryModeName(mode_);
    s += " mode_transitions=" + std::to_string(mode_transitions_);
  }
  return s;
}

}  // namespace emjoin::extmem
