#include "serve/admission.h"

#include <algorithm>

namespace emjoin::serve {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

AdmissionDecision AdmissionController::Submit(const std::string& id,
                                              TupleCount memory) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (memory > config_.memory_budget) {
    ++rejected_total_;
    return AdmissionDecision::kRejected;
  }
  if (queue_.empty() &&
      admitted_memory_ + memory <= config_.memory_budget) {
    admitted_memory_ += memory;
    ++running_;
    ++admitted_total_;
    return AdmissionDecision::kAdmitted;
  }
  if (queue_.size() >= config_.max_queued) {
    ++rejected_total_;
    return AdmissionDecision::kRejected;
  }
  queue_.emplace_back(id, memory);
  ++queued_total_;
  return AdmissionDecision::kQueued;
}

std::vector<std::string> AdmissionController::Release(TupleCount memory) {
  const std::lock_guard<std::mutex> lock(mu_);
  admitted_memory_ = admitted_memory_ > memory ? admitted_memory_ - memory : 0;
  if (running_ > 0) --running_;
  std::vector<std::string> promoted;
  while (!queue_.empty() &&
         admitted_memory_ + queue_.front().second <= config_.memory_budget) {
    admitted_memory_ += queue_.front().second;
    ++running_;
    ++admitted_total_;
    promoted.push_back(queue_.front().first);
    queue_.pop_front();
  }
  return promoted;
}

bool AdmissionController::CancelQueued(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&id](const auto& entry) { return entry.first == id; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  return true;
}

void AdmissionController::CountResume() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++resumed_total_;
}

AdmissionSnapshot AdmissionController::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  AdmissionSnapshot snap;
  snap.memory_budget = config_.memory_budget;
  snap.admitted_memory = admitted_memory_;
  snap.running = running_;
  snap.queued = queue_.size();
  snap.admitted_total = admitted_total_;
  snap.queued_total = queued_total_;
  snap.rejected_total = rejected_total_;
  snap.resumed_total = resumed_total_;
  return snap;
}

}  // namespace emjoin::serve
