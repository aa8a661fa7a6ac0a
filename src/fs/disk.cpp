#include "fs/disk.hpp"

#include <algorithm>
#include <utility>

namespace rattrap::fs {

DiskModel::DiskModel(sim::Simulator& simulator, DiskConfig config)
    : sim_(simulator), config_(config) {}

sim::SimDuration DiskModel::service_time(std::uint64_t bytes,
                                         bool sequential) const {
  const double transfer_s =
      static_cast<double>(bytes) /
      (config_.sequential_mb_s * 1024.0 * 1024.0);
  double overhead_ms = 0.0;
  if (!sequential) {
    overhead_ms = config_.avg_seek_ms + config_.rotational_ms;
  } else {
    // A sequential run still pays one positioning cost up front; amortized
    // here as a small constant.
    overhead_ms = 0.5;
  }
  return sim::from_seconds(transfer_s) + sim::from_millis(overhead_ms);
}

sim::SimTime DiskModel::estimated_completion(std::uint64_t bytes,
                                             bool sequential) const {
  const sim::SimTime start = std::max(sim_.now(), arm_free_at_);
  return start + service_time(bytes, sequential);
}

void DiskModel::submit(IoKind kind, std::uint64_t bytes, bool sequential,
                       sim::InlineCallback done) {
  const sim::SimTime start = std::max(sim_.now(), arm_free_at_);
  sim::SimDuration service = service_time(bytes, sequential);
  if (kind == IoKind::kWrite && faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kDiskWriteFail)) {
    // Failed write, retried by the block layer: the arm services the
    // request twice (seek + transfer) before completion.
    service += service_time(bytes, /*sequential=*/false);
  }
  const sim::SimTime finish = start + service;
  arm_free_at_ = finish;
  busy_ += service;
  ++served_;
  if (kind == IoKind::kRead) {
    total_read_ += bytes;
    read_series_.add_interval(start, finish, static_cast<double>(bytes));
  } else {
    total_write_ += bytes;
    write_series_.add_interval(start, finish, static_cast<double>(bytes));
  }
  sim_.schedule_at(finish, std::move(done));
}

}  // namespace rattrap::fs
