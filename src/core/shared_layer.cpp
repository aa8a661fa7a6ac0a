#include "core/shared_layer.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>

namespace rattrap::core {

SharedResourceLayer::SharedResourceLayer(
    std::shared_ptr<const fs::Layer> system_layer,
    std::uint64_t tmpfs_capacity, double tmpfs_mb_s)
    : system_layer_(std::move(system_layer)),
      offload_io_("offload-io", tmpfs_capacity, tmpfs_mb_s) {
  assert(system_layer_ && "shared layer requires a system image");
}

std::string_view SharedResourceLayer::request_path(std::uint64_t request_seq,
                                                  PathBuffer& buffer) {
  constexpr std::string_view kPrefix = "/offload/req-";
  constexpr std::string_view kLeaf = "/input";
  char* out = std::copy(kPrefix.begin(), kPrefix.end(), buffer.data());
  out = std::to_chars(out, buffer.data() + buffer.size(), request_seq).ptr;
  out = std::copy(kLeaf.begin(), kLeaf.end(), out);
  return {buffer.data(), static_cast<std::size_t>(out - buffer.data())};
}

void SharedResourceLayer::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_staged_requests_ = metric_bytes_shared_ = nullptr;
    metric_stage_rejected_ = metric_consumed_bytes_ = nullptr;
    metric_released_bytes_ = nullptr;
    metric_used_bytes_ = metric_peak_bytes_ = nullptr;
    return;
  }
  metric_staged_requests_ = &metrics->counter("tmpfs.staged.requests");
  metric_bytes_shared_ = &metrics->counter("tmpfs.bytes_shared");
  metric_stage_rejected_ = &metrics->counter("tmpfs.stage_rejected");
  metric_consumed_bytes_ = &metrics->counter("tmpfs.consumed_bytes");
  metric_released_bytes_ = &metrics->counter("tmpfs.released_bytes");
  metric_used_bytes_ = &metrics->gauge("tmpfs.used_bytes");
  metric_peak_bytes_ = &metrics->gauge("tmpfs.peak_bytes");
}

void SharedResourceLayer::update_usage_metrics() {
  if (metric_used_bytes_ == nullptr) return;
  metric_used_bytes_->set(static_cast<double>(offload_io_.used_bytes()));
  metric_peak_bytes_->set(static_cast<double>(offload_io_.peak_bytes()));
}

bool SharedResourceLayer::stage_request_files(std::uint64_t request_seq,
                                              std::uint64_t bytes,
                                              sim::SimTime now) {
  if (bytes == 0) return true;
  // "Burn after reading": migrated data is a one-time deal (§IV-C).
  PathBuffer path;
  if (!offload_io_.write(request_path(request_seq, path), bytes, now,
                         /*burn_after_reading=*/true)) {
    if (metric_stage_rejected_ != nullptr) metric_stage_rejected_->inc();
    return false;
  }
  // Restaging (a re-dispatched session uploading again) replaces the
  // previous copy in place, so account the delta.
  if (const std::uint64_t* previous = staged_.find(request_seq)) {
    staged_bytes_ -= *previous;
  }
  staged_.insert_or_assign(request_seq, bytes);
  staged_bytes_ += bytes;
  if (metric_staged_requests_ != nullptr) {
    metric_staged_requests_->inc();
    metric_bytes_shared_->inc(bytes);
    update_usage_metrics();
  }
  return true;
}

std::uint64_t SharedResourceLayer::consume_request_files(
    std::uint64_t request_seq, sim::SimTime now) {
  PathBuffer path;
  const std::int64_t read =
      offload_io_.read(request_path(request_seq, path), now);
  if (read < 0) return 0;
  if (const std::uint64_t* bytes = staged_.find(request_seq)) {
    staged_bytes_ -= *bytes;
    staged_.erase(request_seq);
  }
  if (metric_consumed_bytes_ != nullptr) {
    metric_consumed_bytes_->inc(static_cast<std::uint64_t>(read));
    update_usage_metrics();
  }
  return static_cast<std::uint64_t>(read);
}

std::uint64_t SharedResourceLayer::release_request_files(
    std::uint64_t request_seq) {
  const std::uint64_t* staged = staged_.find(request_seq);
  if (staged == nullptr) return 0;
  const std::uint64_t bytes = *staged;
  PathBuffer path;
  offload_io_.remove(request_path(request_seq, path));
  staged_bytes_ -= bytes;
  staged_.erase(request_seq);
  if (metric_released_bytes_ != nullptr) {
    metric_released_bytes_->inc(bytes);
    update_usage_metrics();
  }
  return bytes;
}

}  // namespace rattrap::core
