// Shared Resource Layer and Sharing Offloading I/O (§IV-C).
//
// Two kinds of sharing:
//  1. The customized system image is mounted read-only under every Cloud
//     Android Container (union lower layer), eliminating the ~1 GB-per-
//     environment duplication: a single CAC's private delta is ~7 MB.
//  2. Offloading I/O — the files requests transfer — lives in ONE shared
//     in-memory filesystem (tmpfs) instead of each container's top layer
//     (Fig. 7b), so offloaded code reads inputs at memory speed and
//     "burn after reading" keeps the footprint bounded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "fs/layer.hpp"
#include "fs/tmpfs.hpp"
#include "obs/metrics.hpp"
#include "sim/flat_hash.hpp"

namespace rattrap::core {

class SharedResourceLayer {
 public:
  SharedResourceLayer(std::shared_ptr<const fs::Layer> system_layer,
                      std::uint64_t tmpfs_capacity, double tmpfs_mb_s);

  /// The read-only system layer all containers union-mount.
  [[nodiscard]] const std::shared_ptr<const fs::Layer>& system_layer()
      const {
    return system_layer_;
  }

  /// Bytes stored once and shared by every container.
  [[nodiscard]] std::uint64_t shared_bytes() const {
    return system_layer_->total_bytes();
  }

  /// The shared offloading-I/O mount.
  [[nodiscard]] fs::TmpFs& offload_io() { return offload_io_; }
  [[nodiscard]] const fs::TmpFs& offload_io() const { return offload_io_; }

  /// Stages one request's transferred files into the shared layer under a
  /// per-request directory; returns false when tmpfs capacity is exceeded.
  bool stage_request_files(std::uint64_t request_seq, std::uint64_t bytes,
                           sim::SimTime now);

  /// Consumes (reads + burns) a request's staged files; returns the bytes
  /// read, or 0 when nothing was staged.
  std::uint64_t consume_request_files(std::uint64_t request_seq,
                                      sim::SimTime now);

  /// Unlinks a request's staged files without reading them — the cleanup
  /// path for sessions that die between staging and execution (crash
  /// recovery must not leak one-shot files). Returns the bytes freed.
  std::uint64_t release_request_files(std::uint64_t request_seq);

  /// In-memory transfer time for `bytes`.
  [[nodiscard]] sim::SimDuration io_time(std::uint64_t bytes) const {
    return offload_io_.transfer_time(bytes);
  }

  /// Staged-but-unconsumed accounting, for the invariant that the shared
  /// tmpfs holds exactly the live offload files and nothing else.
  [[nodiscard]] std::uint64_t staged_bytes() const { return staged_bytes_; }
  [[nodiscard]] std::size_t staged_count() const { return staged_.size(); }

  /// Attaches a metrics registry: staging counts into tmpfs.staged.* and
  /// tmpfs.bytes_shared (total bytes that transited the shared layer),
  /// rejections into tmpfs.stage_rejected, and tmpfs.used_bytes /
  /// tmpfs.peak_bytes track the live footprint. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  /// Room for "/offload/req-<20 digits>/input".
  using PathBuffer = std::array<char, 48>;
  /// Formats a request's staging path into `buffer` — no heap string per
  /// stage, consume or release.
  [[nodiscard]] static std::string_view request_path(
      std::uint64_t request_seq, PathBuffer& buffer);
  void update_usage_metrics();

  std::shared_ptr<const fs::Layer> system_layer_;
  fs::TmpFs offload_io_;
  sim::FlatHashMap<std::uint64_t, std::uint64_t> staged_;  ///< seq → bytes
  std::uint64_t staged_bytes_ = 0;
  obs::Counter* metric_staged_requests_ = nullptr;
  obs::Counter* metric_bytes_shared_ = nullptr;
  obs::Counter* metric_stage_rejected_ = nullptr;
  obs::Counter* metric_consumed_bytes_ = nullptr;
  obs::Counter* metric_released_bytes_ = nullptr;
  obs::Gauge* metric_used_bytes_ = nullptr;
  obs::Gauge* metric_peak_bytes_ = nullptr;
};

}  // namespace rattrap::core
