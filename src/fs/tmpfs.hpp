// In-memory filesystem (tmpfs) used by the Sharing Offloading I/O layer.
//
// The paper serves all offloading I/O (transferred files, parameters) out
// of one shared tmpfs mount: reads and writes hit memory bandwidth instead
// of the HDD, and "burn after reading" semantics drop one-shot files right
// after consumption to bound the memory footprint (§IV-C).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fs/layer.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace rattrap::fs {

class TmpFs {
 public:
  /// `capacity` bytes of backing memory; writes beyond it fail.
  /// `bandwidth_mb_s` models the memcpy rate seen by file operations.
  TmpFs(std::string name, std::uint64_t capacity, double bandwidth_mb_s);

  [[nodiscard]] const std::string& name() const { return store_.name(); }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used_bytes() const { return store_.total_bytes(); }
  [[nodiscard]] std::uint64_t free_bytes() const {
    return capacity_ - used_bytes();
  }
  [[nodiscard]] std::uint64_t peak_bytes() const { return peak_; }
  [[nodiscard]] std::size_t file_count() const { return store_.file_count(); }

  /// Creates or replaces a file. `burn_after_reading` marks it for removal
  /// on first read. Returns false (no change) when capacity would be
  /// exceeded.
  bool write(std::string_view path, std::uint64_t size, sim::SimTime now,
             bool burn_after_reading = false);

  /// Reads a file; returns its size or -1 when absent. Burn-after-reading
  /// files are unlinked by this call.
  std::int64_t read(std::string_view path, sim::SimTime now);

  [[nodiscard]] bool exists(std::string_view path) const {
    return store_.contains(path);
  }

  bool remove(std::string_view path);

  /// Simulated duration of moving `bytes` through memory at the configured
  /// bandwidth.
  [[nodiscard]] sim::SimDuration transfer_time(std::uint64_t bytes) const;

  /// Total bytes ever written / read through this mount.
  [[nodiscard]] std::uint64_t bytes_written() const { return written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return read_; }

  /// Attaches a fault injector: writes consult kTmpfsWriteFail and fail
  /// (as ENOSPC does) when it fires. nullptr detaches.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Writes refused by an injected fault (capacity refusals not counted).
  [[nodiscard]] std::uint64_t injected_write_failures() const {
    return injected_write_failures_;
  }

 private:
  Layer store_;
  std::uint64_t capacity_;
  double bandwidth_mb_s_;
  std::uint64_t peak_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t read_ = 0;
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t injected_write_failures_ = 0;
};

}  // namespace rattrap::fs
