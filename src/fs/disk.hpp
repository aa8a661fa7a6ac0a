// Rotational-disk model with a single service arm and FIFO queue.
//
// The evaluation machines in the paper use a 300 GB HDD; VM-based
// platforms additionally pay an I/O virtualization penalty on top of this
// device model (applied by the VM layer, not here).  The Monitor reads the
// per-second I/O TimeSeries to reproduce the Fig. 2 server-load timelines.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/fault.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rattrap::fs {

struct DiskConfig {
  double sequential_mb_s = 120.0;  ///< sustained sequential throughput
  double avg_seek_ms = 8.5;        ///< average seek time
  double rotational_ms = 4.17;     ///< half-rotation @7200 rpm
  /// Sequential-run detection is out of scope; callers tag requests.
};

enum class IoKind : std::uint8_t { kRead, kWrite };

class DiskModel {
 public:
  DiskModel(sim::Simulator& simulator, DiskConfig config = {});

  /// Service time of one request, excluding queueing.
  [[nodiscard]] sim::SimDuration service_time(std::uint64_t bytes,
                                              bool sequential) const;

  /// Enqueues a request; `done` fires when it completes. Requests are
  /// serviced FIFO by the single arm. Utilization and per-second byte
  /// counters are recorded for the monitor.
  void submit(IoKind kind, std::uint64_t bytes, bool sequential,
              sim::InlineCallback done);

  /// Synchronous estimate: completion time if submitted now (includes the
  /// current backlog). Does not enqueue.
  [[nodiscard]] sim::SimTime estimated_completion(std::uint64_t bytes,
                                                  bool sequential) const;

  [[nodiscard]] const sim::TimeSeries& read_bytes_per_sec() const {
    return read_series_;
  }
  [[nodiscard]] const sim::TimeSeries& write_bytes_per_sec() const {
    return write_series_;
  }
  [[nodiscard]] std::uint64_t total_read_bytes() const { return total_read_; }
  [[nodiscard]] std::uint64_t total_write_bytes() const {
    return total_write_;
  }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

  /// Busy time accumulated (for utilization accounting).
  [[nodiscard]] sim::SimDuration busy_time() const { return busy_; }

  /// Attaches a fault injector: writes consult kDiskWriteFail; a fired
  /// fault models a failed sector write that the block layer retries, so
  /// the request is serviced twice (time penalty, no data loss).
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

 private:
  sim::Simulator& sim_;
  DiskConfig config_;
  sim::SimTime arm_free_at_ = 0;  ///< when the arm finishes its backlog
  sim::TimeSeries read_series_{sim::kSecond};
  sim::TimeSeries write_series_{sim::kSecond};
  std::uint64_t total_read_ = 0;
  std::uint64_t total_write_ = 0;
  std::uint64_t served_ = 0;
  sim::SimDuration busy_ = 0;
  sim::FaultInjector* faults_ = nullptr;
};

}  // namespace rattrap::fs
