// Parallel sweeps for the benchmark harness.
//
// Simulations are single-threaded and deterministic by design; what *is*
// embarrassingly parallel is running many independent simulations (one
// per seed or per platform × workload × network cell).  parallel_for
// runs such sweeps across hardware threads while keeping per-cell
// determinism: each iteration owns its Platform instance and shares
// nothing mutable.
#pragma once

#include <cstddef>
#include <functional>

namespace rattrap::sim {

/// Runs `body(i)` for i in [0, count) on min(threads, count) threads
/// (`threads` = 0 picks the hardware concurrency) that claim indices
/// from one shared counter; blocks until all iterations finish.
/// Exceptions escaping `body` terminate (simulation code is noexcept by
/// convention).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace rattrap::sim
