// Linpack workload: dense LU factorization with partial pivoting.
//
// The paper's Linpack is the canonical pure-computation benchmark written
// in plain Java; here the same numerical kernel runs natively: factor a
// random N×N system, solve, and verify the residual.  Flops are the work
// units (2/3·N³ + 2·N² for factor+solve).
//
// The factorization is a right-looking blocked LU (32-column panels, U12
// by forward solve, the trailing update in 4×4 register tiles of 16-byte
// vectors) on one N×N buffer.  It performs every element's subtractions
// in the unblocked dgefa's order, so its factors, and the residual, are
// bit-identical to the unblocked kernel's.  The residual is taken against
// A0 and b0 regenerated from the seed, not against saved copies.
//
// size_class k uses N = 160·k.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace rattrap::workloads {

/// Result of one Linpack run.
struct LinpackOutcome {
  double residual_norm = 0.0;     ///< ||Ax - b||_inf
  double normalized_residual = 0.0;  ///< residual / (N · ||A|| · eps)
  std::uint64_t flops = 0;
};

/// Factors a seeded random A (row-major N×N) in place with partial
/// pivoting, solves Ax=b, and reports the residual against A and b
/// regenerated from the seed.  Deterministic in seed, bit for bit.
[[nodiscard]] LinpackOutcome run_linpack(std::size_t n, std::uint64_t seed);

class LinpackWorkload final : public Workload {
 public:
  [[nodiscard]] Kind kind() const override { return Kind::kLinpack; }
  [[nodiscard]] std::string name() const override { return "Linpack"; }
  [[nodiscard]] AppProfile app() const override;
  [[nodiscard]] TaskSpec make_task(sim::Rng& rng,
                                   std::uint32_t size_class) const override;
  [[nodiscard]] TaskResult execute(const TaskSpec& spec) const override;
};

}  // namespace rattrap::workloads
