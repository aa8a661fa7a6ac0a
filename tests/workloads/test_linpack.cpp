#include "workloads/linpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace rattrap::workloads {
namespace {

/// The unblocked dgefa/dgesl that run_linpack's blocked kernel replaced:
/// same seeded system, rank-1 elimination one column at a time, b reduced
/// alongside, residual against saved copies of A and b.
LinpackOutcome unblocked_linpack(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> a(n * n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(-0.5, 0.5);
  for (auto& v : b) v = rng.uniform(-0.5, 0.5);
  const std::vector<double> a0 = a;
  const std::vector<double> b0 = b;

  double a_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += std::fabs(a0[i * n + j]);
    a_norm = std::max(a_norm, row);
  }

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double maxval = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > maxval) {
        maxval = v;
        p = i;
      }
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[k * n + j], a[p * n + j]);
      }
      std::swap(b[k], b[p]);
    }
    const double diag = a[k * n + k];
    if (diag == 0.0) continue;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = a[i * n + k] / diag;
      a[i * n + k] = mult;
      for (std::size_t j = k + 1; j < n; ++j) {
        a[i * n + j] -= mult * a[k * n + j];
      }
      b[i] -= mult * b[k];
    }
  }

  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= a[i * n + j] * x[j];
    const double diag = a[i * n + i];
    x[i] = diag != 0.0 ? sum / diag : 0.0;
  }

  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) dot += a0[i * n + j] * x[j];
    residual = std::max(residual, std::fabs(dot - b0[i]));
  }

  LinpackOutcome out;
  out.residual_norm = residual;
  out.normalized_residual =
      residual / (static_cast<double>(n) * a_norm *
                  std::numeric_limits<double>::epsilon());
  return out;
}

TEST(Linpack, ResidualIsNumericallySound) {
  const LinpackOutcome outcome = run_linpack(100, 42);
  // The normalized residual of a well-conditioned random system solved
  // with partial pivoting should be O(1)–O(10).
  EXPECT_LT(outcome.normalized_residual, 100.0);
  EXPECT_GT(outcome.residual_norm, 0.0);
}

TEST(Linpack, FlopCountFormula) {
  const LinpackOutcome outcome = run_linpack(100, 1);
  const double n = 100.0;
  EXPECT_EQ(outcome.flops,
            static_cast<std::uint64_t>(2.0 / 3.0 * n * n * n + 2.0 * n * n));
}

TEST(Linpack, DeterministicInSeed) {
  const LinpackOutcome a = run_linpack(64, 7);
  const LinpackOutcome b = run_linpack(64, 7);
  EXPECT_EQ(a.residual_norm, b.residual_norm);
  const LinpackOutcome c = run_linpack(64, 8);
  EXPECT_NE(a.residual_norm, c.residual_norm);
}

TEST(Linpack, LargerSystemsStaySound) {
  for (const std::size_t n : {32, 160, 320}) {
    EXPECT_LT(run_linpack(n, 3).normalized_residual, 100.0) << n;
  }
}

TEST(LinpackTask, ExecuteReportsFlops) {
  LinpackWorkload workload;
  sim::Rng rng(1);
  const TaskSpec spec = workload.make_task(rng, 1);
  const TaskResult result = workload.execute(spec);
  const double n = 160.0;
  EXPECT_EQ(result.units.compute,
            static_cast<std::uint64_t>(2.0 / 3.0 * n * n * n + 2.0 * n * n));
  EXPECT_EQ(result.units.io_bytes, 0u);
  EXPECT_NE(result.checksum, 0u);  // residual check passed
}

TEST(LinpackTask, TinyTransferFootprint) {
  // Table II: Linpack's whole 20-request upload is a few hundred KB.
  LinpackWorkload workload;
  sim::Rng rng(2);
  const TaskSpec spec = workload.make_task(rng, 1);
  EXPECT_EQ(spec.input_file_bytes, 0u);
  EXPECT_LT(spec.param_bytes, 4096u);
  EXPECT_LT(workload.app().apk_bytes, 256u * 1024);
}

TEST(Linpack, ResidualBitsArePinned) {
  // The exact bits of the unblocked kernel.  An ISA-specific path, FMA
  // contraction or a reordered reduction moves them on any host.
  const LinpackOutcome big = run_linpack(480, 1);
  EXPECT_EQ(big.residual_norm, 0x1.286p-42);
  EXPECT_EQ(big.normalized_residual, 0x1.39482a921d1a6p-6);
  const LinpackOutcome odd = run_linpack(161, 2);
  EXPECT_EQ(odd.residual_norm, 0x1.d9p-45);
  EXPECT_EQ(odd.normalized_residual, 0x1.07e9c9d1ccb9cp-5);
}

class LinpackSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinpackSweep, ResidualBoundedAcrossSizes) {
  EXPECT_LT(run_linpack(GetParam(), 11).normalized_residual, 100.0);
}

TEST_P(LinpackSweep, MatchesUnblockedReference) {
  const std::size_t n = GetParam();
  for (const std::uint64_t seed : {11, 12}) {
    const LinpackOutcome blocked = run_linpack(n, seed);
    const LinpackOutcome reference = unblocked_linpack(n, seed);
    EXPECT_LT(blocked.normalized_residual, 100.0) << n << " seed " << seed;
    EXPECT_LT(reference.normalized_residual, 100.0) << n << " seed " << seed;
    EXPECT_LE(blocked.residual_norm, 10.0 * reference.residual_norm) << n;
    EXPECT_LE(reference.residual_norm, 10.0 * blocked.residual_norm) << n;
    // Each element sees the same subtractions in the same order.
    EXPECT_EQ(blocked.residual_norm, reference.residual_norm) << n;
    EXPECT_EQ(blocked.normalized_residual, reference.normalized_residual)
        << n;
  }
}

// Panel (32) and tile (4) edges: one short of, at and past each.
INSTANTIATE_TEST_SUITE_P(Sizes, LinpackSweep,
                         ::testing::Values(8, 16, 33, 64, 127, 256, 1, 2, 3,
                                           4, 5, 31, 32, 35, 63, 65, 480,
                                           481));

}  // namespace
}  // namespace rattrap::workloads
