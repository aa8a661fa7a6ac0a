#include "workloads/linpack.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

// Every function below that holds a hot loop starts on a 64-byte line, so
// where the linker places it does not change which loop bodies straddle a
// cache line, and the kernel's speed does not move with unrelated code.
#define RATTRAP_HOT_LOOP [[gnu::noinline, gnu::aligned(64)]]

namespace rattrap::workloads {
namespace {

/// Columns per panel of the blocked factorization.
constexpr std::size_t kPanel = 32;

/// Two doubles in one 16-byte register (SSE2 on x86-64).  Loads and stores
/// go through memcpy: rows of an odd-sized matrix are only 8-byte aligned.
using V2 = double __attribute__((vector_size(16)));

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

// The blocked factorization performs, on every element, the same
// subtractions in the same order as the unblocked right-looking dgefa:
// a[i][j] -= l[i][k] * u[k][j] for k = 0, 1, 2, ...  Blocking changes only
// when each subtraction happens, so the factors are bit-identical to the
// unblocked ones.

/// Factors columns [k0, k0 + kb) of rows [k0, n): partial pivoting with
/// full-row swaps, multipliers stored below the diagonal, and the rank-1
/// updates applied within the panel only.
RATTRAP_HOT_LOOP void factor_panel(double* a, std::size_t n, std::size_t k0,
                                   std::size_t kb, std::size_t* pivot) {
  assert(kb > 0 && kb <= kPanel && k0 + kb <= n);
  const std::size_t end = k0 + kb;
  for (std::size_t k = k0; k < end; ++k) {
    std::size_t p = k;
    double maxval = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > maxval) {
        maxval = v;
        p = i;
      }
    }
    pivot[k] = p;
    if (p != k) std::swap_ranges(a + k * n, a + k * n + n, a + p * n);
    const double* urow = a + k * n;
    const double diag = urow[k];
    // A zero pivot means the whole column below it is zero already.
    if (diag == 0.0) continue;
    for (std::size_t i = k + 1; i < n; ++i) {
      double* row = a + i * n;
      const double mult = row[k] / diag;
      row[k] = mult;
      for (std::size_t j = k + 1; j < end; ++j) row[j] -= mult * urow[j];
    }
  }
}

/// U12 = L11⁻¹·A12: forward solve of the panel's rows right of the panel
/// with the unit-lower L11.
RATTRAP_HOT_LOOP void solve_u12(double* a, std::size_t n, std::size_t k0,
                                std::size_t kb) {
  assert(kb > 0 && kb <= kPanel && k0 + kb < n);
  const std::size_t end = k0 + kb;
  for (std::size_t k = k0; k < end; ++k) {
    const double* __restrict urow = a + k * n;
    for (std::size_t i = k + 1; i < end; ++i) {
      double* __restrict row = a + i * n;
      const double l = row[k];
      for (std::size_t j = end; j < n; ++j) row[j] -= l * urow[j];
    }
  }
}

/// A22 -= L21·U12 in 4×4 register tiles (eight two-lane accumulators),
/// with scalar edges for row and column counts that are not multiples of 4.
RATTRAP_HOT_LOOP void update_trailing(double* a, std::size_t n,
                                      std::size_t k0, std::size_t kb) {
  assert(kb > 0 && kb <= kPanel && k0 + kb < n);
  const std::size_t j0 = k0 + kb;
  // A22 is square: rows and columns [j0, tiled) are covered by tiles.
  const std::size_t tiled = j0 + (n - j0) / 4 * 4;
  const double* u12 = a + k0 * n;
  for (std::size_t i = j0; i < tiled; i += 4) {
    double* c0 = a + i * n;
    double* c1 = c0 + n;
    double* c2 = c1 + n;
    double* c3 = c2 + n;
    // The four rows' multipliers, each in both lanes, so the tile loop
    // loads them ready to multiply instead of broadcasting each one.
    V2 l[kPanel][4];
    for (std::size_t p = 0; p < kb; ++p) {
      l[p][0] = V2{c0[k0 + p], c0[k0 + p]};
      l[p][1] = V2{c1[k0 + p], c1[k0 + p]};
      l[p][2] = V2{c2[k0 + p], c2[k0 + p]};
      l[p][3] = V2{c3[k0 + p], c3[k0 + p]};
    }
    for (std::size_t j = j0; j < tiled; j += 4) {
      V2 t00 = load2(c0 + j), t01 = load2(c0 + j + 2);
      V2 t10 = load2(c1 + j), t11 = load2(c1 + j + 2);
      V2 t20 = load2(c2 + j), t21 = load2(c2 + j + 2);
      V2 t30 = load2(c3 + j), t31 = load2(c3 + j + 2);
      const double* u = u12 + j;
      for (std::size_t p = 0; p < kb; ++p, u += n) {
        const V2 ua = load2(u);
        const V2 ub = load2(u + 2);
        t00 -= l[p][0] * ua;
        t01 -= l[p][0] * ub;
        t10 -= l[p][1] * ua;
        t11 -= l[p][1] * ub;
        t20 -= l[p][2] * ua;
        t21 -= l[p][2] * ub;
        t30 -= l[p][3] * ua;
        t31 -= l[p][3] * ub;
      }
      store2(c0 + j, t00);
      store2(c0 + j + 2, t01);
      store2(c1 + j, t10);
      store2(c1 + j + 2, t11);
      store2(c2 + j, t20);
      store2(c2 + j + 2, t21);
      store2(c3 + j, t30);
      store2(c3 + j + 2, t31);
    }
  }
  // Scalar edges: the right columns of the tiled rows, then the bottom rows.
  const auto update = [&](std::size_t i, std::size_t j) {
    double* row = a + i * n;
    double t = row[j];
    for (std::size_t p = 0; p < kb; ++p) t -= row[k0 + p] * u12[p * n + j];
    row[j] = t;
  };
  for (std::size_t i = j0; i < tiled; ++i) {
    for (std::size_t j = tiled; j < n; ++j) update(i, j);
  }
  for (std::size_t i = tiled; i < n; ++i) {
    for (std::size_t j = j0; j < n; ++j) update(i, j);
  }
}

}  // namespace

RATTRAP_HOT_LOOP LinpackOutcome run_linpack(std::size_t n,
                                            std::uint64_t seed) {
  assert(n > 0);
  // The one n×n buffer; every element is written by the generator.
  const auto a = std::make_unique_for_overwrite<double[]>(n * n);
  std::vector<double> b(n);
  double a_norm = 0.0;  // infinity norm of A, taken as it is generated
  {
    sim::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      double* row = a.get() + i * n;
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = rng.uniform(-0.5, 0.5);
        sum += std::fabs(row[j]);
      }
      a_norm = std::max(a_norm, sum);
    }
    for (auto& v : b) v = rng.uniform(-0.5, 0.5);
  }

  // Right-looking blocked LU: factor a panel, solve its U12, update A22.
  std::vector<std::size_t> pivot(n);
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t kb = std::min(kPanel, n - k0);
    factor_panel(a.get(), n, k0, kb, pivot.data());
    if (k0 + kb < n) {
      solve_u12(a.get(), n, k0, kb);
      update_trailing(a.get(), n, k0, kb);
    }
  }

  // Solve (dgesl): permute b, forward substitution with the unit-lower L,
  // back substitution with U; x overwrites b.
  for (std::size_t k = 0; k < n; ++k) std::swap(b[k], b[pivot[k]]);
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = a.get() + i * n;
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= row[k] * b[k];
    b[i] = sum;
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row = a.get() + i * n;
    double sum = b[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= row[j] * b[j];
    b[i] = row[i] != 0.0 ? sum / row[i] : 0.0;
  }
  const std::vector<double>& x = b;

  // Residual ||A0 x - b0||_inf, regenerating A0 and then b0 from the seed.
  std::vector<double> ax(n);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) dot += rng.uniform(-0.5, 0.5) * x[j];
    ax[i] = dot;
  }
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, std::fabs(ax[i] - rng.uniform(-0.5, 0.5)));
  }

  LinpackOutcome out;
  out.residual_norm = residual;
  out.normalized_residual =
      residual / (static_cast<double>(n) * a_norm *
                  std::numeric_limits<double>::epsilon());
  const double nd = static_cast<double>(n);
  out.flops = static_cast<std::uint64_t>(2.0 / 3.0 * nd * nd * nd +
                                         2.0 * nd * nd);
  return out;
}

AppProfile LinpackWorkload::app() const {
  // A tiny math app: the paper's Table II shows Linpack's entire upload is
  // a few hundred KB, most of it code.
  return AppProfile{"com.bench.linpack", 118 * 1024, 3};
}

TaskSpec LinpackWorkload::make_task(sim::Rng& rng,
                                    std::uint32_t size_class) const {
  TaskSpec spec;
  spec.kind = Kind::kLinpack;
  spec.seed = rng();
  spec.size_class = size_class;
  spec.input_file_bytes = 0;
  spec.param_bytes = 640;  // problem size + seed
  spec.result_bytes = 256;  // GFLOPS figure + residual
  return spec;
}

TaskResult LinpackWorkload::execute(const TaskSpec& spec) const {
  assert(spec.kind == Kind::kLinpack);
  const std::size_t n = 160 * spec.size_class;
  const LinpackOutcome out = run_linpack(n, spec.seed);
  TaskResult result;
  result.units.compute = out.flops;
  result.units.io_bytes = 0;
  // The residual check doubles as the correctness witness.
  result.checksum = out.normalized_residual < 100.0 ? 0x11aace50ULL : 0;
  return result;
}

}  // namespace rattrap::workloads
