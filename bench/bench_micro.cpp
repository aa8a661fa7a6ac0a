// Micro-benchmarks (google-benchmark) for the hot substrate paths: union
// filesystem lookups and COW, binder transactions, the event queue, the
// Aho-Corasick scanner and the Linpack kernel.
#include <benchmark/benchmark.h>

#include "android/image_profile.hpp"
#include "fs/union_fs.hpp"
#include "kernel/binder.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "fs/tmpfs.hpp"
#include "workloads/chess.hpp"
#include "workloads/linpack.hpp"
#include "workloads/ocr.hpp"
#include "workloads/virusscan.hpp"

namespace {

using namespace rattrap;

void BM_UnionFsLookup(benchmark::State& state) {
  fs::UnionFs rootfs("bench", {android::customized_layer()});
  const auto paths = android::customized_image().essential_paths();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rootfs.lookup(paths[i % paths.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnionFsLookup);

void BM_UnionFsCowWrite(benchmark::State& state) {
  const auto paths = android::customized_image().essential_paths();
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::UnionFs rootfs("bench", {android::customized_layer()});
    state.ResumeTiming();
    rootfs.write(paths[i % paths.size()], 4096, 0);
    ++i;
  }
}
BENCHMARK(BM_UnionFsCowWrite);

void BM_BinderTransact(benchmark::State& state) {
  kernel::BinderDriver binder;
  const auto a = binder.create_endpoint(1);
  const auto b = binder.create_endpoint(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        binder.transact(1, a, b, static_cast<std::uint64_t>(state.range(0))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BinderTransact)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng(1);
  sim::SimTime t = 0;
  for (auto _ : state) {
    queue.schedule(t + rng.uniform_int(1, 1000), [] {});
    if (queue.size() > 1024) {
      queue.pop();
    }
    ++t;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_AhoCorasickScan(benchmark::State& state) {
  const auto db = workloads::make_signature_db(2000, 1);
  const workloads::AhoCorasick automaton(db);
  const auto corpus = workloads::make_corpus(
      static_cast<std::uint64_t>(state.range(0)), db, 8, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(automaton.scan(corpus));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_LinpackSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::run_linpack(n, seed++));
  }
  const double flops = 2.0 / 3.0 * static_cast<double>(n) *
                       static_cast<double>(n) * static_cast<double>(n);
  state.counters["flops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
// 480 is the size class every e2ebench workload runs (N = 160·3).
BENCHMARK(BM_LinpackSolve)->Arg(64)->Arg(160)->Arg(480);

void BM_OcrRecognize(benchmark::State& state) {
  const auto page = workloads::render_page(24, 32, 0.04, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::recognize(page));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 24 *
                          32);
}
BENCHMARK(BM_OcrRecognize);

void BM_ChessSearchNps(benchmark::State& state) {
  std::uint64_t nodes = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    workloads::chess::Board board;
    sim::Rng rng(seed++);
    board.randomize(rng, 16);
    const auto result =
        workloads::chess::search(board, static_cast<int>(state.range(0)));
    nodes += result.nodes;
    benchmark::DoNotOptimize(result.score);
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChessSearchNps)->Arg(4)->Arg(5);

void BM_TmpfsWriteReadBurn(benchmark::State& state) {
  fs::TmpFs tmpfs("bench", 1ull << 30, 2600.0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/req-" + std::to_string(i++ % 512);
    tmpfs.write(path, 64 * 1024, 0, /*burn_after_reading=*/true);
    benchmark::DoNotOptimize(tmpfs.read(path, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TmpfsWriteReadBurn);

}  // namespace

BENCHMARK_MAIN();
