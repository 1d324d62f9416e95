// A3 — Microbenchmarks for the sketch kernels (google-benchmark).
//
// Measures the local building blocks that every DHS operation rests on:
// AddHash throughput, estimation latency, merge, and the
// MD4 vs SplitMix64 hashing cost that motivates the "mix" default in
// the simulator.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "hashing/hasher.h"
#include "hashing/md4.h"
#include "sketch/loglog.h"
#include "sketch/pcsa.h"

namespace dhs {
namespace {

void BM_PcsaAddHash(benchmark::State& state) {
  PcsaSketch sketch(static_cast<int>(state.range(0)), 24);
  Rng rng(1);
  for (auto _ : state) {
    sketch.AddHash(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcsaAddHash)->Arg(64)->Arg(512)->Arg(4096);

void BM_LogLogAddHash(benchmark::State& state) {
  LogLogSketch sketch(static_cast<int>(state.range(0)), 24);
  Rng rng(1);
  for (auto _ : state) {
    sketch.AddHash(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogLogAddHash)->Arg(64)->Arg(512)->Arg(4096);

void BM_PcsaEstimate(benchmark::State& state) {
  PcsaSketch sketch(static_cast<int>(state.range(0)), 24);
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate());
  }
}
BENCHMARK(BM_PcsaEstimate)->Arg(64)->Arg(512)->Arg(4096);

void BM_SuperLogLogEstimate(benchmark::State& state) {
  LogLogSketch sketch(static_cast<int>(state.range(0)), 24);
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate());
  }
}
BENCHMARK(BM_SuperLogLogEstimate)->Arg(64)->Arg(512)->Arg(4096);

void BM_PcsaMerge(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  PcsaSketch a(m, 24);
  PcsaSketch b(m, 24);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    a.AddHash(rng.Next());
    b.AddHash(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Merge(b));
  }
}
BENCHMARK(BM_PcsaMerge)->Arg(64)->Arg(512)->Arg(4096);

void BM_Md4HashU64(benchmark::State& state) {
  Md4Hasher hasher;
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.HashU64(++x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Md4HashU64);

void BM_MixHashU64(benchmark::State& state) {
  MixHasher hasher;
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.HashU64(++x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixHashU64);

}  // namespace
}  // namespace dhs

BENCHMARK_MAIN();
