// Copyright (c) 2026 The DeltaMerge Authors.
// google-benchmark micro-benchmarks of the library's hot primitives:
// packed-vector access, CSB+ insert/lookup, dictionary merge, merge-path
// splits, the CRC-32 kernels. These are the per-operation costs behind the
// figure benches.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/merge_algorithms.h"
#include "model/machine_profile.h"
#include "parallel/merge_path.h"
#include "simd/simd_kernels.h"
#include "storage/csb_tree.h"
#include "storage/packed_vector.h"
#include "util/crc32.h"
#include "util/cycle_clock.h"
#include "util/random.h"
#include "workload/table_builder.h"
#include "workload/value_generator.h"

namespace deltamerge {
namespace {

void BM_PackedVectorGet(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 20;
  PackedVector v(n, bits);
  Rng rng(1);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & LowBitsMask(bits)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Get(i));
    i = (i + 997) & (n - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PackedVectorGet)->Arg(7)->Arg(17)->Arg(27);

void BM_PackedVectorSequentialRead(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 20;
  PackedVector v(n, bits);
  for (auto _ : state) {
    PackedVector::Reader r(v);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < n; ++i) sum += r.Next();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PackedVectorSequentialRead)->Arg(7)->Arg(27);

// CRC-32 throughput of each kernel Crc32 chooses between (arg 0: 1 = the
// PCLMULQDQ folding path, 0 = the slicing-by-8 fallback) at a WAL frame
// header's order of size, a page, and a full stream buffer.
void BM_Crc32(benchmark::State& state) {
  const bool fold = state.range(0) != 0;
  const size_t n = static_cast<size_t>(state.range(1));
  if (fold && !detail::Crc32FoldSupported()) {
    state.SkipWithError("no PCLMULQDQ on this CPU");
    return;
  }
  std::vector<uint8_t> data(n);
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = fold ? detail::Crc32Fold(data.data(), n, crc)
               : detail::Crc32Slice8(data.data(), n, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)
    ->ArgNames({"fold", "bytes"})
    ->ArgsProduct({{1, 0}, {64, 4096, 256 * 1024}});

void BM_CsbTreeInsert(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    CsbTree<8> tree;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 100000; ++i) {
      tree.Insert(Value8::FromKey(rng.Below(domain)), i);
    }
    benchmark::DoNotOptimize(tree.unique_keys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_CsbTreeInsert)->Arg(1000)->Arg(100000)->Arg(100000000);

void BM_CsbTreeLookup(benchmark::State& state) {
  CsbTree<8> tree;
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (uint32_t i = 0; i < 100000; ++i) {
    const uint64_t k = rng.Next();
    keys.push_back(k);
    tree.Insert(Value8::FromKey(k), i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CountOf(Value8::FromKey(keys[i])));
    i = (i + 131) % keys.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CsbTreeLookup);

void BM_DictionaryMerge(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  auto ka = GenerateDistinctKeys(n, 8, 4);
  auto kb = GenerateDistinctKeys(n / 10, 8, 5);
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  std::vector<Value8> a, b;
  for (uint64_t k : ka) a.push_back(Value8::FromKey(k));
  for (uint64_t k : kb) b.push_back(Value8::FromKey(k));
  for (auto _ : state) {
    auto out = MergeDictionaries<8>(a, b, /*fill_aux=*/true);
    benchmark::DoNotOptimize(out.merged.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n + n / 10));
}
BENCHMARK(BM_DictionaryMerge)->Arg(100000)->Arg(1000000);

void BM_MergePathSplit(benchmark::State& state) {
  auto ka = GenerateDistinctKeys(1 << 20, 8, 6);
  auto kb = GenerateDistinctKeys(1 << 18, 8, 7);
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  std::vector<Value8> a, b;
  for (uint64_t k : ka) a.push_back(Value8::FromKey(k));
  for (uint64_t k : kb) b.push_back(Value8::FromKey(k));
  std::span<const Value8> as(a), bs(b);
  Rng rng(8);
  for (auto _ : state) {
    const uint64_t d = rng.Below(a.size() + b.size());
    benchmark::DoNotOptimize(MergePathSplit(as, bs, d));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MergePathSplit);

void BM_FullColumnMerge(benchmark::State& state) {
  const uint64_t nm = static_cast<uint64_t>(state.range(0));
  const double lambda = 0.1;
  auto main = BuildMainPartition<8>(nm, lambda, 9);
  DeltaPartition<8> delta;
  for (uint64_t k : GenerateColumnKeys(nm / 100, lambda, 8, 10)) {
    delta.Insert(Value8::FromKey(k));
  }
  for (auto _ : state) {
    auto merged =
        MergeColumnPartitions<8>(main, delta, MergeOptions{});
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nm + nm / 100));
}
BENCHMARK(BM_FullColumnMerge)->Arg(1 << 20)->Arg(1 << 22);

// ---------------------------------------------------------------------------
// SIMD scan kernels (src/simd/simd_kernels.h). Each reports cycles_per_code
// (TSC cycles per packed code processed) and, where the kernel streams a
// well-defined byte count, pct_of_bw — achieved bytes/cycle as a percentage
// of the host's measured single-thread stream bandwidth.
// ---------------------------------------------------------------------------

double StreamRoofBytesPerCycle() {
  // One-shot: the measurement itself streams a 64 MB buffer for a while.
  static const double roof = MeasureStreamBandwidth(64ull << 20, 1);
  return roof;
}

PackedVector RandomCodes(uint64_t n, uint8_t bits, uint64_t seed) {
  PackedVector v(n, bits);
  PackedVector::Writer w(v);
  Rng rng(seed);
  const uint64_t mask = LowBitsMask(bits);
  for (uint64_t i = 0; i < n; ++i) {
    w.Append(static_cast<uint32_t>(rng.Next() & mask));
  }
  return v;
}

void SetScanCounters(benchmark::State& state, uint64_t cycles,
                     uint64_t codes_processed, double bytes_per_code) {
  const double cpc = static_cast<double>(cycles) /
                     static_cast<double>(codes_processed ? codes_processed : 1);
  state.counters["cycles_per_code"] = cpc;
  if (bytes_per_code > 0.0) {
    state.counters["pct_of_bw"] =
        100.0 * (bytes_per_code / cpc) / StreamRoofBytesPerCycle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(codes_processed));
}

void BM_SimdCountRangePacked(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 22;  // 4M codes: past L2 at every width measured
  const PackedVector v = RandomCodes(n, bits, 11);
  const uint64_t mask = LowBitsMask(bits);
  const uint32_t lo = static_cast<uint32_t>(mask / 4);
  const uint32_t hi = static_cast<uint32_t>(mask / 2);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountRangePacked(v, 0, n, lo, hi));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdCountRangePacked)->Arg(8)->Arg(16)->Arg(24);

void BM_SimdCollectRangePacked(benchmark::State& state) {
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 12);
  const uint64_t mask = LowBitsMask(bits);
  // ~3% selectivity: collect cost is dominated by the scan, not the output.
  const uint32_t lo = 0;
  const uint32_t hi = static_cast<uint32_t>(mask / 32);
  std::vector<uint64_t> rows;
  rows.reserve(n / 16);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    rows.clear();
    const uint64_t t0 = CycleClock::Now();
    simd::CollectRangePacked(v, 0, n, lo, hi, 0, &rows);
    cycles += CycleClock::Now() - t0;
    codes += n;
    benchmark::DoNotOptimize(rows.data());
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdCollectRangePacked);

void BM_SimdSumPackedTranslated(benchmark::State& state) {
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 13);
  std::vector<uint64_t> table(1ull << bits);
  Rng rng(14);
  for (auto& t : table) t = rng.Next();
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(
        simd::SumPackedTranslated(v, 0, n, table.data()));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  // No pct_of_bw: the dictionary gather's traffic is access-dependent.
  SetScanCounters(state, cycles, codes, 0.0);
}
BENCHMARK(BM_SimdSumPackedTranslated);

void BM_SimdCountRangePackedMasked(benchmark::State& state) {
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 15);
  const uint64_t mask = LowBitsMask(bits);
  std::vector<uint64_t> valid((n + 63) / 64, ~0ull);
  Rng rng(16);
  for (uint64_t i = 0; i < n / 50; ++i) {  // ~2% deleted
    const uint64_t r = rng.Below(n);
    valid[r / 64] &= ~(1ull << (r % 64));
  }
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountRangePackedMasked(
        v, 0, n, static_cast<uint32_t>(mask / 4),
        static_cast<uint32_t>(mask / 2), valid.data(), 0));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, bits / 8.0 + 1.0 / 8.0);
}
BENCHMARK(BM_SimdCountRangePackedMasked);

void BM_SimdCountConjunctionPacked(benchmark::State& state) {
  const size_t npreds = static_cast<size_t>(state.range(0));
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const uint64_t mask = LowBitsMask(bits);
  std::vector<PackedVector> cols;
  std::vector<simd::ConjunctPredicate> preds;
  for (size_t j = 0; j < npreds; ++j) {
    cols.push_back(RandomCodes(n, bits, 17 + j));
  }
  for (size_t j = 0; j < npreds; ++j) {
    // 50% selectivity per leg; the fused kernel short-circuits emptied
    // blocks, so later legs stream fewer bytes than the first.
    preds.push_back(simd::ConjunctPredicate{
        &cols[j], 0, static_cast<uint32_t>(mask / 2)});
  }
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountConjunctionPacked(preds, 0, n));
    cycles += CycleClock::Now() - t0;
    codes += n;  // per-tuple, not per-leg: comparable across npreds
  }
  SetScanCounters(state, cycles, codes, 0.0);
}
BENCHMARK(BM_SimdCountConjunctionPacked)->Arg(2)->Arg(3)->Arg(4);

void BM_SimdMultiCountRangePacked(benchmark::State& state) {
  const size_t npreds = static_cast<size_t>(state.range(0));
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 21);
  const uint64_t mask = LowBitsMask(bits);
  std::vector<simd::CodeRange> preds;
  for (size_t j = 0; j < npreds; ++j) {
    const uint32_t lo = static_cast<uint32_t>(mask * j / (2 * npreds));
    preds.push_back(
        simd::CodeRange{lo, lo + static_cast<uint32_t>(mask / 4)});
  }
  std::vector<uint64_t> counts(npreds);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    const uint64_t t0 = CycleClock::Now();
    simd::MultiCountRangePacked(v, 0, n, preds, counts.data());
    cycles += CycleClock::Now() - t0;
    codes += n;  // one memory pass regardless of npreds
    benchmark::DoNotOptimize(counts.data());
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdMultiCountRangePacked)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace deltamerge

BENCHMARK_MAIN();
