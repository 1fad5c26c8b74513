// Kernel micro-benchmarks (google-benchmark): the inner loops whose
// throughput determines the constants of the cost models used by the
// figure reproductions. Every SIMD kernel is registered once per ISA
// level this machine can run (BM_Simd*/scalar, /sse4.1, /avx2), and a
// side-by-side speedup table versus the scalar oracle is printed before
// the benchmark run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "blast/extend.hpp"
#include "blast/filter.hpp"
#include "blast/lookup.hpp"
#include "blast/sequence.hpp"
#include "blast/translate.hpp"
#include "mrmpi/keyvalue.hpp"
#include "simd/simd.hpp"
#include "som/som.hpp"

using namespace mrbio;

namespace {

std::vector<std::uint8_t> random_dna(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return blast::random_sequence(rng, "s", n, blast::SeqType::Dna).data;
}

std::vector<std::uint8_t> random_protein(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return blast::random_sequence(rng, "s", n, blast::SeqType::Protein).data;
}

void BM_NucLookupBuild(benchmark::State& state) {
  const auto query = random_dna(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    blast::NucLookup lut(query, 11);
    benchmark::DoNotOptimize(lut.total_positions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NucLookupBuild)->Arg(10'000)->Arg(100'000);

void BM_NucScan(benchmark::State& state) {
  const auto query = random_dna(10'000, 2);
  const auto subject = random_dna(static_cast<std::size_t>(state.range(0)), 3);
  const blast::NucLookup lut(query, 11);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    std::uint32_t word = 0;
    std::size_t run = 0;
    const std::uint32_t mask = (1u << 22) - 1;
    for (const std::uint8_t c : subject) {
      word = ((word << 2) | c) & mask;
      if (++run >= 11) hits += lut.hits(word).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NucScan)->Arg(100'000)->Arg(1'000'000);

void BM_ProtLookupBuildNeighbourhood(benchmark::State& state) {
  const auto query = random_protein(static_cast<std::size_t>(state.range(0)), 4);
  const blast::Scorer scorer = blast::Scorer::blosum62();
  for (auto _ : state) {
    blast::ProtLookup lut(query, 11, scorer);
    benchmark::DoNotOptimize(lut.total_positions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProtLookupBuildNeighbourhood)->Arg(300)->Arg(3'000);

void BM_UngappedExtension(benchmark::State& state) {
  Rng rng(5);
  const auto parent = blast::random_sequence(rng, "p", 2'000, blast::SeqType::Dna);
  const auto homolog = blast::mutate(rng, parent, "h", 0.05, blast::SeqType::Dna);
  const blast::Scorer scorer = blast::Scorer::dna();
  for (auto _ : state) {
    const auto seg =
        blast::extend_ungapped(parent.data, homolog.data, 1'000, 1'000, 11, scorer, 20);
    benchmark::DoNotOptimize(seg.score);
  }
}
BENCHMARK(BM_UngappedExtension);

void BM_GappedExtension(benchmark::State& state) {
  Rng rng(6);
  const auto parent = blast::random_sequence(rng, "p", 2'000, blast::SeqType::Dna);
  const auto homolog = blast::mutate(rng, parent, "h", 0.05, blast::SeqType::Dna);
  const blast::Scorer scorer = blast::Scorer::dna();
  for (auto _ : state) {
    const auto aln =
        blast::extend_gapped(parent.data, homolog.data, 1'000, 1'000, scorer, 30);
    benchmark::DoNotOptimize(aln.score);
  }
}
BENCHMARK(BM_GappedExtension);

void BM_GappedExtensionFarSeed(benchmark::State& state) {
  // The homolog sits at the end of a 20 kbp subject (seeds 150 and
  // 19,150), so any per-call cost that grows with the subject prefix left
  // of the seed shows here and not in BM_GappedExtension.
  Rng rng(6);
  const auto parent = blast::random_sequence(rng, "p", 1'000, blast::SeqType::Dna);
  const auto homolog = blast::mutate(rng, parent, "h", 0.05, blast::SeqType::Dna);
  auto subject = blast::random_sequence(rng, "s", 19'000, blast::SeqType::Dna).data;
  subject.insert(subject.end(), homolog.data.begin(), homolog.data.end());
  const blast::Scorer scorer = blast::Scorer::dna();
  for (auto _ : state) {
    const auto aln = blast::extend_gapped(parent.data, subject, 150, 19'150, scorer, 30);
    benchmark::DoNotOptimize(aln.score);
  }
}
BENCHMARK(BM_GappedExtensionFarSeed);

void BM_DustFilter(benchmark::State& state) {
  const auto seq = random_dna(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blast::dust_mask(seq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DustFilter)->Arg(100'000);

void BM_BmuSearch(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  som::Codebook cb(som::SomGrid{cells, cells}, 256);
  Rng rng(8);
  cb.init_random(rng);
  std::vector<float> x(256);
  for (float& v : x) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(som::find_bmu(cb, x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells * cells) * 256);
}
BENCHMARK(BM_BmuSearch)->Arg(10)->Arg(50);

// Batch SOM at the som_batch workload's shape: a 30x30 map of 64-D
// code vectors. add() is one BMU scan plus a 64-wide add into the BMU's
// sum; apply() is the per-epoch neighbourhood update over the active BMUs.
constexpr std::size_t kSomSide = 30;
constexpr std::size_t kSomDim = 64;

void BM_BatchAccumulatorAdd(benchmark::State& state) {
  som::Codebook cb(som::SomGrid{kSomSide, kSomSide}, kSomDim);
  Rng rng(9);
  cb.init_random(rng);
  std::vector<float> x(kSomDim);
  for (float& v : x) v = static_cast<float>(rng.uniform());
  som::BatchAccumulator acc(cb.grid(), kSomDim, 5.0, som::Kernel::Gaussian);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.add(cb, x, 5.0));
  }
  // One distance per cell.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSomSide * kSomSide * kSomDim));
}
BENCHMARK(BM_BatchAccumulatorAdd);

void BM_BatchAccumulatorApply(benchmark::State& state) {
  som::Codebook cb(som::SomGrid{kSomSide, kSomSide}, kSomDim);
  Rng rng(10);
  cb.init_random(rng);
  // One epoch of som_batch's 10,240 uniform inputs.
  som::BatchAccumulator acc(cb.grid(), kSomDim, 5.0, som::Kernel::Gaussian);
  std::vector<float> x(kSomDim);
  for (int i = 0; i < 10'240; ++i) {
    for (float& v : x) v = static_cast<float>(rng.uniform());
    acc.add(cb, x, 5.0);
  }
  std::int64_t active = 0;
  for (const float n : acc.bmu_counts()) active += n > 0.0f ? 1 : 0;
  for (auto _ : state) {
    acc.apply(cb);
    benchmark::DoNotOptimize(cb.weights().data());
    benchmark::ClobberMemory();
  }
  // One dim-wide multiply-add per (neuron, active BMU) pair.
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSomSide * kSomSide) *
                          active * static_cast<std::int64_t>(kSomDim));
}
BENCHMARK(BM_BatchAccumulatorApply);

void BM_KeyValueAdd(benchmark::State& state) {
  const std::string key = "query_00012345";
  const std::string value(120, 'x');
  for (auto _ : state) {
    mrmpi::KeyValue kv;
    for (int i = 0; i < 1'000; ++i) kv.add(key, value);
    benchmark::DoNotOptimize(kv.size());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_KeyValueAdd);

void BM_Translate6Frames(benchmark::State& state) {
  const auto dna = random_dna(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    for (int f = 0; f < 6; ++f) {
      benchmark::DoNotOptimize(blast::translate(dna, f));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 6);
}
BENCHMARK(BM_Translate6Frames)->Arg(10'000);

void BM_KeyValueSpillRoundTrip(benchmark::State& state) {
  mrmpi::SpillPolicy policy;
  policy.page_bytes = 64 * 1024;
  policy.max_resident_pages = 4;
  policy.dir = "/tmp";
  const std::string value(200, 'v');
  for (auto _ : state) {
    mrmpi::KeyValue kv(policy);
    for (int i = 0; i < 5'000; ++i) kv.add("key" + std::to_string(i), value);
    std::size_t n = 0;
    kv.for_each([&](const mrmpi::KvPair&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(state.iterations() * 5'000 * 210);
}
BENCHMARK(BM_KeyValueSpillRoundTrip);

void BM_KeyHash(benchmark::State& state) {
  const std::string key = "query_00012345";
  const auto bytes = std::as_bytes(std::span(key.data(), key.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrmpi::key_hash(bytes));
  }
}
BENCHMARK(BM_KeyHash);

// ---------------------------------------------------------------------------
// SIMD kernel variants, one registration per runnable ISA level

/// Shared inputs of the per-ISA kernel benchmarks.
struct SimdBenchData {
  static const SimdBenchData& get() {
    static const SimdBenchData d;
    return d;
  }

  // diag_scan: identical sequences + match-favouring table, so the scan
  // always consumes all n pairs (the calibration workload's shape).
  std::vector<std::uint8_t> seq = random_dna(4'096, 21);
  std::vector<int> table = [] {
    std::vector<int> t(32 * 32, -2);
    for (int a = 0; a < 32; ++a) t[static_cast<std::size_t>(a) * 32 + a] = 1;
    return t;
  }();

  // gapped_row_prep: a 256-column window.
  std::vector<int> h_prev = [] {
    Rng rng(22);
    std::vector<int> v(256);
    for (int& x : v) x = static_cast<int>(rng.below(200)) - 60;
    return v;
  }();
  std::vector<int> f_prev = h_prev;
  std::vector<std::uint8_t> b_lo = random_dna(257, 23);
  std::vector<int> score_row = std::vector<int>(32, -3);

  // word scans over 100k residues.
  std::vector<std::uint8_t> dna = random_dna(100'000, 24);
  std::vector<std::uint8_t> prot = [] {
    auto v = random_protein(100'000, 25);
    v.resize(v.size() + 2, 31);  // prot_words reads s[m+1]
    return v;
  }();

  // SOM vectors, dim 256.
  std::vector<float> xa = [] {
    Rng rng(26);
    std::vector<float> v(256);
    for (float& f : v) f = static_cast<float>(rng.uniform());
    return v;
  }();
  std::vector<float> xb = [] {
    Rng rng(27);
    std::vector<float> v(256);
    for (float& f : v) f = static_cast<float>(rng.uniform());
    return v;
  }();
};

void BM_SimdDiagScan(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  for (auto _ : state) {
    const simd::DiagScanResult r = k.diag_scan(d.seq.data(), d.seq.data(), d.seq.size(),
                                               false, d.table.data(), 0, 0, 1 << 28);
    benchmark::DoNotOptimize(r.best);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.seq.size()));
}

void BM_SimdGappedRowPrep(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  std::vector<int> d_out(257), f_out(257);
  std::vector<std::uint8_t> flags(257);
  for (auto _ : state) {
    k.gapped_row_prep(d.h_prev.data(), d.f_prev.data(), d.h_prev.size(), d.b_lo.data(),
                      d.score_row.data(), 7, 2, 257, d_out.data(), f_out.data(),
                      flags.data());
    benchmark::DoNotOptimize(d_out[1]);
  }
  state.SetItemsProcessed(state.iterations() * 257);
}

void BM_SimdDnaWords(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  const std::uint32_t mask = (1u << 22) - 1;
  std::uint32_t codes[48];
  for (auto _ : state) {
    std::uint32_t word = 0;
    std::uint64_t hist = 0;
    std::uint64_t valid = 0;
    std::uint64_t sum = 0;
    for (std::size_t base = 0; base < d.dna.size(); base += 48) {
      const std::size_t m = std::min<std::size_t>(48, d.dna.size() - base);
      k.dna_words(d.dna.data() + base, m, 11, mask, &word, &hist, codes, &valid);
      sum += valid;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.dna.size()));
}

void BM_SimdProtWords(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  const std::size_t last = d.prot.size() - 2 - 3;  // keep s[m+1] readable
  std::uint16_t codes[64];
  for (auto _ : state) {
    std::uint64_t valid = 0;
    std::uint64_t sum = 0;
    for (std::size_t base = 0; base <= last; base += 64) {
      const std::size_t m = std::min<std::size_t>(64, last - base + 1);
      k.prot_words(d.prot.data() + base, m, codes, &valid);
      sum += valid;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(last));
}

void BM_SimdDist2(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.dist2_f32(d.xa.data(), d.xb.data(), d.xa.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.xa.size()));
}

void BM_SimdOnlineUpdate(benchmark::State& state, simd::Isa isa) {
  const SimdBenchData& d = SimdBenchData::get();
  const simd::Kernels& k = simd::kernels(isa);
  std::vector<float> w = d.xa;
  for (auto _ : state) {
    k.online_update_f32(w.data(), d.xb.data(), w.size(), 1e-4);
    benchmark::DoNotOptimize(w[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.xa.size()));
}

void register_simd_benchmarks() {
  using Fn = void (*)(benchmark::State&, simd::Isa);
  constexpr std::pair<const char*, Fn> kKernels[] = {
      {"BM_SimdDiagScan", BM_SimdDiagScan},
      {"BM_SimdGappedRowPrep", BM_SimdGappedRowPrep},
      {"BM_SimdDnaWords", BM_SimdDnaWords},
      {"BM_SimdProtWords", BM_SimdProtWords},
      {"BM_SimdDist2", BM_SimdDist2},
      {"BM_SimdOnlineUpdate", BM_SimdOnlineUpdate},
  };
  for (const auto& [name, fn] : kKernels) {
    for (const simd::Isa isa : simd::runnable_isas()) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + simd::isa_name(isa)).c_str(), fn, isa);
    }
  }
}

/// Quick self-timed side-by-side table: items/s per level and speedup vs
/// scalar, independent of the google-benchmark output format.
void print_simd_speedups() {
  const auto time_loop = [](const auto& body, double items_per_call) {
    using clock = std::chrono::steady_clock;
    // Warm up, then run for ~40 ms.
    body();
    const clock::time_point t0 = clock::now();
    std::size_t calls = 0;
    while (std::chrono::duration<double>(clock::now() - t0).count() < 0.04) {
      for (int i = 0; i < 8; ++i) body();
      calls += 8;
    }
    const double secs = std::chrono::duration<double>(clock::now() - t0).count();
    return items_per_call * static_cast<double>(calls) / secs;
  };

  const std::vector<simd::Isa> isas = simd::runnable_isas();
  std::printf("\n-- SIMD kernel speedups vs scalar (items/s; higher is better) --\n");
  std::printf("%-22s", "kernel");
  for (const simd::Isa isa : isas) std::printf(" %14s", simd::isa_name(isa));
  std::printf("  best speedup\n");

  const auto report = [&](const char* name, const auto& make_body,
                          double items_per_call) {
    std::printf("%-22s", name);
    double scalar_rate = 0.0;
    double best = 0.0;
    for (const simd::Isa isa : isas) {
      const auto body = make_body(isa);
      const double rate = time_loop(body, items_per_call);
      if (isa == simd::Isa::Scalar) scalar_rate = rate;
      best = std::max(best, scalar_rate > 0.0 ? rate / scalar_rate : 0.0);
      std::printf(" %14.4g", rate);
    }
    std::printf("  %.2fx\n", best);
  };

  const SimdBenchData& d = SimdBenchData::get();
  report(
      "diag_scan",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          benchmark::DoNotOptimize(k->diag_scan(d.seq.data(), d.seq.data(), d.seq.size(),
                                               false, d.table.data(), 0, 0, 1 << 28));
        };
      },
      static_cast<double>(d.seq.size()));
  report(
      "gapped_row_prep",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          int d_out[257], f_out[257];
          std::uint8_t flags[257];
          k->gapped_row_prep(d.h_prev.data(), d.f_prev.data(), d.h_prev.size(),
                            d.b_lo.data(), d.score_row.data(), 7, 2, 257, d_out, f_out,
                            flags);
          benchmark::DoNotOptimize(d_out[1]);
        };
      },
      257.0);
  report(
      "dna_words",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          const std::uint32_t mask = (1u << 22) - 1;
          std::uint32_t codes[48];
          std::uint32_t word = 0;
          std::uint64_t hist = 0, valid = 0, sum = 0;
          for (std::size_t base = 0; base < d.dna.size(); base += 48) {
            const std::size_t m = std::min<std::size_t>(48, d.dna.size() - base);
            k->dna_words(d.dna.data() + base, m, 11, mask, &word, &hist, codes, &valid);
            sum += valid;
          }
          benchmark::DoNotOptimize(sum);
        };
      },
      static_cast<double>(d.dna.size()));
  report(
      "prot_words",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          const std::size_t last = d.prot.size() - 2 - 3;
          std::uint16_t codes[64];
          std::uint64_t valid = 0, sum = 0;
          for (std::size_t base = 0; base <= last; base += 64) {
            const std::size_t m = std::min<std::size_t>(64, last - base + 1);
            k->prot_words(d.prot.data() + base, m, codes, &valid);
            sum += valid;
          }
          benchmark::DoNotOptimize(sum);
        };
      },
      static_cast<double>(d.prot.size()));
  report(
      "dist2_f32",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          benchmark::DoNotOptimize(k->dist2_f32(d.xa.data(), d.xb.data(), d.xa.size()));
        };
      },
      static_cast<double>(d.xa.size()));
  report(
      "online_update_f32",
      [&](simd::Isa isa) {
        const simd::Kernels* k = &simd::kernels(isa);
        return [&d, k] {
          static std::vector<float> w = d.xa;
          k->online_update_f32(w.data(), d.xb.data(), w.size(), 1e-4);
          benchmark::DoNotOptimize(w[0]);
        };
      },
      static_cast<double>(d.xa.size()));

  std::printf("calibrated seconds/cell:");
  for (const simd::Isa isa : isas) {
    std::printf(" %s=%.3g", simd::isa_name(isa),
                simd::calibrated_seconds_per_cell(isa));
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  register_simd_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  print_simd_speedups();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
