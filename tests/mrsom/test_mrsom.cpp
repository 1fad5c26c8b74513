// Integration tests of the MR-MPI batch SOM: the parallel codebook must
// match serial batch training, and the simulated driver must show the
// paper's near-linear scaling.
#include "mrsom/mrsom.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace mrbio::mrsom {
namespace {

Matrix random_data(Rng& rng, std::size_t n, std::size_t dim) {
  Matrix data(n, dim);
  for (std::size_t r = 0; r < n; ++r) {
    for (float& v : data.row(r)) v = static_cast<float>(rng.uniform());
  }
  return data;
}

som::Codebook train_parallel(int nprocs, const MatrixView& data,
                             const som::Codebook& initial, ParallelSomConfig config) {
  sim::EngineConfig ec;
  ec.nprocs = nprocs;
  sim::Engine engine(ec);
  som::Codebook result;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    som::Codebook cb = train_som_mr(comm, data, initial, config);
    if (p.rank() == 0) result = std::move(cb);
  });
  return result;
}

TEST(MrSom, ParallelMatchesSerialBatch) {
  Rng rng(50);
  const Matrix data = random_data(rng, 240, 8);
  som::Codebook initial(som::SomGrid{6, 6}, 8);
  Rng init_rng(51);
  initial.init_random(init_rng);

  som::SomParams params;
  params.epochs = 5;

  som::Codebook serial = initial;
  som::train_batch(serial, data.view(), params);

  ParallelSomConfig config;
  config.params = params;
  config.block_vectors = 40;
  const som::Codebook parallel = train_parallel(4, data.view(), initial, config);

  for (std::size_t c = 0; c < serial.grid().cells(); ++c) {
    for (std::size_t i = 0; i < serial.dim(); ++i) {
      EXPECT_NEAR(serial.vector(c)[i], parallel.vector(c)[i], 5e-3)
          << "cell " << c << " dim " << i;
    }
  }
}

TEST(MrSom, EveryRankEndsWithSameCodebook) {
  Rng rng(52);
  const Matrix data = random_data(rng, 120, 4);
  som::Codebook initial(som::SomGrid{4, 4}, 4);
  Rng init_rng(53);
  initial.init_random(init_rng);
  ParallelSomConfig config;
  config.params.epochs = 3;
  config.block_vectors = 20;

  sim::EngineConfig ec;
  ec.nprocs = 3;
  sim::Engine engine(ec);
  std::vector<som::Codebook> codebooks(3);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    codebooks[static_cast<std::size_t>(p.rank())] =
        train_som_mr(comm, data.view(), initial, config);
  });
  for (int r = 1; r < 3; ++r) {
    for (std::size_t i = 0; i < codebooks[0].weights().size(); ++i) {
      EXPECT_FLOAT_EQ(codebooks[0].weights().data()[i],
                      codebooks[static_cast<std::size_t>(r)].weights().data()[i]);
    }
  }
}

TEST(MrSom, BlockSizeDoesNotChangeResult) {
  // Fig. 6 caption: "Work units of 80 vectors each produced the identical
  // timings" -- and the math is identical regardless of block size.
  Rng rng(54);
  const Matrix data = random_data(rng, 160, 6);
  som::Codebook initial(som::SomGrid{5, 5}, 6);
  Rng init_rng(55);
  initial.init_random(init_rng);
  ParallelSomConfig c40;
  c40.params.epochs = 3;
  c40.block_vectors = 40;
  ParallelSomConfig c80 = c40;
  c80.block_vectors = 80;

  const som::Codebook cb40 = train_parallel(4, data.view(), initial, c40);
  const som::Codebook cb80 = train_parallel(4, data.view(), initial, c80);
  for (std::size_t i = 0; i < cb40.weights().size(); ++i) {
    EXPECT_NEAR(cb40.weights().data()[i], cb80.weights().data()[i], 2e-3);
  }
}

TEST(MrSom, SingleRankMatchesSerialExactly) {
  Rng rng(56);
  const Matrix data = random_data(rng, 100, 5);
  som::Codebook initial(som::SomGrid{4, 4}, 5);
  Rng init_rng(57);
  initial.init_random(init_rng);
  som::SomParams params;
  params.epochs = 4;

  som::Codebook serial = initial;
  som::train_batch(serial, data.view(), params);

  ParallelSomConfig config;
  config.params = params;
  config.block_vectors = 30;
  const som::Codebook parallel = train_parallel(1, data.view(), initial, config);
  for (std::size_t i = 0; i < serial.weights().size(); ++i) {
    EXPECT_NEAR(serial.weights().data()[i], parallel.weights().data()[i], 1e-4);
  }
}

TEST(MrSom, EpochCallbackFiresOnMaster) {
  Rng rng(58);
  // Clustered data so training genuinely reduces quantization error.
  Matrix data = random_data(rng, 80, 3);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const float offset = (r % 2 == 0) ? 0.0f : 3.0f;
    for (float& v : data.row(r)) v = v * 0.2f + offset;
  }
  som::Codebook initial(som::SomGrid{3, 3}, 3);
  Rng init_rng(59);
  initial.init_random(init_rng);
  ParallelSomConfig config;
  config.params.epochs = 4;
  config.block_vectors = 10;
  std::vector<double> qerrs;
  config.on_epoch = [&](std::size_t, double, double qerr) { qerrs.push_back(qerr); };
  train_parallel(3, data.view(), initial, config);
  ASSERT_EQ(qerrs.size(), 4u);
  EXPECT_LT(qerrs.back(), qerrs.front());
}

TEST(MrSom, MasterChargesTheEq5UpdatePerActiveBmu) {
  // The map's virtual charge prices each input's BMU scan; rank 0 prices
  // the per-epoch neighbourhood update: dim x cells x active BMU cells.
  Rng rng(63);
  const Matrix data = random_data(rng, 90, 5);
  som::Codebook initial(som::SomGrid{4, 5}, 5);
  initial.init_random(rng);
  std::set<std::size_t> bmus;
  for (std::size_t r = 0; r < data.rows(); ++r) bmus.insert(som::find_bmu(initial, data.row(r)));

  ParallelSomConfig config;
  config.params.epochs = 1;
  config.block_vectors = 30;
  config.flop_seconds = 1e-6;
  trace::Recorder recorder(2, trace::Level::Full);
  sim::EngineConfig ec;
  ec.nprocs = 2;
  ec.recorder = &recorder;
  sim::Engine engine(ec);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    train_som_mr(comm, data.view(), initial, config);
  });
  std::size_t spans = 0;
  for (const trace::Event& e : recorder.rank_events(0)) {
    if (std::string(e.name) != "codebook_update") continue;
    ++spans;
    EXPECT_NEAR(e.t1 - e.t0, 1e-6 * 20.0 * static_cast<double>(bmus.size()) * 5.0, 1e-12);
  }
  EXPECT_EQ(spans, 1u);
}

// ---- the deterministic path's block records ----

TEST(MrSomRecord, BlockValueHoldsOneEntryPerDistinctBmu) {
  // som_batch's shape: 30x30 map, 64-D inputs, blocks of 40.
  const std::size_t dim = 64;
  Rng rng(60);
  const Matrix data = random_data(rng, 120, dim);
  som::Codebook cb(som::SomGrid{30, 30}, dim);
  cb.init_random(rng);
  for (std::size_t first = 0; first < data.rows(); first += 40) {
    som::BatchAccumulator block(cb.grid(), dim, 3.0, som::Kernel::Gaussian);
    std::set<std::size_t> bmus;
    double qerr = 0.0;
    for (std::size_t r = first; r < first + 40; ++r) {
      qerr += block.add(cb, data.row(r), 3.0);
      bmus.insert(som::find_bmu(cb, data.row(r)));
    }
    const std::vector<std::byte> value = encode_block_sums(block, qerr);
    const std::size_t k = bmus.size();
    EXPECT_LE(value.size(), 8 + k * (8 + 4 * dim)) << "block at " << first;
    EXPECT_EQ(value.size(), 8 + k * (8 + 4 * dim)) << "block at " << first;
    EXPECT_LE(value.size(), 10'568u);  // 8 + 40 (8 + 256): at most one entry per input
    double stored = 0.0;
    std::memcpy(&stored, value.data(), sizeof(stored));
    EXPECT_EQ(stored, qerr);
  }
}

TEST(MrSomRecord, DeterministicEpochFoldsBlockRecordsInBlockOrder) {
  Rng rng(61);
  const Matrix data = random_data(rng, 130, 6);
  som::Codebook initial(som::SomGrid{5, 4}, 6);
  initial.init_random(rng);
  ParallelSomConfig config;
  config.params.epochs = 1;
  config.block_vectors = 20;
  config.deterministic_reduce = true;
  const som::Codebook parallel = train_parallel(3, data.view(), initial, config);

  const double sigma = som::sigma_at(config.params, initial.grid(), 0);
  som::BatchAccumulator total(initial.grid(), 6, sigma, som::Kernel::Gaussian);
  for (std::uint64_t block = 0; block < 7; ++block) {
    const std::size_t first = static_cast<std::size_t>(block) * 20;
    const std::size_t count = std::min<std::size_t>(20, data.rows() - first);
    som::BatchAccumulator b(initial.grid(), 6, sigma, som::Kernel::Gaussian);
    double qerr = 0.0;
    for (std::size_t r = first; r < first + count; ++r) qerr += b.add(initial, data.row(r), sigma);
    EXPECT_EQ(fold_block_sums(total, encode_block_sums(b, qerr), block, count, 0), qerr);
  }
  som::Codebook expected = initial;
  total.apply(expected);
  EXPECT_EQ(std::memcmp(parallel.weights().data(), expected.weights().data(),
                        expected.weights().size() * sizeof(float)),
            0);
}

TEST(MrSomRecord, MalformedRecordNamesItsBlockAndEpoch) {
  const std::size_t dim = 3;
  Rng rng(62);
  const Matrix data = random_data(rng, 12, dim);
  som::Codebook cb(som::SomGrid{3, 3}, dim);
  cb.init_random(rng);
  som::BatchAccumulator block(cb.grid(), dim, 1.0, som::Kernel::Gaussian);
  for (std::size_t r = 0; r < data.rows(); ++r) block.add(cb, data.row(r), 1.0);
  const std::vector<std::byte> good = encode_block_sums(block, 0.5);
  const std::size_t entry = 8 + 4 * dim;
  const std::size_t k = (good.size() - 8) / entry;
  ASSERT_GE(k, 2u);

  {
    som::BatchAccumulator total(cb.grid(), dim, 1.0, som::Kernel::Gaussian);
    EXPECT_EQ(fold_block_sums(total, good, 7, 12, 3), 0.5);
    float n = 0.0f;
    for (const float c : total.bmu_counts()) n += c;
    EXPECT_EQ(n, 12.0f);
  }

  const auto expect_rejected = [&](const std::vector<std::byte>& record, std::size_t inputs,
                                   const char* what) {
    som::BatchAccumulator total(cb.grid(), dim, 1.0, som::Kernel::Gaussian);
    try {
      fold_block_sums(total, record, 7, inputs, 3);
      ADD_FAILURE() << what << ": accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("som block 7 in epoch 3"), std::string::npos)
          << what << ": " << e.what();
    }
    for (const float c : total.bmu_counts()) EXPECT_EQ(c, 0.0f) << what << ": folded in part";
  };
  const auto with_u32 = [&](std::size_t offset, std::uint32_t v) {
    std::vector<std::byte> r = good;
    std::memcpy(r.data() + offset, &v, sizeof(v));
    return r;
  };
  std::uint32_t cell0 = 0;
  std::memcpy(&cell0, good.data() + 8, sizeof(cell0));

  expect_rejected({good.begin(), good.end() - 1}, 12, "length");
  expect_rejected({good.begin(), good.begin() + 4}, 12, "shorter than qerr");
  expect_rejected(good, k - 1, "more entries than inputs");
  expect_rejected(with_u32(8 + entry, cell0), 12, "repeated cell");
  std::vector<std::byte> swapped = good;
  std::swap_ranges(swapped.begin() + 8, swapped.begin() + 8 + static_cast<std::ptrdiff_t>(entry),
                   swapped.begin() + 8 + static_cast<std::ptrdiff_t>(entry));
  expect_rejected(swapped, 12, "descending cells");
  expect_rejected(with_u32(8 + (k - 1) * entry, 9), 12, "cell out of range");
  expect_rejected(with_u32(8 + 4, 0), 12, "zero count");
  expect_rejected(good, 13, "counts do not sum to the inputs");
}

// ---- simulated driver ----

double sim_elapsed(int cores, const SimSomConfig& config) {
  sim::EngineConfig ec;
  ec.nprocs = cores;
  ec.stack_bytes = 256 * 1024;
  sim::Engine engine(ec);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    run_som_sim(comm, config);
  });
  return engine.elapsed();
}

SimSomConfig small_sim() {
  SimSomConfig c;
  c.num_vectors = 4'096;
  c.dim = 64;
  c.grid = som::SomGrid{20, 20};
  c.epochs = 3;
  c.block_vectors = 32;
  return c;
}

TEST(MrSomSim, NearLinearScaling) {
  const SimSomConfig c = small_sim();
  const double t4 = sim_elapsed(4, c);
  const double t16 = sim_elapsed(16, c);
  // 3 workers -> 15 workers: ideal speedup 5x; demand at least 4x.
  EXPECT_LT(t16, t4 / 4.0);
}

TEST(MrSomSim, BlockSizeBarelyMattersForTiming) {
  // Fig. 6: 40- and 80-vector work units produced identical timings.
  // Enough blocks per worker that end-of-stage idling is amortized, as at
  // the paper's scale (2048 blocks over the core counts of Fig. 6).
  SimSomConfig c40 = small_sim();
  c40.num_vectors = 16'384;
  c40.block_vectors = 40;
  SimSomConfig c80 = c40;
  c80.block_vectors = 80;
  const double t40 = sim_elapsed(8, c40);
  const double t80 = sim_elapsed(8, c80);
  EXPECT_NEAR(t40, t80, 0.05 * t40);
}

TEST(MrSomSim, Deterministic) {
  const SimSomConfig c = small_sim();
  EXPECT_DOUBLE_EQ(sim_elapsed(8, c), sim_elapsed(8, c));
}

TEST(MrSomSim, EpochCountScalesTime) {
  SimSomConfig c1 = small_sim();
  c1.epochs = 2;
  SimSomConfig c2 = small_sim();
  c2.epochs = 4;
  const double t1 = sim_elapsed(4, c1);
  const double t2 = sim_elapsed(4, c2);
  EXPECT_NEAR(t2, 2.0 * t1, 0.1 * t2);
}

}  // namespace
}  // namespace mrbio::mrsom
