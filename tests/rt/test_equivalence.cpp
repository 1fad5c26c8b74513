// Backend equivalence: the same inputs must produce byte-identical
// results on the discrete-event simulator and the native multithreaded
// backend — BLAST hit files, SOM codebooks, and mrmpi collate/reduce
// pipelines. Timings differ (virtual vs wall-clock); results must not.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "blast/dbformat.hpp"
#include "blast/sequence.hpp"
#include "common/rng.hpp"
#include "mpi/comm.hpp"
#include "mrblast/mrblast.hpp"
#include "mrmpi/mapreduce.hpp"
#include "mrsom/mrsom.hpp"
#include "rt/backend.hpp"
#include "sched/sched.hpp"
#include <unistd.h>

namespace mrbio::rt {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `body` on `nranks` ranks of the given backend.
void run_backend(Backend backend, int nranks, const std::function<void(mpi::Comm&)>& body) {
  LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = nranks;
  launch(lc, [&](Rank& rank) {
    mpi::Comm comm(rank);
    body(comm);
  });
}

std::string to_string(std::span<const std::byte> s) {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// mrmpi collate/reduce pipelines on the native backend

/// Word-count over synthetic documents; returns the final (word, count)
/// table gathered from all ranks.
std::map<std::string, std::uint64_t> word_count(Backend backend, int nranks) {
  const std::vector<std::string> words = {"map", "reduce", "blast", "som",
                                          "rank", "mpi"};
  std::map<std::string, std::uint64_t> table;
  std::mutex mu;
  run_backend(backend, nranks, [&](mpi::Comm& comm) {
    mrmpi::MapReduce mr(comm);
    mr.map(40, [&](std::uint64_t task, mrmpi::KeyValue& kv) {
      // Each task emits a deterministic slice of "document" words.
      for (std::uint64_t i = 0; i <= task % 7; ++i)
        kv.add(words[(task + i) % words.size()], "1");
    });
    mr.collate();
    mr.reduce([](const mrmpi::KmvGroup& group, mrmpi::KeyValue& kv) {
      kv.add(to_string(group.key), std::to_string(group.values.size()));
    });
    mr.gather();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      mr.kv().for_each([&](const mrmpi::KvPair& pair) {
        table[to_string(pair.key)] = std::stoull(to_string(pair.value));
      });
    }
  });
  return table;
}

TEST(BackendEquivalence, WordCountCollateReduce) {
  const auto sim = word_count(Backend::Sim, 4);
  const auto native = word_count(Backend::Native, 4);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim, native);
}

TEST(BackendEquivalence, CompressThenCollateOnNative) {
  // The combiner-style pipeline (compress -> aggregate -> convert ->
  // reduce) exercises alltoallv and local grouping on real threads.
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    std::uint64_t total = 0;
    run_backend(backend, 3, [&](mpi::Comm& comm) {
      mrmpi::MapReduce mr(comm);
      mr.map(30, [](std::uint64_t task, mrmpi::KeyValue& kv) {
        kv.add("k" + std::to_string(task % 5), std::to_string(task));
      });
      mr.compress([](const mrmpi::KmvGroup& group, mrmpi::KeyValue& kv) {
        kv.add(to_string(group.key), std::to_string(group.values.size()));
      });
      const std::uint64_t unique = mr.collate();
      if (comm.rank() == 0) total = unique;
    });
    EXPECT_EQ(total, 5u) << backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// BLAST: per-rank hit files byte-identical across backends

class BlastEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = std::filesystem::temp_directory_path() / ("mrbio_rt_equiv_blast_" + std::to_string(::getpid()));
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);

    Rng rng(2011);
    std::vector<blast::Sequence> genomes;
    for (int g = 0; g < 4; ++g) {
      genomes.push_back(blast::random_sequence(rng, "genome" + std::to_string(g),
                                               1'500, blast::SeqType::Dna));
    }
    db_ = blast::build_db(genomes, (work_ / "db").string(), blast::SeqType::Dna, 2'000);

    std::vector<blast::Sequence> queries;
    for (const auto& frag : blast::shred({genomes[0], genomes[2]}, 300, 150)) {
      queries.push_back(blast::mutate(rng, frag, frag.id, 0.02, blast::SeqType::Dna));
    }
    for (std::size_t i = 0; i < queries.size(); i += 6) {
      blocks_.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(i),
                           queries.begin() +
                               static_cast<std::ptrdiff_t>(std::min(i + 6, queries.size())));
    }
  }
  void TearDown() override { std::filesystem::remove_all(work_); }

  /// Runs the full MR BLAST driver and returns the per-rank output files'
  /// contents, keyed by file name. `rank0_tasks`, if set, receives the
  /// number of map tasks rank 0 ran.
  std::map<std::string, std::string> run(Backend backend, int nranks,
                                         sched::Policy policy = sched::Policy::Auto,
                                         std::uint64_t* rank0_tasks = nullptr) {
    mrblast::RealRunConfig config;
    config.query_blocks = blocks_;
    config.partition_paths = db_.volume_paths;
    config.options.evalue_cutoff = 1e-6;
    config.options.filter_low_complexity = false;
    config.scheduler = policy;
    config.output_dir = (work_ / (std::string("out_") + backend_name(backend) + "_" +
                                  sched::policy_name(policy)))
                            .string();
    std::filesystem::remove_all(config.output_dir);
    run_backend(backend, nranks, [&](mpi::Comm& comm) {
      const mrblast::RealRunResult result = mrblast::run_blast_mr(comm, config);
      if (comm.rank() == 0 && rank0_tasks != nullptr) *rank0_tasks = result.local_map_tasks;
    });
    std::map<std::string, std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(config.output_dir)) {
      files[e.path().filename().string()] = slurp(e.path());
    }
    return files;
  }

  std::filesystem::path work_;
  blast::DbInfo db_;
  std::vector<std::vector<blast::Sequence>> blocks_;
};

TEST_F(BlastEquivalence, HitFilesByteIdentical) {
  const auto sim = run(Backend::Sim, 4);
  const auto native = run(Backend::Native, 4);
  ASSERT_FALSE(sim.empty());
  ASSERT_EQ(sim.size(), native.size());
  bool any_hits = false;
  for (const auto& [name, content] : sim) {
    ASSERT_TRUE(native.count(name)) << name;
    EXPECT_EQ(content, native.at(name)) << name;
    any_hits = any_hits || !content.empty();
  }
  EXPECT_TRUE(any_hits);
}

TEST_F(BlastEquivalence, AutoPutsRankZeroToWorkOnNativeOnly) {
  // auto resolves the master-worker style to steal on native ranks, so
  // rank 0 searches too; the DES keeps the paper's master-worker protocol,
  // whose rank 0 only grants. Both give the master's hits, byte for byte.
  std::uint64_t sim_rank0 = 0;
  std::uint64_t native_rank0 = 0;
  const auto master = run(Backend::Sim, 3, sched::Policy::Master);
  const auto sim_auto = run(Backend::Sim, 3, sched::Policy::Auto, &sim_rank0);
  const auto native_auto = run(Backend::Native, 3, sched::Policy::Auto, &native_rank0);
  ASSERT_FALSE(master.empty());
  EXPECT_EQ(sim_rank0, 0u);
  EXPECT_GT(native_rank0, 0u);
  EXPECT_EQ(sim_auto, master);
  EXPECT_EQ(native_auto, master);
}

// ---------------------------------------------------------------------------
// SOM: trained codebook byte-identical across backends

TEST(BackendEquivalence, SomCodebookByteIdentical) {
  Rng rng(7);
  Matrix data(120, 8);
  for (std::size_t r = 0; r < data.rows(); ++r)
    for (std::size_t c = 0; c < data.cols(); ++c)
      data(r, c) = static_cast<float>(rng.uniform());

  som::Codebook initial(som::SomGrid{6, 6}, data.cols());
  initial.init_pca(data.view());

  mrsom::ParallelSomConfig config;
  config.params.epochs = 4;
  config.block_vectors = 10;
  // Chunk map style: deterministic block -> rank assignment, so the
  // floating-point accumulation order matches across backends.
  config.map_style = mrmpi::MapStyle::Chunk;

  std::vector<som::Codebook> results;
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    som::Codebook cb;
    run_backend(backend, 4, [&](mpi::Comm& comm) {
      som::Codebook trained = mrsom::train_som_mr(comm, data.view(), initial, config);
      if (comm.rank() == 0) cb = std::move(trained);
    });
    results.push_back(std::move(cb));
  }
  ASSERT_EQ(results.size(), 2u);
  const Matrix& a = results[0].weights();
  const Matrix& b = results[1].weights();
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.row(0).data(), b.row(0).data(),
                        a.rows() * a.cols() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace mrbio::rt
