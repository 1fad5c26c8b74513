// Shuffle-mode equivalence across runtimes: every shuffle configuration
// (flat, combiner, tree-staged, compressed, everything-on) must leave the
// post-collate() data byte-identical on the discrete-event simulator and
// the native multithreaded backend, and under injected faults with the
// fault-tolerant scheduler. Timings differ; bytes must not. Runs under
// TSan when the build enables MRBIO_SANITIZE.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blast/sequence.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mrgraph/mrgraph.hpp"
#include "mrmpi/mapreduce.hpp"
#include "rt/backend.hpp"

namespace mrbio::rt {
namespace {

std::string to_string(std::span<const std::byte> s) {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

std::vector<mrmpi::ShuffleConfig> shuffle_modes() {
  std::vector<mrmpi::ShuffleConfig> modes;
  modes.push_back({});  // flat
  mrmpi::ShuffleConfig combined;
  combined.combiner = true;
  modes.push_back(combined);
  mrmpi::ShuffleConfig tree;
  tree.exchange = mrmpi::ExchangeMode::Tree;
  tree.tree_radix = 2;
  modes.push_back(tree);
  mrmpi::ShuffleConfig everything;
  everything.combiner = true;
  everything.exchange = mrmpi::ExchangeMode::Tree;
  everything.tree_radix = 3;
  everything.compress = true;
  everything.overlap_spill = true;
  modes.push_back(everything);
  return modes;
}

void run_faulted(Backend backend, int nranks, const std::string& plan,
                 const std::function<void(mpi::Comm&)>& body) {
  std::unique_ptr<fault::Injector> injector;
  LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = nranks;
  if (!plan.empty()) {
    injector = std::make_unique<fault::Injector>(fault::FaultPlan::parse(plan));
    lc.injector = injector.get();
  }
  launch(lc, [&](Rank& rank) {
    mpi::Comm comm(rank);
    body(comm);
  });
}

/// Deterministic Chunk-style pipeline; returns each rank's raw KMV dump
/// (group order, key bytes, value order, value bytes).
std::map<int, std::string> collate_dump(Backend backend, int nranks,
                                        const mrmpi::ShuffleConfig& shuffle) {
  mrmpi::MapReduceConfig cfg;
  cfg.map_style = mrmpi::MapStyle::Chunk;
  cfg.shuffle = shuffle;
  std::map<int, std::string> dumps;
  std::mutex mu;
  run_faulted(backend, nranks, "", [&](mpi::Comm& comm) {
    mrmpi::MapReduce mr(comm, cfg);
    mr.map(30, [](std::uint64_t task, mrmpi::KeyValue& kv) {
      Rng rng(7000 + task * 131);
      const int npairs = 10 + static_cast<int>(rng() % 20);
      for (int i = 0; i < npairs; ++i) {
        kv.add("w" + std::to_string(rng() % 13),
               "t" + std::to_string(task) + "." + std::to_string(i));
      }
    });
    mr.collate();
    std::string dump;
    for (std::size_t g = 0; g < mr.kmv().size(); ++g) {
      const mrmpi::KmvGroup group = mr.kmv().group(g);
      dump += to_string(group.key) + "=[";
      for (const auto& v : group.values) dump += to_string(v) + ",";
      dump += "];";
    }
    std::lock_guard<std::mutex> lock(mu);
    dumps[comm.rank()] = std::move(dump);
  });
  return dumps;
}

TEST(ShuffleEquivalence, CollateIdenticalAcrossBackendsAndModes) {
  const int nranks = 4;
  const auto baseline = collate_dump(Backend::Sim, nranks, {});
  ASSERT_EQ(baseline.size(), static_cast<std::size_t>(nranks));
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    const auto modes = shuffle_modes();
    for (std::size_t m = 0; m < modes.size(); ++m) {
      EXPECT_EQ(collate_dump(backend, nranks, modes[m]), baseline)
          << backend_name(backend) << " mode " << m;
    }
  }
}

/// Fault-tolerant master-worker pipeline; scheduling (and therefore raw
/// KMV order) is timing-dependent, so the comparison canonicalizes: every
/// key with its sorted value set, merged across ranks.
std::map<std::string, std::vector<std::string>> faulted_table(
    Backend backend, const std::string& plan, const mrmpi::ShuffleConfig& shuffle) {
  mrmpi::MapReduceConfig cfg;
  cfg.map_style = mrmpi::MapStyle::MasterWorker;
  cfg.ft.enabled = true;
  cfg.ft.task_timeout = 2.0;
  cfg.shuffle = shuffle;
  std::map<std::string, std::vector<std::string>> table;
  std::mutex mu;
  run_faulted(backend, 4, plan, [&](mpi::Comm& comm) {
    mrmpi::MapReduce mr(comm, cfg);
    mr.map(24, [](std::uint64_t task, mrmpi::KeyValue& kv) {
      for (int i = 0; i < 6; ++i) {
        kv.add("k" + std::to_string((task + static_cast<std::uint64_t>(i)) % 9),
               "t" + std::to_string(task) + "." + std::to_string(i));
      }
    });
    mr.collate();
    mr.reduce([&](const mrmpi::KmvGroup& group, mrmpi::KeyValue&) {
      std::vector<std::string> values;
      for (const auto& v : group.values) values.push_back(to_string(v));
      std::sort(values.begin(), values.end());
      std::lock_guard<std::mutex> lock(mu);
      table[to_string(group.key)] = std::move(values);
    });
  });
  return table;
}

TEST(ShuffleEquivalence, FaultedRunsMatchCleanRunsInEveryMode) {
  const std::string plan = "crash:rank=1,task=2; drop:src=2,dst=0,count=1";
  const auto baseline = faulted_table(Backend::Sim, "", {});
  ASSERT_EQ(baseline.size(), 9u);
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    for (const auto& mode : shuffle_modes()) {
      EXPECT_EQ(faulted_table(backend, plan, mode), baseline)
          << backend_name(backend);
    }
  }
}

TEST(ShuffleEquivalence, GraphChecksumIdenticalAcrossBackendsAndModes) {
  // The all-pairs workload end to end: same edges, same order-independent
  // checksum, every backend and shuffle mode.
  mrgraph::GraphConfig config;
  Rng rng(11);
  blast::Sequence ancestor;
  for (std::size_t i = 0; i < 24; ++i) {
    if (i % 6 == 0) {
      ancestor = blast::random_sequence(rng, "f" + std::to_string(i), 120,
                                        blast::SeqType::Dna);
    }
    config.sequences.push_back(blast::mutate(rng, ancestor, "s" + std::to_string(i),
                                             0.05, blast::SeqType::Dna));
  }
  config.block_size = 6;

  std::uint64_t baseline_checksum = 0;
  std::uint64_t baseline_edges = 0;
  bool first = true;
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    for (const auto& mode : shuffle_modes()) {
      mrgraph::GraphConfig run_config = config;
      run_config.shuffle = mode;
      mrgraph::GraphStats stats;
      std::mutex mu;
      LaunchConfig lc;
      lc.backend = backend;
      lc.nranks = 4;
      launch(lc, [&](Rank& rank) {
        mpi::Comm comm(rank);
        mrgraph::GraphStats local = mrgraph::build_graph_mr(comm, run_config);
        if (rank.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          stats = std::move(local);
        }
      });
      if (first) {
        baseline_checksum = stats.edge_checksum;
        baseline_edges = stats.edges;
        EXPECT_GT(stats.edges, 0u);
        first = false;
      } else {
        EXPECT_EQ(stats.edge_checksum, baseline_checksum) << backend_name(backend);
        EXPECT_EQ(stats.edges, baseline_edges) << backend_name(backend);
      }
      if (mode.combiner) {
        EXPECT_GT(stats.shuffle_combined_bytes, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace mrbio::rt
