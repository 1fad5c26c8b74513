// Integration tests of the MR-MPI BLAST application: the functional driver
// against the serial engine, the matrix-split invariants (per-query hits in
// exactly one output file, whole-DB statistics), and the simulated driver's
// load-balancing behaviour.
#include "mrblast/mrblast.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include <unistd.h>

namespace mrbio::mrblast {
namespace {

struct Testbed {
  std::filesystem::path dir;
  std::vector<blast::Sequence> genome;           ///< DB side
  std::vector<std::vector<blast::Sequence>> query_blocks;
  blast::DbInfo db;

  ~Testbed() { std::filesystem::remove_all(dir); }
};

/// Builds a small metagenomic-style testbed: a few "genomes" formatted into
/// several partitions, queries shredded from two of them plus noise.
Testbed make_testbed(std::uint64_t partition_residues = 1500) {
  static int counter = 0;
  Testbed tb;
  tb.dir = std::filesystem::temp_directory_path() /
           ("mrbio_mrblast_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
  std::filesystem::create_directories(tb.dir);

  Rng rng(77);
  for (int g = 0; g < 6; ++g) {
    tb.genome.push_back(
        blast::random_sequence(rng, "genome" + std::to_string(g), 900, blast::SeqType::Dna));
  }
  tb.db = blast::build_db(tb.genome, (tb.dir / "db").string(), blast::SeqType::Dna,
                          partition_residues);

  // Queries: fragments of genomes 0 and 3 (mutated a little) plus noise.
  std::vector<blast::Sequence> queries;
  const auto frags0 = blast::shred({tb.genome[0]}, 300, 100);
  const auto frags3 = blast::shred({tb.genome[3]}, 300, 100);
  for (const auto& f : frags0) queries.push_back(blast::mutate(rng, f, f.id, 0.03, blast::SeqType::Dna));
  for (const auto& f : frags3) queries.push_back(blast::mutate(rng, f, f.id, 0.03, blast::SeqType::Dna));
  queries.push_back(blast::random_sequence(rng, "noise1", 300, blast::SeqType::Dna));
  // Two blocks.
  const std::size_t half = queries.size() / 2;
  tb.query_blocks.emplace_back(queries.begin(), queries.begin() + static_cast<std::ptrdiff_t>(half));
  tb.query_blocks.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(half), queries.end());
  return tb;
}

blast::SearchOptions test_options() {
  blast::SearchOptions o;
  o.filter_low_complexity = false;
  o.evalue_cutoff = 1e-6;
  return o;
}

/// Parses all per-rank output files into query -> [(subject, evalue), ...].
std::map<std::string, std::vector<std::string>> parse_outputs(
    const std::vector<std::string>& files, std::map<std::string, std::string>* file_of_query =
                                               nullptr) {
  std::map<std::string, std::vector<std::string>> hits;
  for (const auto& path : files) {
    if (path.empty() || !std::filesystem::exists(path)) continue;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ss(line);
      std::string qid;
      std::string sid;
      ss >> qid >> sid;
      hits[qid].push_back(sid);
      if (file_of_query != nullptr) {
        auto [it, inserted] = file_of_query->emplace(qid, path);
        if (!inserted) {
          EXPECT_EQ(it->second, path) << "query " << qid << " split across files";
        }
      }
    }
  }
  return hits;
}

struct RunOutput {
  std::map<std::string, std::vector<std::string>> hits;
  std::map<std::string, std::string> file_of_query;
  std::uint64_t total_hsps = 0;
  double elapsed = 0.0;
};

RunOutput run_real(const Testbed& tb, int nprocs, const std::string& tag,
                   mrmpi::MapStyle style = mrmpi::MapStyle::MasterWorker,
                   std::size_t blocks_per_iteration = 0, obs::Registry* metrics = nullptr) {
  RealRunConfig config;
  config.query_blocks = tb.query_blocks;
  config.partition_paths = tb.db.volume_paths;
  config.options = test_options();
  config.output_dir = (tb.dir / ("out_" + tag)).string();
  config.map_style = style;
  config.blocks_per_iteration = blocks_per_iteration;

  sim::EngineConfig ec;
  ec.nprocs = nprocs;
  ec.metrics = metrics;
  sim::Engine engine(ec);
  std::vector<std::string> files(static_cast<std::size_t>(nprocs));
  std::uint64_t total = 0;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    const RealRunResult r = run_blast_mr(comm, config);
    files[static_cast<std::size_t>(p.rank())] = r.output_file;
    if (p.rank() == 0) total = r.total_hsps;
  });
  RunOutput out;
  out.hits = parse_outputs(files, &out.file_of_query);
  out.total_hsps = total;
  out.elapsed = engine.elapsed();
  return out;
}

TEST(MrBlastReal, FindsPlantedHomologsAcrossPartitions) {
  const Testbed tb = make_testbed();
  ASSERT_GT(tb.db.volume_paths.size(), 2u);  // really a matrix split
  const RunOutput out = run_real(tb, 4, "basic");

  EXPECT_GT(out.total_hsps, 0u);
  // Every shredded fragment of genome0 must find genome0.
  for (const auto& block : tb.query_blocks) {
    for (const auto& q : block) {
      if (q.id.rfind("genome0/", 0) == 0) {
        ASSERT_TRUE(out.hits.count(q.id)) << q.id;
        EXPECT_EQ(out.hits.at(q.id).front(), "genome0") << q.id;
      }
    }
  }
  // The pure-noise query found nothing at this cutoff.
  EXPECT_EQ(out.hits.count("noise1"), 0u);
}

TEST(MrBlastReal, MatchesSerialSingleRankRun) {
  const Testbed tb = make_testbed();
  const RunOutput parallel = run_real(tb, 5, "par");
  const RunOutput serial = run_real(tb, 1, "ser");
  EXPECT_EQ(parallel.total_hsps, serial.total_hsps);
  ASSERT_EQ(parallel.hits.size(), serial.hits.size());
  for (const auto& [qid, subjects] : serial.hits) {
    ASSERT_TRUE(parallel.hits.count(qid)) << qid;
    EXPECT_EQ(parallel.hits.at(qid), subjects) << qid;
  }
}

TEST(MrBlastReal, MatchesUnpartitionedSearch) {
  // The matrix split plus whole-DB length override must reproduce what a
  // single searcher over one unpartitioned volume reports.
  const Testbed tb = make_testbed();
  const Testbed whole = [&] {
    Testbed w;
    static int c2 = 1000;
    w.dir = std::filesystem::temp_directory_path() / ("mrbio_whole_" + std::to_string(::getpid()) + "_" + std::to_string(c2++));
    std::filesystem::create_directories(w.dir);
    w.genome = tb.genome;
    w.query_blocks = tb.query_blocks;
    w.db = blast::build_db(w.genome, (w.dir / "db").string(), blast::SeqType::Dna,
                           1ull << 40);  // single volume
    return w;
  }();
  ASSERT_EQ(whole.db.volume_paths.size(), 1u);

  const RunOutput split = run_real(tb, 4, "split");
  const RunOutput unsplit = run_real(whole, 4, "unsplit");
  EXPECT_EQ(split.total_hsps, unsplit.total_hsps);
  for (const auto& [qid, subjects] : unsplit.hits) {
    ASSERT_TRUE(split.hits.count(qid)) << qid;
    EXPECT_EQ(split.hits.at(qid).front(), subjects.front()) << qid;
  }
}

TEST(MrBlastReal, EachQuerysHitsInExactlyOneFile) {
  // Paper: "the hits for each query located in only one file".
  const Testbed tb = make_testbed();
  const RunOutput out = run_real(tb, 6, "onefile");
  EXPECT_FALSE(out.file_of_query.empty());
  // parse_outputs already asserts one file per query; additionally check
  // hits spread across more than one rank file (really distributed).
  std::set<std::string> files_used;
  for (const auto& [q, f] : out.file_of_query) files_used.insert(f);
  EXPECT_GT(files_used.size(), 1u);
}

TEST(MrBlastReal, MultiIterationMatchesSingleCycle) {
  // Paper: multiple MapReduce iterations over query subsets bound the
  // intermediate KV size without changing results.
  const Testbed tb = make_testbed();
  const RunOutput one_cycle = run_real(tb, 3, "cycle1", mrmpi::MapStyle::MasterWorker, 0);
  const RunOutput per_block = run_real(tb, 3, "cycleN", mrmpi::MapStyle::MasterWorker, 1);
  EXPECT_EQ(one_cycle.total_hsps, per_block.total_hsps);
  EXPECT_EQ(one_cycle.hits, per_block.hits);
}

TEST(MrBlastReal, ChunkStyleSameResults) {
  const Testbed tb = make_testbed();
  const RunOutput mw = run_real(tb, 4, "mw", mrmpi::MapStyle::MasterWorker);
  const RunOutput chunk = run_real(tb, 4, "chunk", mrmpi::MapStyle::Chunk);
  EXPECT_EQ(mw.total_hsps, chunk.total_hsps);
  EXPECT_EQ(mw.hits, chunk.hits);
}

TEST(MrBlastReal, DeterministicAcrossRuns) {
  const Testbed tb = make_testbed();
  const RunOutput a = run_real(tb, 4, "det_a");
  const RunOutput b = run_real(tb, 4, "det_b");
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(MrBlastReal, SearchStatsReachMetricsRegistry) {
  // The engine's pipeline counters leave last_stats() through the
  // registry: summed over the run, they equal a serial search of every
  // (block, partition) pair under the same whole-database statistics.
  const Testbed tb = make_testbed();
  blast::SearchOptions options = test_options();
  std::vector<std::shared_ptr<const blast::DbVolume>> volumes;
  for (const auto& path : tb.db.volume_paths) {
    volumes.push_back(std::make_shared<blast::DbVolume>(blast::DbVolume::load(path)));
    options.effective_db_length += volumes.back()->residues();
    options.effective_db_seqs += volumes.back()->num_seqs();
  }
  blast::SearchStats want;
  for (const auto& block : tb.query_blocks) {
    for (const auto& volume : volumes) {
      const blast::BlastSearcher searcher(volume, options);
      searcher.search(block);
      const blast::SearchStats& st = searcher.last_stats();
      want.word_hits += st.word_hits;
      want.ungapped_extensions += st.ungapped_extensions;
      want.gapped_extensions += st.gapped_extensions;
      want.hsps_reported += st.hsps_reported;
    }
  }
  ASSERT_GT(want.hsps_reported, 0u);

  obs::Registry registry;
  run_real(tb, 4, "stats", mrmpi::MapStyle::MasterWorker, 0, &registry);
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    const obs::Counter* c = registry.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  EXPECT_EQ(counter("blast.word_hits"), want.word_hits);
  EXPECT_EQ(counter("blast.ungapped_extensions"), want.ungapped_extensions);
  EXPECT_EQ(counter("blast.gapped_extensions"), want.gapped_extensions);
  EXPECT_EQ(counter("blast.hsps_reported"), want.hsps_reported);
}

// ---- simulated driver ----

double run_sim_elapsed(int cores, const SimRunConfig& config, SimRunStats* stats_out = nullptr) {
  sim::EngineConfig ec;
  ec.nprocs = cores;
  ec.stack_bytes = 256 * 1024;
  sim::Engine engine(ec);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    const SimRunStats st = run_blast_sim(comm, config);
    if (p.rank() == 0 && stats_out != nullptr) *stats_out = st;
  });
  return engine.elapsed();
}

workload::BlastWorkloadConfig sim_workload() {
  workload::BlastWorkloadConfig c;
  c.total_queries = 4'000;
  c.queries_per_block = 500;
  c.db_partitions = 12;
  c.mean_seconds_per_query = 0.02;
  return c;
}

TEST(MrBlastSim, ScalesWithCores) {
  SimRunConfig config;
  config.workload = sim_workload();
  const double t4 = run_sim_elapsed(4, config);
  const double t16 = run_sim_elapsed(16, config);
  EXPECT_LT(t16, t4 / 2.0);
}

TEST(MrBlastSim, TotalHitsIndependentOfCores) {
  SimRunConfig config;
  config.workload = sim_workload();
  SimRunStats s4;
  SimRunStats s16;
  run_sim_elapsed(4, config, &s4);
  run_sim_elapsed(16, config, &s16);
  EXPECT_EQ(s4.total_hits, s16.total_hits);
  EXPECT_GT(s4.total_hits, 0u);
}

TEST(MrBlastSim, MasterWorkerBeatsChunkOnHeavyTail) {
  SimRunConfig mw;
  mw.workload = sim_workload();
  mw.workload.lognormal_sigma = 1.5;  // strong stragglers
  SimRunConfig chunk = mw;
  chunk.map_style = mrmpi::MapStyle::Chunk;
  const double t_mw = run_sim_elapsed(8, mw);
  const double t_chunk = run_sim_elapsed(8, chunk);
  EXPECT_LT(t_mw, t_chunk);
}

TEST(MrBlastSim, UtilizationTracksTaperingOff) {
  SimRunConfig config;
  config.workload = sim_workload();
  workload::UtilizationTracker tracker;
  config.tracker = &tracker;
  const double elapsed = run_sim_elapsed(8, config);
  const auto series = tracker.series(elapsed / 20.0, 8);
  ASSERT_GE(series.size(), 10u);
  // Mid-run utilization is high; the final bucket (stragglers) is lower.
  const double mid = series[series.size() / 2];
  EXPECT_GT(mid, 0.5);
  EXPECT_LT(series.back(), mid);
}

TEST(MrBlastSim, FailedTasksAreCountedOnEveryShardOwner) {
  // Steal-ft records a task that exhausted its retries on the owner of
  // the task's shard, which need not be rank 0, and every rank must see
  // the job's count. Six units on 3 ranks, one shard per rank; rank 2's
  // two units take 10 s each. Rank 2's transient crash on its first unit
  // frees both; rank 0, drained, is granted one with a 0.3 s deadline and
  // no retries, so the shard's owner fails it, and rank 0's permanent
  // crash ensures no late completion rescues it. The registry's
  // ft.tasks_failed counts that one task, not every expiry of it.
  SimRunConfig config;
  config.workload.total_queries = 24;
  config.workload.block_sizes = {1, 1, 1, 1, 10, 10};
  config.workload.db_partitions = 1;
  config.workload.mean_seconds_per_query = 1.0;
  config.workload.lognormal_sigma = 0.0;
  config.workload.outlier_prob = 0.0;
  config.workload.cold_load_seconds = 0.0;
  config.workload.warm_load_seconds = 0.0;
  config.scheduler = sched::Policy::Steal;
  config.ft.enabled = true;
  config.ft.max_retries = 0;
  config.ft.task_timeout = 0.3;
  fault::Injector injector(
      fault::FaultPlan::parse("crash:rank=2,task=1; crash:rank=0@t=5,mode=permanent"));
  injector.plan().validate(3, /*checkpointing=*/false, /*master_failover=*/true);
  sim::EngineConfig ec;
  ec.nprocs = 3;
  ec.stack_bytes = 256 * 1024;
  ec.injector = &injector;
  obs::Registry registry;
  ec.metrics = &registry;
  sim::Engine engine(ec);
  std::vector<std::uint64_t> reported(3, 0);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    const SimRunStats st = run_blast_sim(comm, config);
    reported[static_cast<std::size_t>(p.rank())] = st.failed_tasks;
  });
  EXPECT_GE(injector.stats().crashes_fired, 2u);
  for (std::size_t r = 0; r < reported.size(); ++r) {
    EXPECT_EQ(reported[r], 1u) << "rank " << r;
  }
  const obs::Counter* failed = registry.find_counter("ft.tasks_failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->value(), 1u);
}

TEST(MrBlastSim, DeterministicElapsed) {
  SimRunConfig config;
  config.workload = sim_workload();
  const double t1 = run_sim_elapsed(8, config);
  const double t2 = run_sim_elapsed(8, config);
  EXPECT_DOUBLE_EQ(t1, t2);
}

}  // namespace
}  // namespace mrbio::mrblast
