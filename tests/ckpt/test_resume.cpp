// End-to-end checkpoint/restart: a job killed mid-run by a kill: fault and
// restarted with resume must produce byte-identical BLAST hit files and
// SOM codebooks while re-executing only the uncommitted tail (verified
// through the ckpt.* counters), and a corrupted checkpoint must degrade
// to recomputation — never to a crash or silently different output.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blast/dbformat.hpp"
#include "blast/sequence.hpp"
#include "ckpt/ckpt.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mrblast/mrblast.hpp"
#include "mrsom/mrsom.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"
#include "sched/sched.hpp"
#include "som/som.hpp"

namespace mrbio {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid: ctest -j runs each test case as its own process, so a
    // plain static counter would collide on the same /tmp path.
    static int counter = 0;
    dir_ = std::filesystem::temp_directory_path() /
           ("mrbio_resume_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// ---------- BLAST ----------

constexpr int kRanks = 4;

struct BlastBed {
  std::vector<std::vector<blast::Sequence>> query_blocks;
  blast::DbInfo db;
};

BlastBed make_blast_bed(const std::string& db_base) {
  BlastBed bed;
  Rng rng(77);
  std::vector<blast::Sequence> genome;
  for (int g = 0; g < 4; ++g) {
    genome.push_back(blast::random_sequence(rng, "genome" + std::to_string(g), 700,
                                            blast::SeqType::Dna));
  }
  bed.db = blast::build_db(genome, db_base, blast::SeqType::Dna, 1200);
  std::vector<blast::Sequence> queries;
  for (const auto& f : blast::shred({genome[0], genome[2]}, 250, 100)) {
    queries.push_back(blast::mutate(rng, f, f.id, 0.02, blast::SeqType::Dna));
  }
  // One query per block: many small work units keep the workers' kill-poll
  // times densely staggered, so a mid-run kill always lands on a poll
  // (uniform multi-query blocks synchronize into just two poll waves).
  for (std::size_t i = 0; i < queries.size(); ++i) {
    bed.query_blocks.push_back({queries[i]});
  }
  return bed;
}

mrblast::RealRunConfig blast_config(const BlastBed& bed, const std::string& out_dir) {
  mrblast::RealRunConfig config;
  config.query_blocks = bed.query_blocks;
  config.partition_paths = bed.db.volume_paths;
  config.options.filter_low_complexity = false;
  config.options.evalue_cutoff = 1e-6;
  config.output_dir = out_dir;
  // Large enough that the map phase dominates the virtual timeline: kill
  // polls happen at task starts, so a mid-run kill time must land while
  // tasks are still being dispatched.
  config.virtual_seconds_per_cell = 1e-7;
  return config;
}

struct BlastRun {
  double elapsed = 0.0;
  double task_work = 0.0;  ///< total map-task compute across ranks (virtual s)
  bool killed = false;
  std::uint64_t map_tasks = 0;
  std::uint64_t tasks_restored = 0;
};

BlastRun run_blast(const mrblast::RealRunConfig& config, fault::Injector* injector,
                   rt::Backend backend = rt::Backend::Sim) {
  rt::LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = kRanks;
  lc.injector = injector;
  lc.checkpointing = config.checkpointer != nullptr;
  obs::Registry registry;
  lc.metrics = &registry;
  BlastRun out;
  try {
    const rt::LaunchResult run =
        rt::launch(lc, [&](rt::Rank& rank) {
          mpi::Comm comm(rank);
          (void)mrblast::run_blast_mr(comm, config);
        });
    out.elapsed = run.elapsed;
  } catch (const Error&) {
    out.killed = true;
    EXPECT_NE(injector, nullptr) << "fault-free run threw";
    if (injector != nullptr) {
      EXPECT_GE(injector->stats().kills_fired, 1u);
    }
  }
  if (const obs::Counter* c = registry.find_counter("mrmpi.map_tasks")) {
    out.map_tasks = c->value();
  }
  if (const obs::Histogram* h = registry.find_histogram("mrmpi.task_seconds")) {
    out.task_work = h->sum();
  }
  if (const obs::Counter* c = registry.find_counter("ckpt.tasks_restored")) {
    out.tasks_restored = c->value();
  }
  return out;
}

std::vector<std::string> hit_files(const std::string& out_dir) {
  std::vector<std::string> files;
  for (int r = 0; r < kRanks; ++r) {
    files.push_back(out_dir + "/hits." + std::to_string(r) + ".tsv");
  }
  return files;
}

void expect_same_hits(const std::string& clean_dir, const std::string& resumed_dir) {
  const auto clean = hit_files(clean_dir);
  const auto resumed = hit_files(resumed_dir);
  for (int r = 0; r < kRanks; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    EXPECT_EQ(std::filesystem::exists(clean[i]), std::filesystem::exists(resumed[i]))
        << "rank " << r;
    EXPECT_EQ(slurp(clean[i]), slurp(resumed[i])) << "rank " << r;
  }
}

TEST_F(ResumeTest, BlastKillResumeIsByteIdenticalAndSkipsCommittedTasks) {
  const BlastBed bed = make_blast_bed(path("db"));

  auto clean_config = blast_config(bed, path("out_clean"));
  const BlastRun clean = run_blast(clean_config, nullptr);
  ASSERT_FALSE(clean.killed);
  ASSERT_GT(clean.map_tasks, 0u);

  // Kill mid-run with map-log flushes after every task.
  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(
      fault::FaultPlan::parse("kill:t=" + std::to_string(clean.elapsed * 0.5)));
  auto config = blast_config(bed, path("out_resumed"));
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast test");
    config.checkpointer = &cp;
    const BlastRun killed = run_blast(config, &killer);
    ASSERT_TRUE(killed.killed);
  }

  // Resume without faults: identical bytes, and only the tail re-ran.
  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast test");
  ASSERT_TRUE(cp.resuming());
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr);
  ASSERT_FALSE(resumed.killed);

  expect_same_hits(path("out_clean"), path("out_resumed"));
  EXPECT_GT(resumed.tasks_restored, 0u) << "kill fired before any task committed";
  EXPECT_LT(resumed.map_tasks, clean.map_tasks);
  EXPECT_EQ(resumed.map_tasks + resumed.tasks_restored, clean.map_tasks);
  cp.cleanup_on_success();
  EXPECT_FALSE(std::filesystem::exists(path("ckpt")));
}

TEST_F(ResumeTest, BlastStealSchedulerKillResumeIsByteIdentical) {
  // Same kill -> resume cycle under the work-stealing scheduler: hits are
  // shuffled to deterministic ranks before writing, so the output must
  // match a clean master-worker run byte for byte even though the
  // task -> rank placement differs, and resuming must skip the committed
  // prefix (restored tasks are excluded from the deque seeds and claimed
  // as done in the shared ledger).
  const BlastBed bed = make_blast_bed(path("db"));

  auto clean_config = blast_config(bed, path("out_clean"));
  const BlastRun clean = run_blast(clean_config, nullptr);
  ASSERT_FALSE(clean.killed);

  // Kill polls only fire at task starts, and under steal the map window
  // is much shorter than the job elapsed (all ranks run tasks, and token
  // termination idles the tail), so a fraction of any run's elapsed can
  // land after the last task start and never fire. Half the ideal map
  // makespan — total task work spread over every rank — is mid-map by
  // construction.
  auto probe_config = blast_config(bed, path("out_probe"));
  probe_config.scheduler = sched::Policy::Steal;
  const BlastRun probe = run_blast(probe_config, nullptr);
  ASSERT_FALSE(probe.killed);
  ASSERT_GT(probe.task_work, 0.0);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(fault::FaultPlan::parse(
      "kill:t=" + std::to_string(0.5 * probe.task_work / kRanks)));
  auto config = blast_config(bed, path("out_resumed"));
  config.scheduler = sched::Policy::Steal;
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast steal");
    config.checkpointer = &cp;
    const BlastRun killed = run_blast(config, &killer);
    ASSERT_TRUE(killed.killed);
  }

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast steal");
  ASSERT_TRUE(cp.resuming());
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr);
  ASSERT_FALSE(resumed.killed);

  expect_same_hits(path("out_clean"), path("out_resumed"));
  EXPECT_GT(resumed.tasks_restored, 0u) << "kill fired before any task committed";
  EXPECT_LT(resumed.map_tasks, clean.map_tasks);
}

TEST_F(ResumeTest, BlastNativeAutoKillResumeIsByteIdentical) {
  // On native ranks auto runs steal, and a checkpoint dir gives it the
  // sharded ledger's journals: a killed job must resume to the DES
  // master run's bytes. Wall-clock kill times are not reproducible, so
  // the kill moves earlier until one fires mid-run.
  const BlastBed bed = make_blast_bed(path("db"));
  const BlastRun clean = run_blast(blast_config(bed, path("out_clean")), nullptr);
  ASSERT_FALSE(clean.killed);
  const BlastRun probe =
      run_blast(blast_config(bed, path("out_probe")), nullptr, rt::Backend::Native);
  ASSERT_FALSE(probe.killed);
  expect_same_hits(path("out_clean"), path("out_probe"));

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  auto config = blast_config(bed, path("out_resumed"));
  bool killed = false;
  for (double frac = 0.5; !killed && frac > 1e-3; frac /= 4) {
    std::filesystem::remove_all(cc.dir);
    fault::Injector killer(
        fault::FaultPlan::parse("kill:t=" + std::to_string(frac * probe.elapsed)));
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast native auto");
    config.checkpointer = &cp;
    killed = run_blast(config, &killer, rt::Backend::Native).killed;
  }
  ASSERT_TRUE(killed) << "no kill time landed inside the native run";

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast native auto");
  ASSERT_TRUE(cp.resuming());
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr, rt::Backend::Native);
  ASSERT_FALSE(resumed.killed);
  expect_same_hits(path("out_clean"), path("out_resumed"));
}

TEST_F(ResumeTest, BlastShardCorruptionDegradesOnlyThatShard) {
  // Kill a sharded-ledger steal run mid-map, then flip a byte in exactly
  // one shard's commit journal before resuming. The CRC framing must
  // reject the damaged tail, the lost range must recompute, the other
  // shards' commits must still restore, and the final hits must stay
  // byte-identical to the fault-free run.
  const BlastBed bed = make_blast_bed(path("db"));

  auto clean_config = blast_config(bed, path("out_clean"));
  const BlastRun clean = run_blast(clean_config, nullptr);
  ASSERT_FALSE(clean.killed);

  auto probe_config = blast_config(bed, path("out_probe"));
  probe_config.scheduler = sched::Policy::Steal;
  probe_config.ft.enabled = true;
  const BlastRun probe = run_blast(probe_config, nullptr);
  ASSERT_FALSE(probe.killed);
  ASSERT_GT(probe.task_work, 0.0);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(fault::FaultPlan::parse(
      "kill:t=" + std::to_string(0.5 * probe.task_work / kRanks)));
  auto config = blast_config(bed, path("out_resumed"));
  config.scheduler = sched::Policy::Steal;
  config.ft.enabled = true;
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast shard corrupt");
    config.checkpointer = &cp;
    const BlastRun killed = run_blast(config, &killer);
    ASSERT_TRUE(killed.killed);
  }

  // Corrupt the busiest shard journal: the one with the most committed
  // bytes loses the most work, making the containment check meaningful.
  std::filesystem::path victim;
  std::uintmax_t victim_size = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path("ckpt"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard.", 0) == 0 && entry.file_size() > victim_size) {
      victim = entry.path();
      victim_size = entry.file_size();
    }
  }
  ASSERT_FALSE(victim.empty()) << "kill fired before any shard journal existed";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(8);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(8);
    f.write(&b, 1);
  }

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast shard corrupt");
  ASSERT_TRUE(cp.resuming());
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr);
  ASSERT_FALSE(resumed.killed);

  expect_same_hits(path("out_clean"), path("out_resumed"));
  // The undamaged shards still restored their commits...
  EXPECT_GT(resumed.tasks_restored, 0u)
      << "corrupting one shard wiped every shard's commits";
  // ...while the corrupted shard's range (at least) re-executed.
  EXPECT_GT(resumed.map_tasks, 0u);
  EXPECT_EQ(resumed.map_tasks + resumed.tasks_restored, clean.map_tasks);
}

TEST_F(ResumeTest, BlastResumeSurvivesCorruptMapLogs) {
  const BlastBed bed = make_blast_bed(path("db"));
  auto clean_config = blast_config(bed, path("out_clean"));
  const BlastRun clean = run_blast(clean_config, nullptr);
  ASSERT_FALSE(clean.killed);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(fault::FaultPlan::parse(
      "kill:t=" + std::to_string(clean.elapsed * 0.6) + "; corrupt:target=map,count=2"));
  auto config = blast_config(bed, path("out_resumed"));
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast test");
    config.checkpointer = &cp;
    const BlastRun killed = run_blast(config, &killer);
    ASSERT_TRUE(killed.killed);
  }
  EXPECT_EQ(killer.stats().checkpoints_corrupted, 2u);

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast test");
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr);
  ASSERT_FALSE(resumed.killed);
  // The two flipped records were detected and their tasks re-ran; output
  // bytes are still exactly the fault-free ones.
  EXPECT_GE(cp.stats().corrupt_records, 1u);
  expect_same_hits(path("out_clean"), path("out_resumed"));
}

TEST_F(ResumeTest, BlastCycleLedgerResumeSkipsCommittedCycles) {
  const BlastBed bed = make_blast_bed(path("db"));
  auto clean_config = blast_config(bed, path("out_clean"));
  clean_config.blocks_per_iteration = 2;
  const BlastRun clean = run_blast(clean_config, nullptr);
  ASSERT_FALSE(clean.killed);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  fault::Injector killer(
      fault::FaultPlan::parse("kill:t=" + std::to_string(clean.elapsed * 0.7)));
  auto config = blast_config(bed, path("out_resumed"));
  config.blocks_per_iteration = 2;
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("blast cycles");
    config.checkpointer = &cp;
    const BlastRun killed = run_blast(config, &killer);
    ASSERT_TRUE(killed.killed);
  }

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("blast cycles");
  EXPECT_FALSE(cp.ledger_records().empty())
      << "kill fired before the first cycle committed; lower the kill time";
  config.checkpointer = &cp;
  const BlastRun resumed = run_blast(config, nullptr);
  ASSERT_FALSE(resumed.killed);
  expect_same_hits(path("out_clean"), path("out_resumed"));
}

// ---------- SOM ----------

som::Codebook run_som(const MatrixView& data, const som::Codebook& initial,
                      mrsom::ParallelSomConfig& config, fault::Injector* injector,
                      bool* killed, double* elapsed = nullptr) {
  rt::LaunchConfig lc;
  lc.backend = rt::Backend::Sim;
  lc.nranks = kRanks;
  lc.injector = injector;
  lc.checkpointing = config.checkpointer != nullptr;
  som::Codebook cb;
  *killed = false;
  try {
    const rt::LaunchResult run = rt::launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      som::Codebook trained = mrsom::train_som_mr(comm, data, initial, config);
      if (rank.rank() == 0) cb = std::move(trained);
    });
    if (elapsed != nullptr) *elapsed = run.elapsed;
  } catch (const Error&) {
    *killed = true;
    EXPECT_NE(injector, nullptr) << "fault-free run threw";
  }
  return cb;
}

struct SomBed {
  Matrix data;
  som::Codebook initial;
  mrsom::ParallelSomConfig config;

  SomBed() : initial(som::SomGrid{4, 4}, 8) {
    Rng rng(2011);
    data = Matrix(96, 8);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      for (float& v : data.row(i)) v = static_cast<float>(rng.uniform());
    }
    initial.init_pca(data.view());
    config.params.epochs = 4;
    config.block_vectors = 8;
    config.map_style = mrmpi::MapStyle::Chunk;
    config.flop_seconds = 2e-8;
  }
};

TEST_F(ResumeTest, SomKillResumeCodebookIsByteIdentical) {
  SomBed bed;
  bool killed = false;
  double elapsed = 0.0;
  const som::Codebook clean =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed, &elapsed);
  ASSERT_FALSE(killed);
  ASSERT_GT(elapsed, 0.0);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(
      fault::FaultPlan::parse("kill:t=" + std::to_string(elapsed * 0.5)));
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("som test");
    bed.config.checkpointer = &cp;
    (void)run_som(bed.data.view(), bed.initial, bed.config, &killer, &killed);
    ASSERT_TRUE(killed);
  }

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("som test");
  ASSERT_TRUE(cp.resuming());
  bed.config.checkpointer = &cp;
  const som::Codebook resumed =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed);
  ASSERT_FALSE(killed);

  ASSERT_EQ(resumed.weights().rows(), clean.weights().rows());
  ASSERT_EQ(resumed.weights().cols(), clean.weights().cols());
  EXPECT_EQ(std::memcmp(resumed.weights().data(), clean.weights().data(),
                        clean.weights().rows() * clean.weights().cols() * sizeof(float)),
            0)
      << "resumed codebook differs from the fault-free run";
}

TEST_F(ResumeTest, SomCorruptSnapshotDegradesToRetraining) {
  SomBed bed;
  bool killed = false;
  double elapsed = 0.0;
  const som::Codebook clean =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed, &elapsed);
  ASSERT_FALSE(killed);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  fault::Injector killer(fault::FaultPlan::parse(
      "kill:t=" + std::to_string(elapsed * 0.6) + "; corrupt:target=snapshot,count=1"));
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("som test");
    bed.config.checkpointer = &cp;
    (void)run_som(bed.data.view(), bed.initial, bed.config, &killer, &killed);
    ASSERT_TRUE(killed);
  }
  ASSERT_EQ(killer.stats().checkpoints_corrupted, 1u);

  // The flipped snapshot fails its CRC on load: training silently falls
  // back to epoch 0 and still converges to the fault-free codebook.
  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("som test");
  bed.config.checkpointer = &cp;
  const som::Codebook resumed =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed);
  ASSERT_FALSE(killed);
  EXPECT_EQ(std::memcmp(resumed.weights().data(), clean.weights().data(),
                        clean.weights().rows() * clean.weights().cols() * sizeof(float)),
            0);
}

TEST_F(ResumeTest, SomDeterministicMasterWorkerMidEpochResume) {
  SomBed bed;
  bed.config.map_style = mrmpi::MapStyle::MasterWorker;
  bed.config.deterministic_reduce = true;
  bool killed = false;
  double elapsed = 0.0;
  const som::Codebook clean =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed, &elapsed);
  ASSERT_FALSE(killed);

  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  fault::Injector killer(
      fault::FaultPlan::parse("kill:t=" + std::to_string(elapsed * 0.5)));
  {
    ckpt::Checkpointer cp(cc, &killer);
    cp.open("som det");
    bed.config.checkpointer = &cp;
    (void)run_som(bed.data.view(), bed.initial, bed.config, &killer, &killed);
    ASSERT_TRUE(killed);
  }

  cc.resume = true;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("som det");
  bed.config.checkpointer = &cp;
  const som::Codebook resumed =
      run_som(bed.data.view(), bed.initial, bed.config, nullptr, &killed);
  ASSERT_FALSE(killed);
  EXPECT_EQ(std::memcmp(resumed.weights().data(), clean.weights().data(),
                        clean.weights().rows() * clean.weights().cols() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace mrbio
