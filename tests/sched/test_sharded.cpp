// Sharded-ledger specifics of the fault-tolerant steal scheduler: ledger
// failover when a shard owner — including rank 0 — crashes permanently
// mid-map, exactly-once output across ledger_ranks shapes and heartbeat
// eviction, the event-driven endgame (parked askers woken on the commit,
// no poll-sized gap after the last task, lost, late and stale wakes
// harmless), and checkpoint integration (a full run journals every commit
// per shard; corrupting exactly one shard's journal re-executes only that
// shard's task range on resume).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mrmpi/mapreduce.hpp"
#include "obs/metrics.hpp"
#include "sched/internal.hpp"
#include "sched/sched.hpp"
#include "sim/engine.hpp"

namespace mrbio::mrmpi {
namespace {

struct ShardedRun {
  std::multiset<std::uint64_t> emitted;   ///< tasks present in the final kv
  std::multiset<std::uint64_t> executed;  ///< every map-fn invocation
  std::map<int, std::uint64_t> emitted_by_rank;
  std::vector<std::uint64_t> failed;
  MapReduceStats stats;  ///< summed across all ranks
  /// Virtual seconds from the end of the last task to the last rank's
  /// return from map().
  double endgame_gap = 0.0;
  std::uint64_t parks = 0;          ///< RetryLater answers an asker parked on
  std::uint64_t park_timeouts = 0;  ///< parks ended by the poll fallback
  fault::InjectorStats faults;
};

std::uint64_t counter(const obs::Registry& metrics, std::string_view name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Virtual seconds of compute charged by task `t`.
using CostFn = std::function<double(std::uint64_t)>;

CostFn flat_cost(double seconds) {
  return [seconds](std::uint64_t) { return seconds; };
}

/// 1 ms tasks with a 6 ms one every fifth task: ranks drain unevenly, so
/// askers meet RetryLater and park on owners whose long tasks still run.
double skewed_cost(std::uint64_t t) { return t % 5 == 4 ? 0.006 : 0.001; }

/// Runs `ntasks` self-emitting tasks on `n` ranks under the sharded steal
/// ledger (steal + ft.enabled), with full control of the FtConfig and an
/// optional checkpointer.
ShardedRun run_sharded(int n, std::uint64_t ntasks, const std::string& plan,
                       const sched::FtConfig& ft,
                       ckpt::Checkpointer* checkpointer = nullptr,
                       const CostFn& task_cost = flat_cost(0.01)) {
  fault::Injector injector(fault::FaultPlan::parse(plan));
  injector.plan().validate(n, /*checkpointing=*/checkpointer != nullptr,
                           /*master_failover=*/true);
  obs::Registry metrics;
  sim::EngineConfig ec;
  ec.nprocs = n;
  ec.stack_bytes = 512 * 1024;
  ec.metrics = &metrics;
  if (!plan.empty()) ec.injector = &injector;
  sim::Engine engine(ec);

  MapReduceConfig cfg;
  cfg.scheduler = sched::Policy::Steal;
  cfg.ft = ft;
  cfg.ft.enabled = true;
  cfg.checkpointer = checkpointer;

  ShardedRun out;
  std::mutex mu;
  double last_task_end = 0.0;
  double last_leave = 0.0;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    MapReduce mr(comm, cfg);
    mr.map(ntasks, [&](std::uint64_t t, KeyValue& kv) {
      {
        std::lock_guard<std::mutex> lock(mu);
        out.executed.insert(t);
      }
      comm.compute(task_cost(t));
      {
        std::lock_guard<std::mutex> lock(mu);
        last_task_end = std::max(last_task_end, comm.now());
      }
      kv.add("task", std::to_string(t));
    });
    std::lock_guard<std::mutex> lock(mu);
    last_leave = std::max(last_leave, comm.now());
    mr.kv().for_each([&](const KvPair& pair) {
      const std::string v(reinterpret_cast<const char*>(pair.value.data()),
                          pair.value.size());
      out.emitted.insert(std::stoull(v));
      out.emitted_by_rank[comm.rank()]++;
    });
    const MapReduceStats& s = mr.stats();
    out.stats.tasks_retried += s.tasks_retried;
    out.stats.worker_deaths += s.worker_deaths;
    out.stats.tasks_failed += s.tasks_failed;
    const std::vector<std::uint64_t> f = mr.failed_tasks();
    out.failed.insert(out.failed.end(), f.begin(), f.end());
  });
  out.endgame_gap = last_leave - last_task_end;
  out.parks = counter(metrics, "sched.parks");
  out.park_timeouts = counter(metrics, "sched.park_timeouts");
  out.faults = injector.stats();
  return out;
}

void expect_exactly_once(const ShardedRun& run, std::uint64_t ntasks) {
  EXPECT_EQ(run.emitted.size(), ntasks);
  for (std::uint64_t t = 0; t < ntasks; ++t) {
    EXPECT_EQ(run.emitted.count(t), 1u) << "task " << t;
  }
  EXPECT_TRUE(run.failed.empty());
}

// ---------------------------------------------------------------------------
// Ledger failover

TEST(Sharded, Rank0PermanentCrashFailsOverToSuccessor) {
  // Rank 0 owns the first ledger shard; its permanent death mid-map must
  // hand the shard to a deterministic successor that replays the commits
  // and keeps granting — every task still lands exactly once.
  sched::FtConfig ft;
  const ShardedRun run =
      run_sharded(4, 24, "crash:rank=0,t=0.05,mode=permanent", ft);
  expect_exactly_once(run, 24);
  EXPECT_GE(run.stats.worker_deaths, 1u);
  EXPECT_EQ(run.emitted_by_rank.count(0), 0u) << "a dead rank kept its kv";
}

TEST(Sharded, EveryRankCrashTargetFailsOver) {
  // No rank is special: the ledger protocol survives the permanent loss
  // of any single rank, not just the traditional master.
  for (int victim = 0; victim < 4; ++victim) {
    sched::FtConfig ft;
    const ShardedRun run = run_sharded(
        4, 24, "crash:rank=" + std::to_string(victim) + ",t=0.03,mode=permanent",
        ft);
    expect_exactly_once(run, 24);
    EXPECT_GE(run.stats.worker_deaths, 1u) << "victim " << victim;
  }
}

TEST(Sharded, LedgerRanksShapesSurviveACrash) {
  // ledger_ranks sweeps the custody spectrum: 1 = single coordinator,
  // P = fully decentralized, values between split custody. All shapes
  // must deliver exactly-once under the same mid-map crash.
  for (const int shards : {1, 2, 3, 0 /* = every rank */}) {
    sched::FtConfig ft;
    ft.ledger_ranks = shards;
    const ShardedRun run =
        run_sharded(4, 22, "crash:rank=2,t=0.05,mode=permanent", ft);
    expect_exactly_once(run, 22);
    EXPECT_GE(run.stats.worker_deaths, 1u) << "ledger_ranks " << shards;
  }
}

TEST(Sharded, HeartbeatEvictionKeepsExactlyOnce) {
  // With the phi-accrual detector on, a permanently dead rank is evicted
  // on suspicion (ahead of its task deadlines); eviction must never break
  // exactly-once or strand the dead rank's seeded range.
  sched::FtConfig ft;
  ft.heartbeat = fault::HeartbeatConfig::parse("interval=0.05,phi=4,samples=3");
  const ShardedRun run =
      run_sharded(4, 24, "crash:rank=1,t=0.06,mode=permanent", ft);
  expect_exactly_once(run, 24);
  EXPECT_GE(run.stats.worker_deaths, 1u);
}

TEST(Sharded, AdaptiveTimeoutRecoversACrash) {
  // task_timeout <= 0 selects the adaptive deadline (4 x observed p99);
  // recovery must still work when no explicit timeout was configured.
  sched::FtConfig ft;
  ft.task_timeout = 0.0;
  const ShardedRun run =
      run_sharded(4, 24, "crash:rank=3,t=0.05,mode=permanent", ft);
  expect_exactly_once(run, 24);
  EXPECT_GE(run.stats.worker_deaths, 1u);
}

// ---------------------------------------------------------------------------
// Endgame: waits end on their event, the poll deadline is only a fallback

TEST(Sharded, FaultFreeEndgameHasNoNap) {
  // Fault-free, every endgame wait ends on the event it waits for — the
  // last exit ack, the last exit — so the last rank leaves map() a small
  // fraction of one worker_poll after the last task ends. A poll-paced
  // endgame leaves a gap of about one poll.
  for (const int n : {3, 4, 8}) {
    for (const int shards : {0, 1, 2}) {
      sched::FtConfig ft;
      ft.ledger_ranks = shards;
      const ShardedRun run = run_sharded(n, 24, "", ft, nullptr, flat_cost(0.001));
      expect_exactly_once(run, 24);
      EXPECT_LT(run.endgame_gap, ft.worker_poll / 10)
          << n << " ranks, ledger_ranks " << shards;
    }
  }
}

TEST(Sharded, ParkedAskerWakesOnTheCommit) {
  // Skewed costs drain ranks unevenly, so askers meet RetryLater from
  // owners whose claimed tasks still run and park. The owner's wake on
  // the settling commit (or, parked on its own shards, their state) ends
  // every park: no park needs its poll fallback and the endgame keeps no
  // poll-sized gap.
  std::uint64_t parks = 0;
  for (const int n : {3, 4}) {
    for (const int shards : {0, 1, 2}) {
      sched::FtConfig ft;
      ft.ledger_ranks = shards;
      const ShardedRun run = run_sharded(n, 24, "", ft, nullptr, skewed_cost);
      expect_exactly_once(run, 24);
      EXPECT_LT(run.endgame_gap, ft.worker_poll / 10)
          << n << " ranks, ledger_ranks " << shards;
      EXPECT_EQ(run.park_timeouts, 0u) << n << " ranks, ledger_ranks " << shards;
      parks += run.parks;
    }
  }
  EXPECT_GT(parks, 0u) << "no asker parked: the test no longer covers wakes";
}

TEST(Sharded, LastFinishingOwnerSendsDeferredExitAcks) {
  // Five ranks, one ledger owner (rank 0), one 80 ms task. While rank 0's
  // worker still sweeps its victims, that task commits and settles the
  // ledger, so the parked ranks are woken, told Stop, and announce their
  // exits; rank 0 defers the acks until its own worker role ends. With no
  // other owner to exit to, everyone is already gone when its tail
  // starts. The tail must still send the deferred acks before it leaves
  // map(), or every other rank waits for them forever.
  sched::FtConfig ft;
  ft.ledger_ranks = 1;
  const ShardedRun run = run_sharded(5, 24, "", ft, nullptr, [](std::uint64_t t) {
    return t == 6 ? 0.08 : 0.001;
  });
  expect_exactly_once(run, 24);
  EXPECT_GT(run.parks, 0u);
  EXPECT_LT(run.endgame_gap, ft.worker_poll / 10);
}

/// Every message the fault-free run sends on the `ch` channel
/// ("src=S,dst=D"), counted through a matching no-op delay.
int channel_messages(int n, const std::string& ch, const sched::FtConfig& ft,
                     const CostFn& cost) {
  const ShardedRun probe = run_sharded(n, 24, "delay:" + ch + ",count=1000000,by=1e-9",
                                       ft, nullptr, cost);
  return static_cast<int>(probe.faults.messages_delayed);
}

/// Plan that delays only the k-th message (0-based) on `ch` by `by` seconds:
/// the earlier ones pass through a matching 1 ns delay first.
std::string delay_kth(const std::string& ch, int k, double by) {
  std::string plan;
  if (k > 0) plan = "delay:" + ch + ",count=" + std::to_string(k) + ",by=1e-9; ";
  return plan + "delay:" + ch + ",count=1,by=" + std::to_string(by);
}

TEST(Sharded, LostOrLateWakeFallsBackToTheTimedReask) {
  // The wake is a hint, never needed for correctness. On 3 ranks with
  // one ledger owner (rank 0) and skewed costs, askers park on rank 0.
  // Dropping the first k messages rank 0 sends an asker, or delaying the
  // k-th alone past the poll deadline, covers every wake on that channel:
  // each run must still emit every task exactly once, with a parked asker
  // whose wake is lost or late re-asking on its worker_poll fallback.
  sched::FtConfig ft;
  ft.ledger_ranks = 1;
  ASSERT_GT(run_sharded(3, 24, "", ft, nullptr, skewed_cost).parks, 0u);
  std::uint64_t park_timeouts = 0;
  for (const int asker : {1, 2}) {
    const std::string ch = "src=0,dst=" + std::to_string(asker);
    const int total = channel_messages(3, ch, ft, skewed_cost);
    ASSERT_GT(total, 0) << ch;
    for (int k = 0; k < total; ++k) {
      for (const std::string& plan : {"drop:" + ch + ",count=" + std::to_string(k + 1),
                                      delay_kth(ch, k, 4 * ft.worker_poll)}) {
        const ShardedRun run = run_sharded(3, 24, plan, ft, nullptr, skewed_cost);
        expect_exactly_once(run, 24);
        EXPECT_EQ(run.faults.messages_dropped + run.faults.messages_delayed,
                  static_cast<std::uint64_t>(k + 1))
            << plan;
        park_timeouts += run.park_timeouts;
      }
    }
  }
  EXPECT_GT(park_timeouts, 0u) << "no plan made a parked asker fall back";
}

TEST(Sharded, WakeFromAnEarlierMapIsIgnoredByItsEpoch) {
  // Channels are FIFO and an owner's Stop and exit ack follow its wake,
  // so a wake is consumed in its own map; one reaches the next map only
  // through a transport that reorders. Model that straggler: during map
  // 2, rank 0 re-sends map 1's wake (steal epochs count maps from 1) to
  // every other rank. Each must be dropped by its epoch — a wake carries
  // no ledger state, so accepting it could cost a round trip, never a
  // task — and both maps still emit every task exactly once.
  constexpr int kRanks = 3;
  constexpr std::uint64_t kTasks = 24;
  obs::Registry metrics;
  sim::EngineConfig ec;
  ec.nprocs = kRanks;
  ec.stack_bytes = 512 * 1024;
  ec.metrics = &metrics;
  sim::Engine engine(ec);
  MapReduceConfig cfg;
  cfg.scheduler = sched::Policy::Steal;
  cfg.ft.enabled = true;
  cfg.ft.ledger_ranks = 1;

  std::mutex mu;
  std::multiset<std::uint64_t> emitted;  ///< map * kTasks + task
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    MapReduce mr(comm, cfg);
    for (std::uint64_t m = 0; m < 2; ++m) {
      bool sent = false;
      mr.map(kTasks, [&](std::uint64_t t, KeyValue& kv) {
        if (m == 1 && comm.rank() == 0 && !sent) {
          for (int r = 1; r < kRanks; ++r) {
            comm.send_bytes(r, sched::kTagWake, sched::pack_wake(/*epoch=*/1));
          }
          sent = true;
        }
        comm.compute(skewed_cost(t));
        kv.add("task", std::to_string(m * kTasks + t));
      });
      std::lock_guard<std::mutex> lock(mu);
      mr.kv().for_each([&](const KvPair& pair) {
        const std::string v(reinterpret_cast<const char*>(pair.value.data()),
                            pair.value.size());
        emitted.insert(std::stoull(v));
      });
    }
  });
  EXPECT_EQ(emitted.size(), 2 * kTasks);
  for (std::uint64_t id = 0; id < 2 * kTasks; ++id) {
    EXPECT_EQ(emitted.count(id), 1u) << "map " << id / kTasks << " task " << id % kTasks;
  }
  EXPECT_EQ(counter(metrics, "sched.stale_wakes"), static_cast<std::uint64_t>(kRanks - 1));
}

// ---------------------------------------------------------------------------
// Shard journals under checkpointing

class ShardedCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mrbio_sharded_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ShardedCkptTest, CorruptingOneShardJournalReexecutesOnlyItsRange) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kTasks = 32;
  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;

  // Full fault-free run: every commit lands in its owner's shard journal.
  {
    ckpt::Checkpointer cp(cc, nullptr);
    cp.open("sharded corrupt");
    sched::FtConfig ft;
    const ShardedRun full = run_sharded(kRanks, kTasks, "", ft, &cp);
    expect_exactly_once(full, kTasks);
    EXPECT_EQ(full.executed.size(), kTasks);
  }
  for (int s = 0; s < kRanks; ++s) {
    ASSERT_TRUE(std::filesystem::exists(
        path("ckpt") + "/shard." + std::to_string(s) + ".c0.log"))
        << "shard " << s;
  }

  // Flip one byte near the front of shard 1's journal: the CRC framing
  // must reject the log, and only shard 1's task range may re-run.
  const std::string victim = path("ckpt") + "/shard.1.c0.log";
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
  cp.open("sharded corrupt");
  ASSERT_TRUE(cp.resuming());
  sched::FtConfig ft;
  const ShardedRun resumed = run_sharded(kRanks, kTasks, "", ft, &cp);
  expect_exactly_once(resumed, kTasks);

  // Degradation is contained: shard 1 lost (some of) its commits and its
  // tasks re-ran; every other shard's range was restored, not re-executed.
  const auto lo = sched::chunk_lo(kTasks, 1, kRanks);
  const auto hi = sched::chunk_hi(kTasks, 1, kRanks);
  EXPECT_FALSE(resumed.executed.empty())
      << "corruption went unnoticed: nothing re-ran";
  for (const std::uint64_t t : resumed.executed) {
    EXPECT_GE(t, lo) << "task outside the corrupted shard re-ran";
    EXPECT_LT(t, hi) << "task outside the corrupted shard re-ran";
    EXPECT_EQ(sched::shard_of(t, kTasks, kRanks), 1);
  }
}

TEST_F(ShardedCkptTest, Rank0CrashWithCheckpointStillCompletes) {
  // The acceptance shape: rank 0 dies permanently mid-map while the run
  // checkpoints; the shard successor replays rank 0's durable journal and
  // the job completes with every task exactly once.
  ckpt::CheckpointConfig cc;
  cc.dir = path("ckpt");
  cc.interval = 0.0;
  ckpt::Checkpointer cp(cc, nullptr);
  cp.open("sharded rank0");
  sched::FtConfig ft;
  const ShardedRun run =
      run_sharded(4, 24, "crash:rank=0,t=0.05,mode=permanent", ft, &cp);
  expect_exactly_once(run, 24);
  EXPECT_GE(run.stats.worker_deaths, 1u);
}

}  // namespace
}  // namespace mrbio::mrmpi
