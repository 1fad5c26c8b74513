// The decentralized work-stealing scheduler: exactly-once execution and
// token termination across rank counts and edge cases (zero tasks, fewer
// tasks than ranks, a single task), an endgame that ends one token round
// after the last task on both backends, byte-identical pipeline output
// against the static and master-worker schedulers, load rebalancing off
// static stragglers, and — with the ledger backstop enabled — recovery
// from crashes and lossy protocol traffic, deterministic under a fixed
// plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mrmpi/mapreduce.hpp"
#include "obs/metrics.hpp"
#include "rt/backend.hpp"
#include "sched/sched.hpp"
#include "sim/engine.hpp"

namespace mrbio::mrmpi {
namespace {

std::string to_string(std::span<const std::byte> s) {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

struct StealRun {
  std::multiset<std::uint64_t> emitted;   ///< tasks present in the final kv
  std::multiset<std::uint64_t> executed;  ///< every map-fn invocation
  std::map<int, std::uint64_t> emitted_by_rank;
  std::vector<std::uint64_t> failed;  ///< rank 0's failed-task report
  MapReduceStats stats;               ///< summed across all ranks
  double elapsed = 0.0;
};

/// Runs `ntasks` self-emitting map tasks on `n` simulated ranks with the
/// given scheduler, optionally under a fault plan (which enables the
/// ledger backstop via cfg.ft).
StealRun run_sched(int n, std::uint64_t ntasks, sched::Policy policy,
                   const std::string& plan = "", bool ft = false,
                   double task_cost = 0.01,
                   const std::function<double(std::uint64_t)>& cost_fn = nullptr) {
  fault::Injector injector(fault::FaultPlan::parse(plan));
  injector.plan().validate(n);
  sim::EngineConfig ec;
  ec.nprocs = n;
  ec.stack_bytes = 512 * 1024;
  if (!plan.empty()) ec.injector = &injector;
  sim::Engine engine(ec);

  MapReduceConfig cfg;
  cfg.scheduler = policy;
  cfg.ft.enabled = ft;

  StealRun out;
  std::mutex mu;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    MapReduce mr(comm, cfg);
    mr.map(ntasks, [&](std::uint64_t t, KeyValue& kv) {
      {
        std::lock_guard<std::mutex> lock(mu);
        out.executed.insert(t);
      }
      const double c = cost_fn ? cost_fn(t) : task_cost;
      if (c > 0.0) comm.compute(c);
      kv.add("task", std::to_string(t));
    });
    std::lock_guard<std::mutex> lock(mu);
    mr.kv().for_each([&](const KvPair& pair) {
      const std::string v(reinterpret_cast<const char*>(pair.value.data()),
                          pair.value.size());
      out.emitted.insert(std::stoull(v));
      out.emitted_by_rank[comm.rank()]++;
    });
    // Steal counters live on the rank that stole; ledger counters are
    // sharded — deaths on the rank that crashed, retries/failures on the
    // owner of the task's shard — so every ledger stat is summed too.
    const MapReduceStats& s = mr.stats();
    out.stats.steals_attempted += s.steals_attempted;
    out.stats.steals_succeeded += s.steals_succeeded;
    out.stats.tasks_stolen += s.tasks_stolen;
    out.stats.tasks_retried += s.tasks_retried;
    out.stats.worker_deaths += s.worker_deaths;
    out.stats.tasks_failed += s.tasks_failed;
    const std::vector<std::uint64_t> f = mr.failed_tasks();
    out.failed.insert(out.failed.end(), f.begin(), f.end());
  });
  out.elapsed = engine.elapsed();
  return out;
}

void expect_exactly_once(const StealRun& run, std::uint64_t ntasks) {
  EXPECT_EQ(run.emitted.size(), ntasks);
  for (std::uint64_t t = 0; t < ntasks; ++t) {
    EXPECT_EQ(run.emitted.count(t), 1u) << "task " << t;
  }
  EXPECT_TRUE(run.failed.empty());
}

// ---------------------------------------------------------------------------
// Policy plumbing

TEST(StealPolicy, ParseAndNameRoundTrip) {
  for (const sched::Policy p :
       {sched::Policy::Auto, sched::Policy::Chunk, sched::Policy::Stride,
        sched::Policy::Master, sched::Policy::MasterFt, sched::Policy::Steal}) {
    EXPECT_EQ(sched::parse_policy(sched::policy_name(p)), p);
  }
  EXPECT_THROW(sched::parse_policy("round-robin"), InputError);
  EXPECT_TRUE(sched::is_remote(sched::Policy::Steal));
  EXPECT_FALSE(sched::is_remote(sched::Policy::Chunk));
}

// ---------------------------------------------------------------------------
// Exactly-once and termination edges (plain and fault-tolerant variants)

class StealExactlyOnceP : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(StealExactlyOnceP, EveryTaskRunsExactlyOnce) {
  const auto [ft, nprocs] = GetParam();
  const StealRun run = run_sched(nprocs, 37, sched::Policy::Steal, "", ft);
  expect_exactly_once(run, 37);
  EXPECT_EQ(run.executed, run.emitted);
}

INSTANTIATE_TEST_SUITE_P(FtAndSizes, StealExactlyOnceP,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2, 5, 16)));

TEST(Steal, ZeroTasksTerminates) {
  // The token probe must still converge with nothing to do, and under the
  // ledger every worker's first ask must be answered with a stop token.
  for (const bool ft : {false, true}) {
    const StealRun run = run_sched(4, 0, sched::Policy::Steal, "", ft);
    EXPECT_TRUE(run.emitted.empty()) << "ft=" << ft;
    EXPECT_TRUE(run.executed.empty()) << "ft=" << ft;
    EXPECT_TRUE(run.failed.empty()) << "ft=" << ft;
  }
}

TEST(Steal, FewerTasksThanRanks) {
  // ntasks < ranks: most deques seed empty; those ranks must go straight
  // to (futile) stealing and still terminate promptly.
  for (const bool ft : {false, true}) {
    const StealRun run = run_sched(8, 3, sched::Policy::Steal, "", ft);
    expect_exactly_once(run, 3);
  }
}

TEST(Steal, SingleTaskManyRanks) {
  for (const bool ft : {false, true}) {
    const StealRun run = run_sched(8, 1, sched::Policy::Steal, "", ft);
    expect_exactly_once(run, 1);
  }
}

TEST(Steal, EveryRankRunsTasksUnderFt) {
  // The sharded ledger has no dedicated master: every rank owns a slice
  // of the ledger *and* works its seeded chunk, so rank 0 emits too.
  const StealRun run = run_sched(4, 20, sched::Policy::Steal, "", /*ft=*/true);
  expect_exactly_once(run, 20);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(run.emitted_by_rank.count(r) != 0u ? run.emitted_by_rank.at(r) : 0u, 0u)
        << "rank " << r;
  }
}

TEST(Steal, ConsecutiveMapsAreEpochIsolated) {
  // Two steal maps back to back on the same MapReduce: any straggler
  // steal traffic from the first map must be dropped by epoch, not
  // double-run or wedge the second map's termination probe.
  for (const bool ft : {false, true}) {
    MapReduceConfig cfg;
    cfg.scheduler = sched::Policy::Steal;
    cfg.ft.enabled = ft;
    sim::EngineConfig ec;
    ec.nprocs = 5;
    ec.stack_bytes = 512 * 1024;
    sim::Engine engine(ec);
    std::mutex mu;
    std::multiset<std::uint64_t> first, second;
    engine.run([&](sim::Process& p) {
      mpi::Comm comm(p);
      MapReduce mr(comm, cfg);
      mr.map(23, [&](std::uint64_t t, KeyValue&) {
        std::lock_guard<std::mutex> lock(mu);
        first.insert(t);
      });
      mr.map(31, [&](std::uint64_t t, KeyValue&) {
        std::lock_guard<std::mutex> lock(mu);
        second.insert(t);
      });
    });
    EXPECT_EQ(first.size(), 23u) << "ft=" << ft;
    EXPECT_EQ(second.size(), 31u) << "ft=" << ft;
    for (std::uint64_t t = 0; t < 31; ++t) {
      if (t < 23) {
        EXPECT_EQ(first.count(t), 1u) << t;
      }
      EXPECT_EQ(second.count(t), 1u) << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Load balancing

TEST(Steal, RebalancesAStaticallyImbalancedPartition) {
  // The first chunk holds all the expensive tasks. Static chunks eat the
  // full 8 s serially on rank 0; thieves must drain that chunk in
  // parallel between rank 0's tasks.
  const auto cost = [](std::uint64_t t) { return t < 16 ? 0.5 : 0.01; };
  const StealRun chunk =
      run_sched(4, 64, sched::Policy::Chunk, "", false, 0.0, cost);
  const StealRun steal =
      run_sched(4, 64, sched::Policy::Steal, "", false, 0.0, cost);
  expect_exactly_once(chunk, 64);
  expect_exactly_once(steal, 64);
  EXPECT_GE(chunk.elapsed, 8.0);
  EXPECT_LT(steal.elapsed, 6.0);
  EXPECT_GT(steal.stats.steals_succeeded, 0u);
  EXPECT_GT(steal.stats.tasks_stolen, 0u);
  EXPECT_GE(steal.stats.steals_attempted, steal.stats.steals_succeeded);
}

TEST(Steal, RemainingTasksAreStolenFromASlowedVictim) {
  // slow: shapes timing only, so it runs on the plain (no-ledger) steal
  // path. Rank 1's first task takes 10 virtual seconds; its second must
  // be stolen and run elsewhere instead of waiting behind it.
  const StealRun run = run_sched(4, 8, sched::Policy::Steal,
                                 "slow:rank=1,factor=50", false, 0.2);
  expect_exactly_once(run, 8);
  EXPECT_GE(run.elapsed, 10.0);   // the slowed task itself
  EXPECT_LT(run.elapsed, 15.0);   // but not the slowed task + its sibling
  EXPECT_GE(run.stats.tasks_stolen, 1u);
}

// ---------------------------------------------------------------------------
// Cross-scheduler byte identity

TEST(Steal, PipelineOutputMatchesOtherSchedulersByte4Byte) {
  // The full map/collate/reduce/gather/sort pipeline must produce the
  // same final pair sequence on rank 0 no matter which scheduler ran the
  // map. Word counts have unique keys after reduce, so sort_keys makes
  // the gathered kv fully deterministic.
  const std::vector<std::string> docs = {"a b a", "b c d", "a e", "c c b",
                                         "e d c", "b", "a a a e", "d"};
  const auto run_pipeline = [&](sched::Policy policy, bool ft) {
    MapReduceConfig cfg;
    cfg.scheduler = policy;
    cfg.ft.enabled = ft;
    std::vector<std::pair<std::string, std::string>> pairs;
    std::mutex mu;
    sim::EngineConfig ec;
    ec.nprocs = 4;
    ec.stack_bytes = 512 * 1024;
    sim::Engine engine(ec);
    engine.run([&](sim::Process& p) {
      mpi::Comm comm(p);
      MapReduce mr(comm, cfg);
      mr.map(docs.size(), [&](std::uint64_t t, KeyValue& kv) {
        std::string word;
        for (char c : docs[t] + " ") {
          if (c == ' ') {
            if (!word.empty()) kv.add(word, "1");
            word.clear();
          } else {
            word.push_back(c);
          }
        }
      });
      mr.collate();
      mr.reduce([&](const KmvGroup& g, KeyValue& out) {
        out.add(to_string(g.key), std::to_string(g.values.size()));
      });
      mr.gather();
      mr.sort_keys();
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < mr.kv().size(); ++i) {
          const KvPair pr = mr.kv().pair(i);
          pairs.emplace_back(to_string(pr.key), to_string(pr.value));
        }
      }
    });
    return pairs;
  };

  const auto chunk = run_pipeline(sched::Policy::Chunk, false);
  ASSERT_FALSE(chunk.empty());
  EXPECT_EQ(run_pipeline(sched::Policy::Master, false), chunk);
  EXPECT_EQ(run_pipeline(sched::Policy::MasterFt, true), chunk);
  EXPECT_EQ(run_pipeline(sched::Policy::Steal, false), chunk);
  EXPECT_EQ(run_pipeline(sched::Policy::Steal, true), chunk);
}

// ---------------------------------------------------------------------------
// Sim / native backend equivalence

std::map<std::string, std::uint64_t> word_count(rt::Backend backend, bool ft) {
  const std::vector<std::string> words = {"map", "reduce", "blast", "som",
                                          "rank", "mpi"};
  std::map<std::string, std::uint64_t> table;
  std::mutex mu;
  rt::LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = 4;
  rt::launch(lc, [&](rt::Rank& rank) {
    mpi::Comm comm(rank);
    MapReduceConfig cfg;
    cfg.scheduler = sched::Policy::Steal;
    cfg.ft.enabled = ft;
    MapReduce mr(comm, cfg);
    mr.map(40, [&](std::uint64_t task, KeyValue& kv) {
      for (std::uint64_t i = 0; i <= task % 7; ++i)
        kv.add(words[(task + i) % words.size()], "1");
    });
    mr.collate();
    mr.reduce([](const KmvGroup& group, KeyValue& kv) {
      kv.add(to_string(group.key), std::to_string(group.values.size()));
    });
    mr.gather();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      mr.kv().for_each([&](const KvPair& pair) {
        table[to_string(pair.key)] = std::stoull(to_string(pair.value));
      });
    }
  });
  return table;
}

TEST(StealBackendEquivalence, WordCountMatchesAcrossBackends) {
  // Real threads race the steals, so the task -> rank placement varies;
  // the reduced table must not.
  for (const bool ft : {false, true}) {
    const auto sim = word_count(rt::Backend::Sim, ft);
    const auto native = word_count(rt::Backend::Native, ft);
    EXPECT_FALSE(sim.empty()) << "ft=" << ft;
    EXPECT_EQ(sim, native) << "ft=" << ft;
  }
}

// ---------------------------------------------------------------------------
// Endgame: rank 0 relaunches the token on its return, not after a poll

struct EndgameRun {
  double worst_gap = 0.0;  ///< max over ranks: return from map() - last task end
  std::uint64_t token_rounds = 0;
};

/// Plain steal on 3 ranks with 24 tasks. Rank 0's chunk is cheap, so it
/// turns passive first, launches the token and then steals work: the
/// first round comes back black and cannot prove termination, and a
/// poll-paced relaunch would leave a gap of up to one worker_poll after
/// the last task. On native the tasks sleep for their cost.
EndgameRun plain_steal_endgame(rt::Backend backend) {
  constexpr int kRanks = 3;
  const auto cost = [](std::uint64_t t) { return t < 8 ? 0.0002 : 0.003; };
  obs::Registry metrics;
  std::mutex mu;
  double last_task_end = 0.0;
  std::vector<double> leave(kRanks, 0.0);
  rt::LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = kRanks;
  lc.stack_bytes = 512 * 1024;
  lc.metrics = &metrics;
  rt::launch(lc, [&](rt::Rank& rank) {
    mpi::Comm comm(rank);
    MapReduceConfig cfg;
    cfg.scheduler = sched::Policy::Steal;
    MapReduce mr(comm, cfg);
    mr.map(24, [&](std::uint64_t t, KeyValue& kv) {
      if (backend == rt::Backend::Native) {
        std::this_thread::sleep_for(std::chrono::duration<double>(cost(t)));
      } else {
        comm.compute(cost(t));
      }
      kv.add("task", std::to_string(t));
      std::lock_guard<std::mutex> lock(mu);
      last_task_end = std::max(last_task_end, comm.now());
    });
    std::lock_guard<std::mutex> lock(mu);
    leave[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  EndgameRun out;
  for (const double t : leave) out.worst_gap = std::max(out.worst_gap, t - last_task_end);
  if (const obs::Counter* c = metrics.find_counter("sched.token_rounds")) {
    out.token_rounds = c->value();
  }
  return out;
}

TEST(Steal, PlainEndgameRelaunchesTheTokenOnItsReturn) {
  const EndgameRun sim = plain_steal_endgame(rt::Backend::Sim);
  EXPECT_LE(sim.worst_gap, 0.002);
  EXPECT_GE(sim.token_rounds, 2u) << "the first round must fail for the test to bite";
  // A loaded host can delay a thread's wakeup by milliseconds, so the
  // native leg takes the best of three runs; a poll-paced relaunch misses
  // the bound in every one of them.
  double best = 1.0;
  for (int attempt = 0; attempt < 3 && best > 0.002; ++attempt) {
    best = std::min(best, plain_steal_endgame(rt::Backend::Native).worst_gap);
  }
  EXPECT_LE(best, 0.002);
}

// ---------------------------------------------------------------------------
// Fault recovery (ledger-backed steal)

TEST(StealRecovery, CrashedWorkersClaimsAreRegranted) {
  // Worker 2 dies after starting its second task: the unexecuted claims
  // in its deque are still Pending in the ledger and must be re-granted
  // to the survivors, with first-commit-wins keeping the output
  // exactly-once.
  const StealRun run =
      run_sched(4, 12, sched::Policy::Steal, "crash:rank=2,task=1", true);
  expect_exactly_once(run, 12);
  EXPECT_EQ(run.stats.worker_deaths, 1u);
}

TEST(StealRecovery, CrashWhileHoldingTheOnlyTask) {
  const StealRun run =
      run_sched(2, 1, sched::Policy::Steal, "crash:rank=1,task=0", true);
  expect_exactly_once(run, 1);
  EXPECT_EQ(run.stats.worker_deaths, 1u);
}

TEST(StealRecovery, PermanentCrashStrandedClaimsMoveToSurvivor) {
  const StealRun run = run_sched(3, 8, sched::Policy::Steal,
                                 "crash:rank=1,task=1,mode=permanent", true);
  expect_exactly_once(run, 8);
  EXPECT_EQ(run.emitted_by_rank.count(1), 0u);
  EXPECT_GT(run.emitted_by_rank.at(2), 0u);
}

TEST(StealRecovery, LossyProtocolTrafficIsAbsorbed) {
  // Drops and duplicates on both the ledger channel (1 <-> 0) and the
  // worker-to-worker steal channel (2 <-> 3): seq-numbered resends and
  // the victim's cached-replay path must recover all of them.
  const StealRun run = run_sched(4, 14, sched::Policy::Steal,
                                 "drop:src=1,dst=0,count=2; dup:src=0,dst=1,count=1; "
                                 "drop:src=2,dst=3,count=1; dup:src=3,dst=2,count=1",
                                 true);
  expect_exactly_once(run, 14);
}

TEST(StealRecovery, ThiefGivesUpOnASlowedVictim) {
  // Rank 1 is 100x slow, so steal requests to it time out max_resends
  // times; the thief must abandon the victim and fall back to the
  // ledger instead of hanging, and the run still finishes exactly-once.
  const StealRun run = run_sched(4, 9, sched::Policy::Steal,
                                 "slow:rank=1,factor=100", true, 0.05);
  expect_exactly_once(run, 9);
}

TEST(StealRecovery, ZeroTasksWithAnInjectorTerminates) {
  const StealRun run =
      run_sched(4, 0, sched::Policy::Steal, "crash:rank=3@t=1000", true);
  EXPECT_TRUE(run.emitted.empty());
  EXPECT_TRUE(run.executed.empty());
  EXPECT_TRUE(run.failed.empty());
}

TEST(StealRecovery, DeterministicUnderAFixedPlan) {
  const std::string plan =
      "crash:rank=2,task=1; drop:src=1,dst=0,count=1; slow:rank=3,factor=3";
  const StealRun a = run_sched(4, 15, sched::Policy::Steal, plan, true);
  const StealRun b = run_sched(4, 15, sched::Policy::Steal, plan, true);
  expect_exactly_once(a, 15);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.emitted_by_rank, b.emitted_by_rank);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(StealRecovery, CrashWithoutLedgerFailsTheRun) {
  // Plain steal has no recovery path: an uncaught CrashSignal must abort
  // the run rather than hang the termination probe.
  fault::Injector injector(fault::FaultPlan::parse("crash:rank=1,task=0"));
  sim::EngineConfig ec;
  ec.nprocs = 3;
  ec.stack_bytes = 512 * 1024;
  ec.injector = &injector;
  sim::Engine engine(ec);
  MapReduceConfig cfg;
  cfg.scheduler = sched::Policy::Steal;
  EXPECT_THROW(engine.run([&](sim::Process& p) {
                 mpi::Comm comm(p);
                 MapReduce mr(comm, cfg);
                 mr.map(6, [&](std::uint64_t, KeyValue&) { comm.compute(0.01); });
               }),
               Error);
}

}  // namespace
}  // namespace mrbio::mrmpi
