// Tests for obs::analyze: critical-path extraction on a hand-built 3-rank
// DAG with a known path, the makespan-tiling invariant and exact idle
// decomposition on real simulated BLAST runs, trace JSON round-tripping,
// and the zero-perturbation guarantee with metrics + reporting attached.
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "mpi/comm.hpp"
#include "mrblast/mrblast.hpp"
#include "mrsom/mrsom.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace mrbio::obs {
namespace {

using trace::Category;
using trace::Level;
using trace::Recorder;

double run_sim(int nprocs, Recorder* rec, Registry* metrics,
               const std::function<void(mpi::Comm&)>& body) {
  sim::EngineConfig config;
  config.nprocs = nprocs;
  config.stack_bytes = 512 * 1024;
  config.recorder = rec;
  config.metrics = metrics;
  sim::Engine engine(config);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    body(comm);
  });
  return engine.elapsed();
}

mrblast::SimRunConfig small_blast() {
  mrblast::SimRunConfig config;
  config.workload.total_queries = 4'000;
  config.workload.queries_per_block = 250;
  config.workload.db_partitions = 4;
  config.workload.mean_seconds_per_query = 0.02;
  return config;
}

mrsom::SimSomConfig small_som() {
  mrsom::SimSomConfig config;
  config.num_vectors = 640;
  config.dim = 16;
  config.grid = {10, 10};
  config.epochs = 2;
  config.block_vectors = 40;
  return config;
}

double label_seconds(const CriticalPath& path, const std::string& label) {
  for (const LabelShare& s : path.by_label) {
    if (s.label == label) return s.seconds;
  }
  return 0.0;
}

// Hand-built 3-rank DAG with a known critical path.
//
//   rank 0: compute [0,2.0]  send  [2.0,2.1] --seq 1, arrives 2.5--> rank 1
//   rank 1: recv    [0,2.6]  compute [2.6,5.0]  send [5.0,5.1]
//                                   --seq 2, arrives 5.5--> rank 2
//   rank 2: compute [0,1.0]  recv [1.0,5.6]  compute [5.6,6.0]
//
// Both receives are sender-bound (arrival after the post), so the backward
// walk from rank 2's finish at 6.0 must hop twice and land on rank 0's
// initial compute, attributing 1.0 s (2 x 0.5) to the network.
TEST(CriticalPath, HandBuiltDagFollowsSenderBoundReceives) {
  Recorder rec(3, Level::Full);
  rec.add(0, Category::Compute, "compute", 0.0, 2.0);
  rec.add_edge(0, Category::Send, "send", 2.0, 2.1, 64, /*peer=*/1, /*seq=*/1,
               /*dep=*/2.5);
  rec.add_edge(1, Category::RecvWait, "recv", 0.0, 2.6, 64, /*peer=*/0, /*seq=*/1,
               /*dep=*/2.5);
  rec.add(1, Category::Compute, "compute", 2.6, 5.0);
  rec.add_edge(1, Category::Send, "send", 5.0, 5.1, 64, /*peer=*/2, /*seq=*/2,
               /*dep=*/5.5);
  rec.add(2, Category::Compute, "compute", 0.0, 1.0);
  rec.add_edge(2, Category::RecvWait, "recv", 1.0, 5.6, 64, /*peer=*/1, /*seq=*/2,
               /*dep=*/5.5);
  rec.add(2, Category::Compute, "compute", 5.6, 6.0);
  rec.set_final_time(0, 2.1);
  rec.set_final_time(1, 5.1);
  rec.set_final_time(2, 6.0);

  const Report report = analyze(rec);
  EXPECT_EQ(report.nranks, 3);
  EXPECT_DOUBLE_EQ(report.makespan, 6.0);
  EXPECT_DOUBLE_EQ(report.path.length, 6.0);
  EXPECT_EQ(report.path.hops, 2);

  // Expected segments in time order (adjacent same-label stretches merge):
  //   r0 compute [0,2.0], r0 send [2.0,2.1], r1 net_wait [2.1,2.6],
  //   r1 compute [2.6,5.0], r1 send [5.0,5.1], r2 net_wait [5.1,5.6],
  //   r2 compute [5.6,6.0]
  ASSERT_EQ(report.path.segments.size(), 7u);
  const int expect_rank[] = {0, 0, 1, 1, 1, 2, 2};
  const char* expect_label[] = {"compute", "send", "net_wait", "compute",
                                "send",    "net_wait", "compute"};
  const double expect_t0[] = {0.0, 2.0, 2.1, 2.6, 5.0, 5.1, 5.6};
  double prev_t1 = 0.0;
  for (std::size_t i = 0; i < report.path.segments.size(); ++i) {
    const PathSegment& s = report.path.segments[i];
    EXPECT_EQ(s.rank, expect_rank[i]) << "segment " << i;
    EXPECT_EQ(s.label, expect_label[i]) << "segment " << i;
    EXPECT_DOUBLE_EQ(s.t0, expect_t0[i]) << "segment " << i;
    if (i != 0) {
      EXPECT_DOUBLE_EQ(s.t0, prev_t1) << "segment " << i;  // tiling
    }
    prev_t1 = s.t1;
  }
  EXPECT_DOUBLE_EQ(prev_t1, 6.0);
  EXPECT_NEAR(label_seconds(report.path, "compute"), 4.8, 1e-12);
  EXPECT_NEAR(label_seconds(report.path, "net_wait"), 1.0, 1e-12);
  EXPECT_NEAR(label_seconds(report.path, "send"), 0.2, 1e-12);
}

TEST(Breakdown, HandBuiltPartitionSumsExactly) {
  // One rank: useful app work [0,2], a DB load [2,3], a collective that is
  // all skew [3,4.5], final time 5 -> idle_other picks up the last 0.5 s.
  Recorder rec(1);
  rec.add(0, Category::App, "search", 0.0, 2.0);
  rec.add(0, Category::Io, "db_load", 2.0, 3.0);
  rec.add(0, Category::Collective, "reduce", 3.0, 4.5);
  rec.set_final_time(0, 5.0);
  const Report report = analyze(rec);
  const RankBreakdown& b = report.ranks.at(0);
  EXPECT_DOUBLE_EQ(b.useful, 2.0);
  EXPECT_DOUBLE_EQ(b.db_io, 1.0);
  EXPECT_DOUBLE_EQ(b.spill_io, 0.0);
  EXPECT_DOUBLE_EQ(b.other_busy, 0.0);
  EXPECT_DOUBLE_EQ(b.collective_skew, 1.5);
  EXPECT_DOUBLE_EQ(b.idle_other, 0.5);
  EXPECT_DOUBLE_EQ(b.busy_total() + b.idle_total(), b.final_time);
}

TEST(Breakdown, TerminationWaitIsItsOwnIdleCategory) {
  // Rank 0 of a sharded steal-ft map: useful work [0,2], a steal sweep
  // [2,2.5], parked after a RetryLater [2.5,3] while serving a steal
  // [2.7,2.8], then the exit handshake and owner tail [3,3.6] around a
  // receive [3.2,3.4], a recovery span [3.6,3.7], final time 4. The
  // termination spans claim their receive ahead of comm_overhead, busy
  // time inside them stays busy, and the categories still tile rank-time.
  Recorder rec(2, Level::Full);
  rec.add(0, Category::App, "search", 0.0, 2.0);
  rec.add(0, Category::Fault, "steal_wait", 2.0, 2.5);
  rec.add(0, Category::Fault, "termination_wait", 2.5, 3.0);
  rec.add(0, Category::Compute, "serve_steal", 2.7, 2.8);
  rec.add(0, Category::Fault, "termination_wait", 3.0, 3.6);
  rec.add_edge(0, Category::RecvWait, "recv", 3.2, 3.4, 16, /*peer=*/1, /*seq=*/1,
               /*dep=*/3.4);
  rec.add(0, Category::Fault, "phi_evict", 3.6, 3.7);
  rec.set_final_time(0, 4.0);
  rec.set_final_time(1, 4.0);
  const Report report = analyze(rec);
  const RankBreakdown& b = report.ranks.at(0);
  EXPECT_DOUBLE_EQ(b.useful, 2.0);
  EXPECT_NEAR(b.other_busy, 0.1, 1e-12);
  EXPECT_NEAR(b.steal_wait, 0.5, 1e-12);
  EXPECT_NEAR(b.termination_wait, 1.0, 1e-12);
  EXPECT_NEAR(b.recovery_wait, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(b.comm_overhead, 0.0);
  EXPECT_NEAR(b.idle_other, 0.3, 1e-12);
  EXPECT_NEAR(b.busy_total() + b.idle_total(), b.final_time, 1e-12);
  EXPECT_DOUBLE_EQ(report.total.termination_wait, b.termination_wait);

  // Both report formats (--report, --report-json, mrbio_report) carry it.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  print_report(f, report);
  write_report_json(f, report);
  std::rewind(f);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) text.append(buf, n);
  std::fclose(f);
  EXPECT_NE(text.find("\ntermination_wait "), std::string::npos) << text;
  EXPECT_NE(text.find("\"termination_wait\":"), std::string::npos) << text;
}

TEST(Stragglers, RanksAboveKTimesMedianAreListed) {
  Recorder rec(3);
  rec.add(0, Category::App, "work", 0.0, 1.0);
  rec.add(1, Category::App, "work", 0.0, 1.0);
  rec.add(2, Category::App, "work", 0.0, 10.0);
  for (int r = 0; r < 3; ++r) rec.set_final_time(r, 10.0);
  const Report report = analyze(rec);
  EXPECT_DOUBLE_EQ(report.median_busy, 1.0);
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0].rank, 2);
  EXPECT_DOUBLE_EQ(report.stragglers[0].ratio, 10.0);
  // The straggler's timeline is all App work -> compute-bound attribution.
  EXPECT_EQ(report.stragglers[0].dominant, "compute");
  EXPECT_DOUBLE_EQ(report.stragglers[0].dominant_seconds, 10.0);
}

// Hand-built 4-rank phase with known skew statistics:
//   "map" windows: rank0 [0,1], rank1 [0,2], rank2 [0,4], rank3 absent.
//   Seconds over ALL ranks: {1, 2, 4, 0} -> mean 1.75, max 4 @ rank 2,
//   population stddev sqrt(8.75/4), CoV = stddev / mean ~ 0.845154.
TEST(PhaseSkew, HandBuiltPhaseHasKnownCovAndTopK) {
  Recorder rec(4);
  rec.add(0, Category::Phase, "map", 0.0, 1.0);
  rec.add(1, Category::Phase, "map", 0.0, 2.0);
  rec.add(2, Category::Phase, "map", 0.0, 4.0);
  // In-phase content for the dominant attribution: rank 2 computes the
  // whole window, rank 1 is blocked in a collective, rank 0 computes.
  rec.add(0, Category::App, "work", 0.0, 1.0);
  rec.add(1, Category::Collective, "reduce", 0.0, 2.0);
  rec.add(2, Category::App, "work", 0.0, 4.0);
  for (int r = 0; r < 4; ++r) rec.set_final_time(r, 4.0);

  AnalyzeOptions opts;
  opts.skew_top_k = 2;
  const Report report = analyze(rec, opts);
  ASSERT_EQ(report.phase_skew.size(), 1u);
  const PhaseSkew& skew = report.phase_skew[0];
  EXPECT_EQ(skew.phase, "map");
  EXPECT_EQ(skew.ranks_active, 3);
  EXPECT_DOUBLE_EQ(skew.mean, 1.75);
  EXPECT_DOUBLE_EQ(skew.max, 4.0);
  EXPECT_EQ(skew.max_rank, 2);
  EXPECT_NEAR(skew.cov, std::sqrt(8.75 / 4.0) / 1.75, 1e-12);

  ASSERT_EQ(skew.top.size(), 2u);  // top-k honored
  EXPECT_EQ(skew.top[0].rank, 2);
  EXPECT_DOUBLE_EQ(skew.top[0].seconds, 4.0);
  EXPECT_EQ(skew.top[0].dominant, "compute");
  EXPECT_DOUBLE_EQ(skew.top[0].dominant_seconds, 4.0);
  EXPECT_EQ(skew.top[1].rank, 1);
  EXPECT_DOUBLE_EQ(skew.top[1].seconds, 2.0);
  EXPECT_EQ(skew.top[1].dominant, "collective_skew");
  EXPECT_DOUBLE_EQ(skew.top[1].dominant_seconds, 2.0);
}

// Two phases sort by descending max rank seconds, and the in-phase
// dominant attribution is restricted to each phase's own windows: the same
// rank is compute-bound in one phase and recv-wait-bound in the other.
TEST(PhaseSkew, PhasesSortByMaxAndAttributionIsPerPhase) {
  Recorder rec(2, Level::Full);
  rec.add(0, Category::Phase, "map", 0.0, 1.0);
  rec.add(0, Category::Phase, "exchange", 1.0, 6.0);
  rec.add(1, Category::Phase, "map", 0.0, 1.0);
  rec.add(1, Category::Phase, "exchange", 1.0, 6.0);
  rec.add(0, Category::App, "work", 0.0, 1.0);
  rec.add(1, Category::App, "work", 0.0, 1.0);
  // During "exchange", rank 1 waits on a receive the whole time.
  rec.add(0, Category::Compute, "compute", 1.0, 6.0);
  rec.add(1, Category::RecvWait, "recv", 1.0, 6.0);
  rec.set_final_time(0, 6.0);
  rec.set_final_time(1, 6.0);

  const Report report = analyze(rec);
  ASSERT_EQ(report.phase_skew.size(), 2u);
  EXPECT_EQ(report.phase_skew[0].phase, "exchange");  // max 5 s sorts first
  EXPECT_EQ(report.phase_skew[1].phase, "map");
  const PhaseSkew& exchange = report.phase_skew[0];
  ASSERT_EQ(exchange.top.size(), 2u);
  for (const RankPhaseTime& t : exchange.top) {
    if (t.rank == 0) {
      EXPECT_EQ(t.dominant, "compute");
    } else {
      EXPECT_EQ(t.dominant, "recv_wait");
      EXPECT_DOUBLE_EQ(t.dominant_seconds, 5.0);
    }
  }
  const PhaseSkew& map = report.phase_skew[1];
  for (const RankPhaseTime& t : map.top) EXPECT_EQ(t.dominant, "compute");
}

// ISSUE acceptance: on a fig3-style run the critical-path length equals the
// simulated makespan, and the idle categories sum to total idle within
// 0.1%. Exercised at both trace levels.
TEST(Analyze, BlastRunPathTilesMakespanAndIdleSumsExactly) {
  for (const Level level : {Level::Phases, Level::Full}) {
    Recorder rec(7, level);
    const double elapsed =
        run_sim(7, &rec, nullptr,
                [](mpi::Comm& comm) { mrblast::run_blast_sim(comm, small_blast()); });
    const Report report = analyze(rec);
    EXPECT_DOUBLE_EQ(report.makespan, elapsed);
    EXPECT_NEAR(report.path.length, report.makespan, 1e-9 * report.makespan);
    ASSERT_FALSE(report.path.segments.empty());

    double idle_sum = 0.0, idle_total = 0.0, busy_plus_idle = 0.0, finals = 0.0;
    for (const RankBreakdown& b : report.ranks) {
      idle_sum += b.idle_total();
      idle_total += b.final_time - b.busy_total();
      busy_plus_idle += b.busy_total() + b.idle_total();
      finals += b.final_time;
    }
    ASSERT_GT(idle_total, 0.0);
    EXPECT_NEAR(idle_sum, idle_total, 1e-3 * idle_total);  // within 0.1%
    EXPECT_NEAR(busy_plus_idle, finals, 1e-9 * finals);
    // The totals row is the element-wise sum of the per-rank rows.
    EXPECT_NEAR(report.total.idle_total(), idle_sum, 1e-9 * finals);
  }
}

TEST(Analyze, ReportSurvivesChromeTraceRoundTrip) {
  Recorder rec(5, Level::Full);
  run_sim(5, &rec, nullptr,
          [](mpi::Comm& comm) { mrblast::run_blast_sim(comm, small_blast()); });
  const Report direct = analyze(rec);

  const auto path = std::filesystem::temp_directory_path() / "mrbio_obs_roundtrip.json";
  trace::write_chrome_trace(path.string(), rec);
  const trace::LoadedTrace loaded = trace::read_chrome_trace(path.string());
  std::filesystem::remove(path);
  const Report reloaded = analyze(loaded.recorder);

  EXPECT_EQ(reloaded.nranks, direct.nranks);
  EXPECT_EQ(reloaded.level, direct.level);
  EXPECT_DOUBLE_EQ(reloaded.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(reloaded.path.length, direct.path.length);
  EXPECT_EQ(reloaded.path.hops, direct.path.hops);
  EXPECT_EQ(reloaded.path.segments.size(), direct.path.segments.size());
  ASSERT_EQ(reloaded.ranks.size(), direct.ranks.size());
  for (std::size_t r = 0; r < direct.ranks.size(); ++r) {
    EXPECT_DOUBLE_EQ(reloaded.ranks[r].useful, direct.ranks[r].useful) << "rank " << r;
    EXPECT_DOUBLE_EQ(reloaded.ranks[r].idle_total(), direct.ranks[r].idle_total())
        << "rank " << r;
  }
}

// ISSUE satellite: metrics + full tracing + report generation must not move
// virtual time by a single bit on either driver (fig3- and fig6-style).
TEST(ZeroPerturbation, BlastVirtualTimeIdenticalWithMetricsAndReport) {
  const auto body = [](mpi::Comm& comm) { mrblast::run_blast_sim(comm, small_blast()); };
  const double bare = run_sim(7, nullptr, nullptr, body);
  Recorder rec(7, Level::Full);
  Registry registry;
  const double observed = run_sim(7, &rec, &registry, body);
  EXPECT_DOUBLE_EQ(bare, observed);
  EXPECT_GT(registry.counter("sim.messages").value(), 0u);
  EXPECT_GT(registry.histogram("mrmpi.task_seconds").count(), 0u);
  EXPECT_GT(registry.histogram("blast.search_seconds").count(), 0u);
  const Report report = analyze(rec);  // report generation is read-only
  EXPECT_DOUBLE_EQ(report.makespan, bare);
}

TEST(ZeroPerturbation, SomVirtualTimeIdenticalWithMetricsAndReport) {
  const auto body = [](mpi::Comm& comm) { mrsom::run_som_sim(comm, small_som()); };
  const double bare = run_sim(8, nullptr, nullptr, body);
  Recorder rec(8, Level::Full);
  Registry registry;
  const double observed = run_sim(8, &rec, &registry, body);
  EXPECT_DOUBLE_EQ(bare, observed);
  EXPECT_GT(registry.histogram("som.epoch_bcast_seconds").count(), 0u);
  EXPECT_GT(registry.histogram("som.epoch_reduce_seconds").count(), 0u);
  const Report report = analyze(rec);
  EXPECT_DOUBLE_EQ(report.makespan, bare);
}

}  // namespace
}  // namespace mrbio::obs
