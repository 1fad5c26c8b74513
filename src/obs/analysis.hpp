// Critical-path and idle-time analysis over a trace::Recorder stream.
//
// The trace layer records what each rank did; this layer answers *why the
// run took as long as it did*. Two computations:
//
//  1. Critical path. Send/recv events carry happens-before edges (matching
//     pairs share the engine's send sequence number, and each recv knows
//     the message's arrival time). Walking backward from the last-finishing
//     rank, every instant of [0, makespan] is attributed either to local
//     work on the current rank or — when a receive was sender-bound — to
//     the sending rank, hopping across the DAG. The resulting segments
//     tile the makespan exactly, so the path length always equals the
//     simulated makespan; the per-label shares are the run's blame
//     percentages ("what limited speedup").
//
//  2. Idle-time decomposition. Each rank's timeline is partitioned by
//     interval arithmetic into busy categories (useful app work, DB-reload
//     I/O, spill I/O, other busy) and non-busy categories (collective
//     skew, master-wait, communication overhead, residual idle). The
//     categories of each partition sum to the rank's busy / idle totals
//     exactly (modulo fp rounding), which the report tool asserts.
//
// Both work at trace Level::Full (per-message events) and degrade
// gracefully at Level::Phases, where the path walk falls back to phase and
// task spans and master-wait is inferred from map-phase idle time.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mrbio::obs {

class Registry;
class TimeSeries;

/// One maximal stretch of the critical path on a single rank.
struct PathSegment {
  int rank = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::string label;  ///< enclosing span name, "net_wait", or "idle"
  double seconds() const { return t1 - t0; }
};

struct LabelShare {
  std::string label;
  double seconds = 0.0;
};

struct CriticalPath {
  std::vector<PathSegment> segments;  ///< increasing in time, tiling [0, makespan]
  std::vector<LabelShare> by_label;   ///< aggregated, descending seconds
  double length = 0.0;                ///< sum of segment durations (== makespan)
  int hops = 0;                       ///< rank switches along the path
};

/// Exact partition of one rank's [0, final_time]. The busy categories
/// sum to busy_total(); the wait categories sum to idle_total();
/// busy_total() + idle_total() == final_time.
struct RankBreakdown {
  int rank = 0;
  double final_time = 0.0;
  // Busy partition.
  double retry_compute = 0.0;  ///< re-executed map tasks after a fault
  double useful = 0.0;         ///< App spans (search, accumulate, ...)
  double db_io = 0.0;          ///< Io "db_load" spans not under App
  double checkpoint_io = 0.0;  ///< Io "ckpt_*" spans (durable write/replay)
  double shuffle_io = 0.0;     ///< Io "shuffle_*" spans (exchange-overlapped spill)
  double spill_io = 0.0;       ///< other Io spans (out-of-core spill/merge)
  double other_busy = 0.0;     ///< framework compute, send/recv CPU overhead
  // Non-busy partition.
  double collective_skew = 0.0;  ///< blocked inside a collective
  double recovery_wait = 0.0;    ///< fault recovery: reassignment + retry naps
  double steal_wait = 0.0;       ///< work stealing: victim probes + idle naps
  /// Sharded-ledger endgame: parked after RetryLater, the exit handshake
  /// and the shard owner's tail (Fault "termination_wait" spans).
  double termination_wait = 0.0;
  double master_wait = 0.0;      ///< worker waiting for the master's next task
  double comm_overhead = 0.0;    ///< other send/recv wait time
  double idle_other = 0.0;       ///< residual (startup/teardown imbalance)

  double busy_total() const {
    return retry_compute + useful + db_io + checkpoint_io + shuffle_io + spill_io +
           other_busy;
  }
  double idle_total() const {
    return collective_skew + recovery_wait + steal_wait + termination_wait + master_wait +
           comm_overhead + idle_other;
  }
};

struct Straggler {
  int rank = 0;
  double busy_seconds = 0.0;
  double ratio = 0.0;  ///< busy_seconds / median busy across ranks
  /// Dominant attribution bucket over the rank's whole timeline:
  /// "compute" (useful + retry + framework busy), one of the Io categories,
  /// "collective_skew", "recovery_wait", "steal_wait", "termination_wait",
  /// "recv_wait" (master-wait + communication), or "idle".
  std::string dominant;
  double dominant_seconds = 0.0;
};

/// One rank's share of a phase, with its dominant category *within that
/// phase's windows* (same buckets as Straggler::dominant).
struct RankPhaseTime {
  int rank = 0;
  double seconds = 0.0;
  std::string dominant;
  double dominant_seconds = 0.0;
};

/// Imbalance statistics of one Phase-category span name across ranks.
/// Statistics are over ALL ranks (a rank that never entered the phase
/// contributes 0 s), so a master-only phase shows high CoV by design.
struct PhaseSkew {
  std::string phase;
  int ranks_active = 0;  ///< ranks with > 0 s in this phase
  double mean = 0.0;     ///< mean per-rank seconds over all ranks
  double max = 0.0;      ///< slowest rank's seconds
  int max_rank = -1;
  double cov = 0.0;      ///< coefficient of variation: stddev / mean
  std::vector<RankPhaseTime> top;  ///< top-k slowest ranks, descending
};

struct AnalyzeOptions {
  /// Ranks whose busy time exceeds k * median are reported as stragglers.
  double straggler_k = 1.5;
  /// Slowest ranks listed per phase in the skew table.
  std::size_t skew_top_k = 3;
};

struct Report {
  int nranks = 0;
  trace::Level level = trace::Level::Phases;
  double makespan = 0.0;  ///< max per-rank final time
  CriticalPath path;
  std::vector<RankBreakdown> ranks;
  RankBreakdown total;  ///< element-wise sum over ranks (rank = -1)
  std::vector<Straggler> stragglers;
  double median_busy = 0.0;
  std::vector<PhaseSkew> phase_skew;  ///< descending by max rank seconds
};

Report analyze(const trace::Recorder& rec, const AnalyzeOptions& opts = {});

/// Human-readable report: critical-path blame table, idle decomposition,
/// per-rank rows (first `max_rank_rows`), per-phase skew, straggler list.
void print_report(std::FILE* out, const Report& report,
                  std::size_t max_rank_rows = 16);

/// Machine-readable JSON (one object, no trailing newline). When `metrics`
/// is non-null its instruments are embedded under "metrics"; when
/// `timeseries` is non-null its sampled channels are embedded under
/// "timeseries".
void write_report_json(std::FILE* out, const Report& report,
                       const Registry* metrics = nullptr,
                       const TimeSeries* timeseries = nullptr);

}  // namespace mrbio::obs
