#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "obs/internal.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace mrbio::obs {

using trace::Category;
using trace::Event;
using trace::Recorder;

namespace {

// ---------------------------------------------------------------------------
// Interval arithmetic (same shapes as trace.cpp's summarize helpers).

using Interval = std::pair<double, double>;

void merge_intervals(std::vector<Interval>& iv) {
  if (iv.empty()) return;
  std::sort(iv.begin(), iv.end());
  std::size_t out = 0;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first <= iv[out].second) {
      iv[out].second = std::max(iv[out].second, iv[i].second);
    } else {
      iv[++out] = iv[i];
    }
  }
  iv.resize(out + 1);
}

double measure(const std::vector<Interval>& merged) {
  double total = 0.0;
  for (const auto& [a, b] : merged) total += b - a;
  return total;
}

// Total length of `iv` (merged) not covered by `cover` (merged).
double measure_minus(const std::vector<Interval>& iv, const std::vector<Interval>& cover) {
  double total = 0.0;
  std::size_t c = 0;
  for (const auto& [a, b] : iv) {
    double pos = a;
    while (c < cover.size() && cover[c].second <= pos) ++c;
    std::size_t k = c;
    while (pos < b) {
      if (k >= cover.size() || cover[k].first >= b) {
        total += b - pos;
        break;
      }
      if (cover[k].first > pos) total += cover[k].first - pos;
      pos = std::max(pos, cover[k].second);
      ++k;
    }
  }
  return total;
}

std::vector<Interval> merged_union(std::vector<Interval> a, const std::vector<Interval>& b) {
  a.insert(a.end(), b.begin(), b.end());
  merge_intervals(a);
  return a;
}

// Intersection of two merged interval lists (result is merged too).
std::vector<Interval> intersect(const std::vector<Interval>& a,
                                const std::vector<Interval>& b) {
  std::vector<Interval> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (lo < hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

double clamp0(double v) { return v < 0.0 ? 0.0 : v; }

bool is_busy_cat(Category c) {
  return c == Category::Compute || c == Category::App || c == Category::Io ||
         c == Category::Task;
}

bool is_primitive_cat(Category c) {
  return c == Category::Compute || c == Category::Send || c == Category::RecvWait;
}

bool is_span_cat(Category c) {
  return c == Category::App || c == Category::Io || c == Category::Task ||
         c == Category::Collective || c == Category::Phase;
}

int span_priority(Category c) {
  switch (c) {
    case Category::App: return 5;
    case Category::Io: return 4;
    case Category::Task: return 3;
    case Category::Collective: return 2;
    case Category::Phase: return 1;
    default: return 0;
  }
}

bool is_db_io(const Event& e) {
  return e.cat == Category::Io && std::string_view(e.name) == "db_load";
}

bool is_ckpt_io(const Event& e) {
  // "ckpt_write" (map-log flush, ledger record, snapshot) and
  // "ckpt_restore" (resume replay).
  return e.cat == Category::Io && std::string_view(e.name).substr(0, 4) == "ckpt";
}

bool is_shuffle_io(const Event& e) {
  // "shuffle_spill": post-exchange spill writes that may overlap the
  // alltoall; reported separately so the overlap win is visible.
  return e.cat == Category::Io && std::string_view(e.name).substr(0, 7) == "shuffle";
}

// ---------------------------------------------------------------------------
// Per-rank final time: recorded value when present, else last span end.

double rank_final_time(const Recorder& rec, int rank) {
  double t = 0.0;
  const auto& finals = rec.final_times();
  if (rank < static_cast<int>(finals.size())) t = finals[static_cast<std::size_t>(rank)];
  for (const Event& e : rec.rank_events(rank)) t = std::max(t, e.t1);
  return t;
}

// ---------------------------------------------------------------------------
// Critical-path walk.

struct Walker {
  const Recorder& rec;
  double eps;
  /// Per-rank walk timeline sorted by t0: primitive events at Full level,
  /// span events otherwise (overlap/nesting is fine for the walk).
  std::vector<std::vector<const Event*>> timeline;
  /// Engine send sequence -> the Send event that produced it.
  std::unordered_map<std::uint64_t, const Event*> sends;

  Walker(const Recorder& r, double makespan) : rec(r), eps(makespan * 1e-12 + 1e-15) {
    const int n = rec.nranks();
    timeline.resize(static_cast<std::size_t>(n));
    for (int rank = 0; rank < n; ++rank) {
      const auto& lane = rec.rank_events(rank);
      auto& tl = timeline[static_cast<std::size_t>(rank)];
      bool has_primitive = false;
      for (const Event& e : lane) {
        if (is_primitive_cat(e.cat)) {
          has_primitive = true;
          break;
        }
      }
      for (const Event& e : lane) {
        if (has_primitive ? is_primitive_cat(e.cat) : is_span_cat(e.cat)) {
          tl.push_back(&e);
        }
        if (e.cat == Category::Send && e.seq != 0) sends.emplace(e.seq, &e);
      }
      std::sort(tl.begin(), tl.end(), [](const Event* a, const Event* b) {
        if (a->t0 != b->t0) return a->t0 < b->t0;
        return a->t1 < b->t1;
      });
    }
  }

  /// Last timeline event on `rank` starting strictly before `t`.
  const Event* last_before(int rank, double t) const {
    const auto& tl = timeline[static_cast<std::size_t>(rank)];
    auto it = std::lower_bound(tl.begin(), tl.end(), t - eps,
                               [](const Event* e, double v) { return e->t0 < v; });
    if (it == tl.begin()) return nullptr;
    return *(it - 1);
  }

  /// Name of the innermost, highest-priority span enclosing the midpoint of
  /// [a, b] on `rank`; `fallback` when no span covers it.
  std::string label_for(int rank, double a, double b, const char* fallback) const {
    const double mid = 0.5 * (a + b);
    const Event* best = nullptr;
    for (const Event& e : rec.rank_events(rank)) {
      if (!is_span_cat(e.cat)) continue;
      if (e.t0 > mid + eps || e.t1 < mid - eps) continue;
      if (best == nullptr) {
        best = &e;
        continue;
      }
      const int pe = span_priority(e.cat);
      const int pb = span_priority(best->cat);
      if (pe > pb || (pe == pb && (e.t1 - e.t0) < (best->t1 - best->t0))) best = &e;
    }
    return best != nullptr ? std::string(best->name) : std::string(fallback);
  }
};

CriticalPath walk_critical_path(const Recorder& rec, double makespan,
                                const std::vector<double>& finals) {
  CriticalPath path;
  path.length = 0.0;
  if (makespan <= 0.0) return path;

  Walker w(rec, makespan);
  int rank = 0;
  for (int r = 0; r < rec.nranks(); ++r) {
    if (finals[static_cast<std::size_t>(r)] > finals[static_cast<std::size_t>(rank)]) rank = r;
  }
  double t = makespan;

  std::vector<PathSegment> rev;  // built back-to-front
  auto emit = [&rev](int seg_rank, double a, double b, std::string label) {
    if (b - a <= 0.0) return;
    if (!rev.empty() && rev.back().rank == seg_rank && rev.back().label == label &&
        rev.back().t0 <= b) {
      rev.back().t0 = a;  // extend the adjacent same-label segment
      return;
    }
    rev.push_back(PathSegment{seg_rank, a, b, std::move(label)});
  };

  // Generous iteration bound: each step either consumes one event or hops.
  std::size_t steps_left = 4 * rec.size() + 64;
  while (t > w.eps) {
    if (steps_left-- == 0) {
      emit(rank, 0.0, t, "truncated");  // keeps the tiling invariant
      break;
    }
    const Event* e = w.last_before(rank, t);
    if (e == nullptr) {
      emit(rank, 0.0, t, "idle");
      t = 0.0;
      break;
    }
    if (e->t1 < t - w.eps) {
      // Gap between events on this rank.
      emit(rank, e->t1, t, w.label_for(rank, e->t1, t, "idle"));
      t = e->t1;
      continue;
    }
    // `e` covers t. A sender-bound receive hops to the sending rank: the
    // receiver stretch back to the send completion is network wait, and
    // the walk continues on the sender.
    if (e->cat == Category::RecvWait && e->seq != 0 && e->dep > e->t0 + w.eps) {
      auto it = w.sends.find(e->seq);
      if (it != w.sends.end()) {
        const Event* s = it->second;
        if (s->t1 < t - w.eps) {
          emit(rank, s->t1, t, "net_wait");
          path.hops += 1;
          rank = s->rank;
          t = s->t1;
          continue;
        }
      }
    }
    emit(rank, e->t0, t, w.label_for(rank, e->t0, t, e->name));
    t = e->t0;
  }

  std::reverse(rev.begin(), rev.end());
  path.segments = std::move(rev);
  for (const PathSegment& s : path.segments) path.length += s.seconds();

  std::map<std::string, double> shares;
  for (const PathSegment& s : path.segments) shares[s.label] += s.seconds();
  for (auto& [label, seconds] : shares) path.by_label.push_back({label, seconds});
  std::sort(path.by_label.begin(), path.by_label.end(),
            [](const LabelShare& a, const LabelShare& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.label < b.label;
            });
  return path;
}

// ---------------------------------------------------------------------------
// Idle-time decomposition.

// Per-category interval sets of one rank, all merged. Collected once per
// rank and reused for the whole-run breakdown and the phase-restricted
// attribution (via restrict_to).
struct RankIntervals {
  std::vector<Interval> busy, retry, app, io_db, io_ckpt, io_shuffle, io_spill,
      coll, fwait, swait, twait, mwait, comm;
};

RankIntervals collect_intervals(const Recorder& rec, int rank) {
  RankIntervals v;
  const bool full = rec.level() == trace::Level::Full;
  for (const Event& e : rec.rank_events(rank)) {
    const Interval iv{e.t0, e.t1};
    if (is_busy_cat(e.cat)) v.busy.push_back(iv);
    if (e.cat == Category::Task && std::string_view(e.name) == "map_task_retry") {
      v.retry.push_back(iv);
    }
    switch (e.cat) {
      case Category::App:
        v.app.push_back(iv);
        break;
      case Category::Io:
        (is_db_io(e)        ? v.io_db
         : is_ckpt_io(e)    ? v.io_ckpt
         : is_shuffle_io(e) ? v.io_shuffle
                            : v.io_spill)
            .push_back(iv);
        break;
      case Category::Collective:
        v.coll.push_back(iv);
        break;
      case Category::Fault: {
        // Steal-scheduler idle episodes (victim probe + backoff nap) and
        // the sharded ledger's endgame waits share the Fault category lane
        // but are load imbalance and termination, not recovery.
        const std::string_view name(e.name);
        (name == "steal_wait"         ? v.swait
         : name == "termination_wait" ? v.twait
                                      : v.fwait)
            .push_back(iv);
        break;
      }
      case Category::RecvWait:
        // A worker blocked on the master (rank 0) is master-wait; any
        // other receive is generic communication.
        (rank != 0 && e.peer == 0 ? v.mwait : v.comm).push_back(iv);
        break;
      case Category::Send:
        v.comm.push_back(iv);
        break;
      case Category::Phase:
        // Without per-message events, worker idle inside the map phase is
        // the best available master-wait signal.
        if (!full && rank != 0 && std::string_view(e.name) == "map") {
          v.mwait.push_back(iv);
        }
        break;
      default:
        break;
    }
  }
  merge_intervals(v.busy);
  merge_intervals(v.retry);
  merge_intervals(v.app);
  merge_intervals(v.io_db);
  merge_intervals(v.io_ckpt);
  merge_intervals(v.io_shuffle);
  merge_intervals(v.io_spill);
  merge_intervals(v.coll);
  merge_intervals(v.fwait);
  merge_intervals(v.swait);
  merge_intervals(v.twait);
  merge_intervals(v.mwait);
  merge_intervals(v.comm);
  return v;
}

RankIntervals restrict_to(const RankIntervals& v, const std::vector<Interval>& window) {
  RankIntervals r;
  r.busy = intersect(v.busy, window);
  r.retry = intersect(v.retry, window);
  r.app = intersect(v.app, window);
  r.io_db = intersect(v.io_db, window);
  r.io_ckpt = intersect(v.io_ckpt, window);
  r.io_shuffle = intersect(v.io_shuffle, window);
  r.io_spill = intersect(v.io_spill, window);
  r.coll = intersect(v.coll, window);
  r.fwait = intersect(v.fwait, window);
  r.swait = intersect(v.swait, window);
  r.twait = intersect(v.twait, window);
  r.mwait = intersect(v.mwait, window);
  r.comm = intersect(v.comm, window);
  return r;
}

/// The category chains over a pre-collected interval set. `total_time` is
/// the rank's final time for the whole-run breakdown, or the measure of the
/// restriction window for phase-local attribution.
RankBreakdown breakdown_from(const RankIntervals& v, int rank, double total_time) {
  RankBreakdown b;
  b.rank = rank;
  b.final_time = total_time;

  // Busy chain: re-executed task time is carved out first — the App/Io
  // spans nested inside a retried task are recovery cost, not useful work.
  const double busy_total = measure(v.busy);
  b.retry_compute = measure(v.retry);
  b.useful = measure_minus(v.app, v.retry);
  auto covered = merged_union(v.retry, v.app);
  b.db_io = measure_minus(v.io_db, covered);
  covered = merged_union(std::move(covered), v.io_db);
  b.checkpoint_io = measure_minus(v.io_ckpt, covered);
  covered = merged_union(std::move(covered), v.io_ckpt);
  b.shuffle_io = measure_minus(v.io_shuffle, covered);
  covered = merged_union(std::move(covered), v.io_shuffle);
  b.spill_io = measure_minus(v.io_spill, covered);
  b.other_busy = clamp0(busy_total - b.retry_compute - b.useful - b.db_io -
                        b.checkpoint_io - b.shuffle_io - b.spill_io);

  // Idle chain: Fault spans (reassignment waits, retry-later naps) claim
  // their time ahead of master-wait and generic communication.
  const double idle_total = clamp0(total_time - busy_total);
  b.collective_skew = measure_minus(v.coll, v.busy);
  covered = merged_union(v.busy, v.coll);
  b.recovery_wait = measure_minus(v.fwait, covered);
  covered = merged_union(std::move(covered), v.fwait);
  b.steal_wait = measure_minus(v.swait, covered);
  covered = merged_union(std::move(covered), v.swait);
  b.termination_wait = measure_minus(v.twait, covered);
  covered = merged_union(std::move(covered), v.twait);
  b.master_wait = measure_minus(v.mwait, covered);
  covered = merged_union(std::move(covered), v.mwait);
  b.comm_overhead = measure_minus(v.comm, covered);
  b.idle_other = clamp0(idle_total - b.collective_skew - b.recovery_wait -
                        b.steal_wait - b.termination_wait - b.master_wait -
                        b.comm_overhead);
  return b;
}

/// Collapses a breakdown into the coarse attribution buckets used by the
/// straggler and phase-skew reports; returns the largest (ties favour the
/// earlier bucket, i.e. compute first).
std::pair<std::string, double> dominant_bucket(const RankBreakdown& b) {
  const std::pair<const char*, double> buckets[] = {
      {"compute", b.useful + b.retry_compute + b.other_busy},
      {"db_io", b.db_io},
      {"checkpoint_io", b.checkpoint_io},
      {"shuffle_io", b.shuffle_io},
      {"spill_io", b.spill_io},
      {"collective_skew", b.collective_skew},
      {"recovery_wait", b.recovery_wait},
      {"steal_wait", b.steal_wait},
      {"termination_wait", b.termination_wait},
      {"recv_wait", b.master_wait + b.comm_overhead},
      {"idle", b.idle_other},
  };
  std::pair<std::string, double> best{buckets[0].first, buckets[0].second};
  for (const auto& [name, v] : buckets) {
    if (v > best.second) best = {name, v};
  }
  return best;
}

/// Per-phase imbalance statistics: one entry per Phase-span name, stats
/// over all ranks (absent ranks count as 0 s), top-k slowest ranks with
/// their dominant in-phase category. Sorted by max seconds descending.
std::vector<PhaseSkew> compute_phase_skew(const Recorder& rec,
                                          const std::vector<RankIntervals>& ivs,
                                          std::size_t top_k) {
  const int nranks = rec.nranks();
  // phase name -> per-rank phase windows.
  std::map<std::string, std::vector<std::vector<Interval>>> phases;
  for (int r = 0; r < nranks; ++r) {
    for (const Event& e : rec.rank_events(r)) {
      if (e.cat != Category::Phase) continue;
      auto [it, inserted] = phases.try_emplace(std::string(e.name));
      if (inserted) it->second.resize(static_cast<std::size_t>(nranks));
      it->second[static_cast<std::size_t>(r)].emplace_back(e.t0, e.t1);
    }
  }

  std::vector<PhaseSkew> out;
  out.reserve(phases.size());
  for (auto& [name, windows] : phases) {
    PhaseSkew ps;
    ps.phase = name;
    std::vector<double> seconds(static_cast<std::size_t>(nranks), 0.0);
    for (int r = 0; r < nranks; ++r) {
      auto& w = windows[static_cast<std::size_t>(r)];
      merge_intervals(w);
      seconds[static_cast<std::size_t>(r)] = measure(w);
    }
    double sum = 0.0;
    for (int r = 0; r < nranks; ++r) {
      const double s = seconds[static_cast<std::size_t>(r)];
      sum += s;
      if (s > 0.0) ++ps.ranks_active;
      if (s > ps.max) {
        ps.max = s;
        ps.max_rank = r;
      }
    }
    ps.mean = nranks > 0 ? sum / static_cast<double>(nranks) : 0.0;
    if (ps.mean > 0.0) {
      double var = 0.0;
      for (double s : seconds) var += (s - ps.mean) * (s - ps.mean);
      var /= static_cast<double>(nranks);
      ps.cov = std::sqrt(var) / ps.mean;
    }

    std::vector<int> order(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) order[static_cast<std::size_t>(r)] = r;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double sa = seconds[static_cast<std::size_t>(a)];
      const double sb = seconds[static_cast<std::size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });
    for (int r : order) {
      if (ps.top.size() >= top_k) break;
      const double s = seconds[static_cast<std::size_t>(r)];
      if (s <= 0.0) break;
      const RankIntervals local =
          restrict_to(ivs[static_cast<std::size_t>(r)], windows[static_cast<std::size_t>(r)]);
      auto [dom, dom_s] = dominant_bucket(breakdown_from(local, r, s));
      ps.top.push_back({r, s, std::move(dom), dom_s});
    }
    out.push_back(std::move(ps));
  }
  std::sort(out.begin(), out.end(), [](const PhaseSkew& a, const PhaseSkew& b) {
    if (a.max != b.max) return a.max > b.max;
    return a.phase < b.phase;
  });
  return out;
}

}  // namespace

Report analyze(const Recorder& rec, const AnalyzeOptions& opts) {
  Report rep;
  rep.nranks = rec.nranks();
  rep.level = rec.level();

  std::vector<double> finals(static_cast<std::size_t>(rep.nranks), 0.0);
  for (int r = 0; r < rep.nranks; ++r) {
    finals[static_cast<std::size_t>(r)] = rank_final_time(rec, r);
    rep.makespan = std::max(rep.makespan, finals[static_cast<std::size_t>(r)]);
  }

  rep.path = walk_critical_path(rec, rep.makespan, finals);

  std::vector<RankIntervals> ivs;
  ivs.reserve(static_cast<std::size_t>(rep.nranks));
  for (int r = 0; r < rep.nranks; ++r) ivs.push_back(collect_intervals(rec, r));

  rep.total.rank = -1;
  for (int r = 0; r < rep.nranks; ++r) {
    RankBreakdown b = breakdown_from(ivs[static_cast<std::size_t>(r)], r,
                                     finals[static_cast<std::size_t>(r)]);
    rep.total.final_time += b.final_time;
    rep.total.retry_compute += b.retry_compute;
    rep.total.useful += b.useful;
    rep.total.db_io += b.db_io;
    rep.total.checkpoint_io += b.checkpoint_io;
    rep.total.shuffle_io += b.shuffle_io;
    rep.total.spill_io += b.spill_io;
    rep.total.other_busy += b.other_busy;
    rep.total.collective_skew += b.collective_skew;
    rep.total.recovery_wait += b.recovery_wait;
    rep.total.steal_wait += b.steal_wait;
    rep.total.termination_wait += b.termination_wait;
    rep.total.master_wait += b.master_wait;
    rep.total.comm_overhead += b.comm_overhead;
    rep.total.idle_other += b.idle_other;
    rep.ranks.push_back(std::move(b));
  }

  std::vector<double> busys;
  busys.reserve(rep.ranks.size());
  for (const RankBreakdown& b : rep.ranks) busys.push_back(b.busy_total());
  if (!busys.empty()) {
    std::vector<double> sorted = busys;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    rep.median_busy =
        (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    if (rep.median_busy > 0.0) {
      for (int r = 0; r < rep.nranks; ++r) {
        const double busy = busys[static_cast<std::size_t>(r)];
        if (busy > opts.straggler_k * rep.median_busy) {
          auto [dom, dom_s] = dominant_bucket(rep.ranks[static_cast<std::size_t>(r)]);
          rep.stragglers.push_back(
              {r, busy, busy / rep.median_busy, std::move(dom), dom_s});
        }
      }
      std::sort(rep.stragglers.begin(), rep.stragglers.end(),
                [](const Straggler& a, const Straggler& b) {
                  if (a.busy_seconds != b.busy_seconds) return a.busy_seconds > b.busy_seconds;
                  return a.rank < b.rank;
                });
    }
  }

  rep.phase_skew = compute_phase_skew(rec, ivs, opts.skew_top_k);
  return rep;
}

namespace {

double pct(double part, double whole) { return whole > 0.0 ? 100.0 * part / whole : 0.0; }

struct CatRow {
  const char* name;
  double RankBreakdown::* field;
};

constexpr CatRow kBusyRows[] = {
    {"useful", &RankBreakdown::useful},
    {"retry_compute", &RankBreakdown::retry_compute},
    {"db_io", &RankBreakdown::db_io},
    {"checkpoint_io", &RankBreakdown::checkpoint_io},
    {"shuffle_io", &RankBreakdown::shuffle_io},
    {"spill_io", &RankBreakdown::spill_io},
    {"other_busy", &RankBreakdown::other_busy},
};
constexpr CatRow kIdleRows[] = {
    {"collective_skew", &RankBreakdown::collective_skew},
    {"recovery_wait", &RankBreakdown::recovery_wait},
    {"steal_wait", &RankBreakdown::steal_wait},
    {"termination_wait", &RankBreakdown::termination_wait},
    {"master_wait", &RankBreakdown::master_wait},
    {"comm_overhead", &RankBreakdown::comm_overhead},
    {"idle_other", &RankBreakdown::idle_other},
};

}  // namespace

void print_report(std::FILE* out, const Report& report, std::size_t max_rank_rows) {
  std::fprintf(out, "== performance report ==\n");
  std::fprintf(out, "ranks %d   makespan %.6f s   trace level %s\n", report.nranks,
               report.makespan, report.level == trace::Level::Full ? "full" : "phases");

  std::fprintf(out, "\n-- critical path: %.6f s, %d rank hop%s, %zu segments --\n",
               report.path.length, report.path.hops, report.path.hops == 1 ? "" : "s",
               report.path.segments.size());
  std::fprintf(out, "%-24s %14s %8s\n", "label", "seconds", "share");
  for (const LabelShare& s : report.path.by_label) {
    std::fprintf(out, "%-24s %14.6f %7.2f%%\n", s.label.c_str(), s.seconds,
                 pct(s.seconds, report.path.length));
  }

  const double rank_seconds = report.total.final_time;
  std::fprintf(out, "\n-- time decomposition (all ranks, %% of %.6f rank-seconds) --\n",
               rank_seconds);
  std::fprintf(out, "%-24s %14s %8s\n", "category", "seconds", "share");
  for (const CatRow& row : kBusyRows) {
    std::fprintf(out, "%-24s %14.6f %7.2f%%\n", row.name, report.total.*row.field,
                 pct(report.total.*row.field, rank_seconds));
  }
  for (const CatRow& row : kIdleRows) {
    std::fprintf(out, "%-24s %14.6f %7.2f%%\n", row.name, report.total.*row.field,
                 pct(report.total.*row.field, rank_seconds));
  }
  std::fprintf(out, "%-24s %14.6f %7.2f%%   (%% of rank-time waiting)\n", "total_idle",
               report.total.idle_total(), pct(report.total.idle_total(), rank_seconds));

  const std::size_t nrows =
      std::min(max_rank_rows, report.ranks.size());
  std::fprintf(out, "\n-- per-rank breakdown (first %zu of %d) --\n", nrows, report.nranks);
  std::fprintf(out, "%5s %11s %11s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
               "rank", "final", "useful", "retry", "db_io", "ckpt", "shuf", "spill",
               "obusy", "cskew", "rwait", "swait", "twait", "mwait", "comm", "idle");
  for (std::size_t i = 0; i < nrows; ++i) {
    const RankBreakdown& b = report.ranks[i];
    std::fprintf(out,
                 "%5d %11.4f %11.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f "
                 "%9.4f %9.4f %9.4f %9.4f %9.4f\n",
                 b.rank, b.final_time, b.useful, b.retry_compute, b.db_io,
                 b.checkpoint_io, b.shuffle_io, b.spill_io, b.other_busy,
                 b.collective_skew, b.recovery_wait, b.steal_wait, b.termination_wait,
                 b.master_wait, b.comm_overhead, b.idle_other);
  }

  if (!report.phase_skew.empty()) {
    std::fprintf(out, "\n-- per-phase skew (per-rank seconds, stats over all %d ranks) --\n",
                 report.nranks);
    std::fprintf(out, "%-20s %6s %11s %11s %9s %7s   %s\n", "phase", "active",
                 "mean", "max", "max_rank", "cov", "slowest (dominant)");
    for (const PhaseSkew& ps : report.phase_skew) {
      std::fprintf(out, "%-20s %6d %11.4f %11.4f %9d %7.3f  ", ps.phase.c_str(),
                   ps.ranks_active, ps.mean, ps.max, ps.max_rank, ps.cov);
      for (const RankPhaseTime& t : ps.top) {
        std::fprintf(out, " %d:%s(%.4f)", t.rank, t.dominant.c_str(), t.seconds);
      }
      std::fputc('\n', out);
    }
  }

  if (report.stragglers.empty()) {
    std::fprintf(out, "\nstragglers: none (median busy %.6f s)\n", report.median_busy);
  } else {
    std::fprintf(out, "\nstragglers (busy > k x median %.6f s):\n", report.median_busy);
    for (const Straggler& s : report.stragglers) {
      std::fprintf(out, "  rank %d: busy %.6f s (%.2fx median), dominant %s (%.6f s)\n",
                   s.rank, s.busy_seconds, s.ratio, s.dominant.c_str(),
                   s.dominant_seconds);
    }
  }
}

namespace {

void json_breakdown(std::FILE* out, const RankBreakdown& b) {
  std::fprintf(out,
               "{\"rank\":%d,\"final_time\":%.17g,\"useful\":%.17g,"
               "\"retry_compute\":%.17g,\"db_io\":%.17g,\"checkpoint_io\":%.17g,"
               "\"shuffle_io\":%.17g,\"spill_io\":%.17g,\"other_busy\":%.17g,"
               "\"collective_skew\":%.17g,\"recovery_wait\":%.17g,"
               "\"steal_wait\":%.17g,\"termination_wait\":%.17g,\"master_wait\":%.17g,"
               "\"comm_overhead\":%.17g,\"idle_other\":%.17g}",
               b.rank, b.final_time, b.useful, b.retry_compute, b.db_io, b.checkpoint_io,
               b.shuffle_io, b.spill_io, b.other_busy, b.collective_skew,
               b.recovery_wait, b.steal_wait, b.termination_wait, b.master_wait,
               b.comm_overhead, b.idle_other);
}

}  // namespace

void write_report_json(std::FILE* out, const Report& report, const Registry* metrics,
                       const TimeSeries* timeseries) {
  std::fprintf(out, "{\"nranks\":%d,\"level\":\"%s\",\"makespan\":%.17g,", report.nranks,
               report.level == trace::Level::Full ? "full" : "phases", report.makespan);
  std::fprintf(out, "\"critical_path\":{\"length\":%.17g,\"hops\":%d,\"by_label\":[",
               report.path.length, report.path.hops);
  for (std::size_t i = 0; i < report.path.by_label.size(); ++i) {
    if (i != 0) std::fputc(',', out);
    std::fputs("{\"label\":", out);
    write_json_string(out, report.path.by_label[i].label);
    std::fprintf(out, ",\"seconds\":%.17g}", report.path.by_label[i].seconds);
  }
  std::fputs("],\"segments\":[", out);
  for (std::size_t i = 0; i < report.path.segments.size(); ++i) {
    const PathSegment& s = report.path.segments[i];
    if (i != 0) std::fputc(',', out);
    std::fprintf(out, "{\"rank\":%d,\"t0\":%.17g,\"t1\":%.17g,\"label\":", s.rank, s.t0,
                 s.t1);
    write_json_string(out, s.label);
    std::fputc('}', out);
  }
  std::fputs("]},\"breakdown\":{\"total\":", out);
  json_breakdown(out, report.total);
  std::fputs(",\"ranks\":[", out);
  for (std::size_t i = 0; i < report.ranks.size(); ++i) {
    if (i != 0) std::fputc(',', out);
    json_breakdown(out, report.ranks[i]);
  }
  std::fprintf(out, "]},\"median_busy\":%.17g,\"stragglers\":[", report.median_busy);
  for (std::size_t i = 0; i < report.stragglers.size(); ++i) {
    const Straggler& s = report.stragglers[i];
    if (i != 0) std::fputc(',', out);
    std::fprintf(out, "{\"rank\":%d,\"busy_seconds\":%.17g,\"ratio\":%.17g,\"dominant\":",
                 s.rank, s.busy_seconds, s.ratio);
    write_json_string(out, s.dominant);
    std::fprintf(out, ",\"dominant_seconds\":%.17g}", s.dominant_seconds);
  }
  std::fputs("],\"phase_skew\":[", out);
  for (std::size_t i = 0; i < report.phase_skew.size(); ++i) {
    const PhaseSkew& ps = report.phase_skew[i];
    if (i != 0) std::fputc(',', out);
    std::fputs("{\"phase\":", out);
    write_json_string(out, ps.phase);
    std::fprintf(out,
                 ",\"ranks_active\":%d,\"mean\":%.17g,\"max\":%.17g,"
                 "\"max_rank\":%d,\"cov\":%.17g,\"top\":[",
                 ps.ranks_active, ps.mean, ps.max, ps.max_rank, ps.cov);
    for (std::size_t j = 0; j < ps.top.size(); ++j) {
      const RankPhaseTime& t = ps.top[j];
      if (j != 0) std::fputc(',', out);
      std::fprintf(out, "{\"rank\":%d,\"seconds\":%.17g,\"dominant\":", t.rank, t.seconds);
      write_json_string(out, t.dominant);
      std::fprintf(out, ",\"dominant_seconds\":%.17g}", t.dominant_seconds);
    }
    std::fputs("]}", out);
  }
  std::fputs("]", out);
  if (metrics != nullptr) {
    std::fputs(",\"metrics\":", out);
    metrics->write_json(out);
  }
  if (timeseries != nullptr) {
    std::fputs(",\"timeseries\":", out);
    timeseries->write_json(out);
  }
  std::fputs("}", out);
}

}  // namespace mrbio::obs
