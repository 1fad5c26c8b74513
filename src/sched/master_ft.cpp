// The fault-tolerant exactly-once protocol: a work ledger on rank 0 and
// staging workers. Serves two strategies — master-worker (rank 0 is the
// only task source) and steal (the ledger is a backstop behind the
// workers' own deques; see steal.cpp). The wire protocol and its
// invariants are documented in internal.hpp.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/detector.hpp"
#include "obs/timeseries.hpp"
#include "sched/internal.hpp"

namespace mrbio::sched {

namespace {

/// Master-side lifecycle of one task in the exactly-once work ledger.
enum class TaskState : std::uint8_t { Pending, Outstanding, Done, Failed };

struct TaskEntry {
  TaskState state = TaskState::Pending;
  int owner = -1;               ///< worker the newest attempt was granted to
  std::uint32_t owner_inc = 0;  ///< that worker's incarnation at grant time
  std::uint32_t attempt = 0;    ///< attempts granted so far
  double granted = 0.0;         ///< grant time of the newest attempt
  double deadline = 0.0;        ///< service deadline of the newest attempt
};

}  // namespace

void run_ledger_master(MapContext& ctx) {
  mpi::Comm& comm = ctx.comm;
  trace::Recorder* rec = ctx.rec;
  obs::Registry* reg = comm.metrics();
  const FtConfig& ft = ctx.ft;
  const std::uint64_t ntasks = ctx.ntasks;
  const AffinityFn* affinity = ctx.affinity;
  const int nworkers = comm.size() - 1;
  fault::Injector* inj = comm.runtime().faults();
  SchedStats& sstats = *ctx.stats;

  // The exactly-once work ledger, plus pending-task buckets keyed by
  // locality (one bucket, key 0, in plain FIFO mode). Buckets may hold
  // stale ids — a task can transition away from Pending while queued — so
  // every pop re-checks the ledger; the state counters below are the
  // authoritative progress measure.
  std::vector<TaskEntry> ledger(ntasks);
  std::map<std::uint64_t, std::deque<std::uint64_t>> pending;
  auto task_key = [&](std::uint64_t t) {
    return affinity != nullptr ? (*affinity)(t) : std::uint64_t{0};
  };
  for (std::uint64_t t = 0; t < ntasks; ++t) pending[task_key(t)].push_back(t);
  std::uint64_t npending = ntasks;
  std::uint64_t noutstanding = 0;
  std::uint64_t ndone = 0;
  std::uint64_t nfailed = 0;

  // Tasks restored from a checkpoint enter the ledger as already committed
  // by their restoring rank, at that rank's CURRENT incarnation: if the
  // keeper crashes later, revert_worker() puts exactly these tasks back in
  // play, the same as freshly committed ones (the replayed data died with
  // the process). The pending buckets keep their stale ids; pop_bucket
  // re-checks the ledger and discards them.
  if (ctx.restored != nullptr) {
    for (const DoneTask& d : *ctx.restored) {
      TaskEntry& e = ledger[d.task];
      if (e.state != TaskState::Pending) continue;
      e.state = TaskState::Done;
      e.owner = d.owner;
      e.owner_inc = d.owner_inc;
      --npending;
      ++ndone;
    }
  }

  // Outstanding-attempt deadlines, lazily invalidated: an entry counts
  // only if the ledger still shows that exact deadline outstanding.
  std::multimap<double, std::uint64_t> expiry;

  // Per-worker transport state persists across map() calls (see the
  // ProtocolState comment in sched.hpp); only the per-map stop flag
  // resets. Workers that announced a permanent death in an earlier map
  // are accounted up front — they may re-announce, but the master must
  // not depend on that announcement arriving (it can be dropped).
  ctx.proto->workers.resize(static_cast<std::size_t>(comm.size()));
  std::vector<FtWorkerView>& workers = ctx.proto->workers;
  std::map<int, std::uint64_t> worker_key;  ///< last locality key per worker
  int accounted = 0;  ///< workers currently stopped or dead
  for (FtWorkerView& w : workers) {
    w.stopped = false;
    if (w.dead) ++accounted;
  }

  // Crash notifications can still be in flight when the last worker is
  // stopped, so with an injector present the master lingers for a quiet
  // window before leaving (see DESIGN.md for the delay-bound assumption).
  const double quiet_window =
      inj != nullptr ? std::max(4.0 * ft.worker_poll, 0.2) : 0.0;
  double quiet_since = comm.now();

  auto settled = [&] { return ndone + nfailed == ntasks; };

  // Adaptive timeout: grant-to-commit service times feed the estimator,
  // so --ft-timeout 0 tracks ~4 x p99 of the observed task cost instead
  // of a fixed guess. The phi-accrual detector scores the gap since each
  // worker's last protocol message (its requests double as heartbeats).
  TimeoutEstimator est;
  fault::PhiAccrualDetector det(ft.heartbeat);

  auto attempt_timeout = [&](std::uint32_t attempt) {
    return effective_timeout(ft, est) *
           std::pow(ft.backoff, static_cast<double>(attempt - 1));
  };

  // Pops the next genuinely Pending task from `it`'s bucket, discarding
  // stale entries; erases emptied buckets. Returns -1 if none.
  auto pop_bucket = [&](auto it) -> std::int64_t {
    while (!it->second.empty()) {
      const std::uint64_t t = it->second.front();
      it->second.pop_front();
      if (ledger[t].state == TaskState::Pending) {
        if (it->second.empty()) pending.erase(it);
        return static_cast<std::int64_t>(t);
      }
    }
    pending.erase(it);
    return -1;
  };

  // Locality-aware choice, same policy as the plain locality master:
  // prefer the worker's current key, else drain the largest bucket.
  auto pick_task = [&](int src) -> std::int64_t {
    if (npending == 0) return -1;
    if (affinity != nullptr) {
      const auto known = worker_key.find(src);
      if (known != worker_key.end()) {
        const auto it = pending.find(known->second);
        if (it != pending.end()) {
          const std::int64_t t = pop_bucket(it);
          if (t >= 0) return t;
        }
      }
    }
    while (!pending.empty()) {
      auto it = pending.begin();
      if (affinity != nullptr) {
        for (auto cand = pending.begin(); cand != pending.end(); ++cand) {
          if (cand->second.size() > it->second.size()) it = cand;
        }
      }
      const std::int64_t t = pop_bucket(it);
      if (t >= 0) return t;
    }
    return -1;
  };

  auto grant_task = [&](int src, std::uint64_t task) {
    TaskEntry& e = ledger[task];
    e.state = TaskState::Outstanding;
    e.owner = src;
    e.owner_inc = workers[static_cast<std::size_t>(src)].incarnation;
    ++e.attempt;
    e.granted = comm.now();
    e.deadline = e.granted + attempt_timeout(e.attempt);
    expiry.emplace(e.deadline, task);
    --npending;
    ++noutstanding;
    if (affinity != nullptr) worker_key[src] = task_key(task);
  };

  // Reverts every task owned by `w` at an incarnation older than
  // `live_inc` back to Pending: the data those attempts produced lived in
  // the crashed process and is gone, whether or not it was committed.
  auto revert_worker = [&](int w, std::uint32_t live_inc) {
    for (std::uint64_t t = 0; t < ntasks; ++t) {
      TaskEntry& e = ledger[t];
      if (e.owner != w || e.owner_inc >= live_inc) continue;
      if (e.state != TaskState::Outstanding && e.state != TaskState::Done) continue;
      if (e.state == TaskState::Outstanding) {
        --noutstanding;
      } else {
        --ndone;
      }
      e.state = TaskState::Pending;
      e.owner = -1;
      pending[task_key(t)].push_back(t);
      ++npending;
    }
  };

  // Expires overdue outstanding attempts: retry with a longer deadline
  // later, or declare the task failed once the budget is spent. Returns
  // true if anything expired (the wait that noticed it was recovery time).
  auto handle_expiries = [&] {
    const double now = comm.now();
    bool any = false;
    while (!expiry.empty() && expiry.begin()->first <= now) {
      const std::uint64_t t = expiry.begin()->second;
      const double dl = expiry.begin()->first;
      expiry.erase(expiry.begin());
      TaskEntry& e = ledger[t];
      if (e.state != TaskState::Outstanding || e.deadline != dl) continue;  // stale
      any = true;
      --noutstanding;
      if (reg != nullptr) {
        reg->histogram("ft.retry_latency_seconds").observe(now - e.granted);
      }
      if (obs::EventLog* el = comm.runtime().eventlog(); el != nullptr) {
        el->log(LogLevel::Warn, comm.rank(), "mrmpi",
                format_msg("task ", t, " attempt ", e.attempt, " timed out on worker ",
                           e.owner));
      }
      if (e.attempt >= static_cast<std::uint32_t>(1 + ft.max_retries)) {
        e.state = TaskState::Failed;
        ++nfailed;
        ++sstats.tasks_failed;
      } else {
        e.state = TaskState::Pending;
        e.owner = -1;
        pending[task_key(t)].push_back(t);
        ++npending;
        ++sstats.tasks_retried;
        if (reg != nullptr) reg->counter("ft.tasks_retried").inc();
      }
    }
    return any;
  };

  // Evicts workers the phi-accrual detector suspects: their outstanding
  // attempts expire immediately instead of waiting out the full task
  // timeout. Off unless --heartbeat enables the detector.
  auto evict_suspects = [&] {
    if (!det.config().enabled) return;
    const double now = comm.now();
    for (int r = 1; r < comm.size(); ++r) {
      FtWorkerView& w = workers[static_cast<std::size_t>(r)];
      if (w.dead || w.stopped || !det.suspect(r, now)) continue;
      bool any = false;
      for (std::uint64_t t = 0; t < ntasks; ++t) {
        TaskEntry& e = ledger[t];
        if (e.state != TaskState::Outstanding || e.owner != r) continue;
        // Pull the deadline forward: the shared expiry path does the
        // retry-or-fail accounting on the next handle_expiries().
        expiry.emplace(now, t);
        e.deadline = now;
        any = true;
      }
      if (any) {
        ++sstats.evictions;
        if (reg != nullptr) reg->counter("ft.evictions").inc();
        if (rec != nullptr) {
          rec->add(comm.rank(), trace::Category::Fault, "phi_evict", now, now);
        }
      }
      det.forget(r);  // a recovered worker re-earns trust from a clean window
    }
    if (reg != nullptr) reg->gauge("fault.phi_max").set(det.max_phi(now));
  };

  while (true) {
    evict_suspects();
    handle_expiries();
    if (obs::TimeSeries* ts = comm.runtime().timeseries(); ts != nullptr) {
      ts->sample(comm.rank(), "mrmpi.pending_tasks", comm.now(),
                 static_cast<double>(npending));
    }

    // Endgame: every worker has left (or died) but reverted/never-granted
    // tasks remain — run them on the master so a late crash can never
    // strand work. Graceful degradation beats byte-identity loss.
    if (accounted == nworkers && npending > 0) {
      for (std::int64_t t = pick_task(0); t >= 0; t = pick_task(0)) {
        const std::uint64_t task = static_cast<std::uint64_t>(t);
        TaskEntry& e = ledger[task];
        ++e.attempt;
        ctx.exec->run_direct(task, /*retry=*/e.attempt > 1);
        e.state = TaskState::Done;
        e.owner = 0;
        --npending;
        ++ndone;
      }
      quiet_since = comm.now();  // restart the crash-notification window
    }

    if (accounted == nworkers && settled() &&
        comm.now() >= quiet_since + quiet_window) {
      break;
    }

    double wake = comm.now() + effective_timeout(ft, est);  // heartbeat
    if (det.config().enabled) wake = std::min(wake, comm.now() + det.config().interval);
    if (!expiry.empty()) wake = std::min(wake, expiry.begin()->first);
    if (accounted == nworkers && settled()) {
      wake = std::min(wake, quiet_since + quiet_window);
    }

    rt::Message m;
    const double t_wait = comm.now();
    const rt::RecvStatus st = comm.recv_bytes_deadline(mpi::kAnySource, kTagDone, wake, &m);
    if (st != rt::RecvStatus::Ok) {
      const bool recovered = handle_expiries();
      const bool draining = accounted == nworkers && settled();
      if (rec != nullptr && (recovered || draining)) {
        rec->add(comm.rank(), trace::Category::Fault, "recovery_wait", t_wait,
                 comm.now());
      }
      continue;
    }

    quiet_since = comm.now();
    const WireReq req = unpack_req(m);
    const int src = m.source;
    MRBIO_CHECK(src >= 1 && src < comm.size(), "ft request from bad rank ", src);
    det.heard(src, comm.now());
    FtWorkerView& w = workers[static_cast<std::size_t>(src)];

    if (req.seq < w.last_seq) continue;  // ancient duplicate: drop
    if (req.seq == w.last_seq) {
      // Resend of an answered request: replay the cached grant verbatim.
      comm.send_bytes(src, kTagTask, w.cached_grant);
      continue;
    }

    const double t0 = comm.now();

    if (req.incarnation > w.incarnation) {
      // The worker respawned: everything its older incarnations produced
      // died with them. Put those tasks back in play.
      ++sstats.worker_deaths;
      if (reg != nullptr) reg->counter("ft.worker_deaths").inc();
      revert_worker(src, req.incarnation);
      w.incarnation = req.incarnation;
      worker_key.erase(src);
      if (w.stopped) {
        // It was told to leave but crashed first; it is back in the pool.
        w.stopped = false;
        --accounted;
      }
    }

    WireGrant g;
    g.seq = req.seq;

    if (req.dead != 0) {
      // Permanent death: acknowledge with STOP so the notification loop
      // ends; the incarnation bump above already reverted its tasks.
      if (!w.dead) {
        w.dead = true;
        if (!w.stopped) ++accounted;
      }
      g.commit = 0;
      g.assign = kAssignStop;
    } else {
      if (req.completed_task >= 0) {
        const std::uint64_t task = static_cast<std::uint64_t>(req.completed_task);
        MRBIO_CHECK(task < ntasks, "ft completion for bad task ", task);
        TaskEntry& e = ledger[task];
        if (e.state == TaskState::Done) {
          g.commit = 0;  // another attempt won; discard this copy
        } else {
          // Commit even if the attempt was presumed lost (Pending again
          // after a timeout) or written off (Failed): the work is real
          // and the worker holds the data. Under the steal policy this is
          // also the common case — deque and stolen tasks are Pending in
          // the ledger until their first completion report lands here.
          g.commit = 1;
          if (e.state == TaskState::Pending) --npending;
          if (e.state == TaskState::Outstanding) {
            --noutstanding;
            est.observe(comm.now() - e.granted);
          }
          if (e.state == TaskState::Failed) {
            --nfailed;
            --sstats.tasks_failed;
          }
          e.state = TaskState::Done;
          e.owner = src;
          e.owner_inc = req.incarnation;
          ++ndone;
        }
      }
      // Steal mode: a worker with local work reports wants = 0 and only
      // needs the commit decision; granting it a task here would
      // duplicate work that some deque already holds.
      const std::int64_t task = req.wants != 0 ? pick_task(src) : -1;
      if (task >= 0) {
        grant_task(src, static_cast<std::uint64_t>(task));
        g.assign = task;
        g.attempt = ledger[static_cast<std::uint64_t>(task)].attempt;
      } else if (settled()) {
        g.assign = kAssignStop;
        if (!w.stopped) {
          w.stopped = true;
          ++accounted;
        }
      } else {
        // Work may reappear if an outstanding attempt times out (or, in
        // steal mode, simply still lives in other workers' deques).
        g.assign = kAssignRetryLater;
      }
    }

    w.last_seq = req.seq;
    w.cached_grant = pack_grant(g);
    comm.send_bytes(src, kTagTask, w.cached_grant);

    if (rec != nullptr) {
      rec->add(comm.rank(), trace::Category::Phase, "mw_service", t0, comm.now());
    }
    if (reg != nullptr) {
      reg->histogram("mrmpi.master_service_seconds").observe(comm.now() - t0);
    }
  }

  if (ctx.failed != nullptr) {
    for (std::uint64_t t = 0; t < ntasks; ++t) {
      if (ledger[t].state == TaskState::Failed) ctx.failed->push_back(t);
    }
  }
}

void run_ft_worker(MapContext& ctx) {
  mpi::Comm& comm = ctx.comm;
  trace::Recorder* rec = ctx.rec;
  const FtConfig& ft = ctx.ft;
  fault::Injector* inj = comm.runtime().faults();
  const int me = comm.rank();
  ProtocolState& ps = *ctx.proto;

  // Protocol identity (incarnation, seq) survives both simulated crashes
  // (a supervisor restarting the worker would replay its transport-level
  // counters) and map() boundaries — a delayed grant from an earlier map
  // must never match a fresh request by seq aliasing.
  /// Permanent crash: only announce, take no work. A rank that crashed
  /// permanently in an earlier map() of this run stays out of every later
  /// task protocol too (it still participates in collectives).
  bool dead = inj != nullptr && inj->permanently_crashed(me);

  // Retry-wait pacing: seeded jitter plus a capped exponential ramp, so
  // idle workers' poll storms decohere instead of hammering the master in
  // lockstep, while the timeline stays a pure function of (seed, epoch,
  // rank). The ramp resets whenever the master hands out anything real.
  Rng rng(mix64(ctx.steal.seed ^ (static_cast<std::uint64_t>(ps.epoch) << 24) ^
                static_cast<std::uint64_t>(me) ^ 0x9e3779b97f4a7c15ULL));
  int idle_rounds = 0;

  // State of the current (crashable) incarnation.
  std::int64_t completed = -1;  ///< finished task awaiting its commit
  std::uint32_t completed_attempt = 0;

  while (true) {
    try {
      if (inj != nullptr && !dead) inj->maybe_crash(me, comm.now());

      WireReq req;
      req.incarnation = ps.incarnation;
      req.seq = ++ps.seq;
      req.dead = dead ? 1 : 0;
      req.completed_task = completed;
      req.attempt = completed_attempt;
      const std::vector<std::byte> wire = pack_req(req);
      comm.send_bytes(0, kTagDone, wire);

      WireGrant g;
      int resends = 0;
      while (true) {
        rt::Message m;
        const rt::RecvStatus st = comm.recv_bytes_deadline(
            0, kTagTask, comm.now() + ft.worker_poll, &m);
        MRBIO_CHECK(st != rt::RecvStatus::PeerDead, "rank ", me,
                    ": master (rank 0) died; the run cannot recover");
        if (st == rt::RecvStatus::Timeout) {
          if (inj != nullptr && !dead) inj->maybe_crash(me, comm.now());
          ++resends;
          MRBIO_CHECK(resends <= ft.max_resends, "rank ", me,
                      ": master unresponsive after ", resends,
                      " request resends; giving up");
          comm.send_bytes(0, kTagDone, wire);
          continue;
        }
        g = unpack_grant(m);
        if (g.seq == req.seq) break;
        // Stale grant for an earlier (resent) request: drain and re-wait.
      }

      if (completed >= 0) {
        if (g.commit != 0) {
          // Journal at the commit decision, not at task completion:
          // discarded attempts never reach the map log.
          ctx.exec->commit_staged(static_cast<std::uint64_t>(completed));
        } else {
          ctx.exec->discard_staged();
        }
        completed = -1;
        completed_attempt = 0;
      }
      if (g.assign == kAssignStop) return;
      if (g.assign == kAssignRetryLater) {
        const double t0 = comm.now();
        const double ramp =
            std::min(std::pow(ft.backoff, static_cast<double>(idle_rounds)), 8.0);
        if (idle_rounds < 16) ++idle_rounds;
        comm.sleep_until(comm.now() + jittered(ft.worker_poll * ramp, rng));
        if (rec != nullptr) {
          rec->add(me, trace::Category::Fault, "retry_wait", t0, comm.now());
        }
        continue;
      }
      idle_rounds = 0;
      const std::uint64_t task = static_cast<std::uint64_t>(g.assign);
      ctx.exec->run_staged(task, /*retry=*/g.attempt > 1);
      completed = g.assign;
      completed_attempt = g.attempt;
    } catch (const fault::CrashSignal&) {
      // Simulated process death. Everything the old incarnation held in
      // memory — staged emissions AND previously committed results — is
      // lost; the master learns this from the incarnation bump (or the
      // dead flag) and reverts the affected ledger entries.
      ctx.exec->on_crash();
      completed = -1;
      completed_attempt = 0;
      ++ps.incarnation;
      dead = inj != nullptr && inj->permanently_crashed(me);
      if (rec != nullptr) {
        rec->add(me, trace::Category::Fault,
                 dead ? "worker_died" : "worker_respawn", comm.now(), comm.now());
      }
    }
  }
}

}  // namespace mrbio::sched
