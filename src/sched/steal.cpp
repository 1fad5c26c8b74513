// Decentralized work stealing.
//
// Every rank seeds a private deque with the static chunk partition of the
// task list (minus checkpoint-restored tasks), pops work from the front,
// and — once drained — steals a bounded batch from the back of a randomly
// chosen victim's deque. There is no central grant loop: with the
// fault-tolerant ledger disabled, no rank is special and the only
// per-task communication is the (rare) steal traffic, which is what lets
// this policy scale past the master-worker protocol's rank-0 wall.
//
// Termination (plain variant) is detected with a Safra-style token over
// the ring 0 -> 1 -> ... -> P-1 -> 0. Only work-bearing steal responses
// count: each rank keeps a balance `counter` (work messages sent minus
// received) and turns black on receiving work; rank 0 circulates a token
// accumulating the balances and declares termination when a white token
// returns with a zero global balance while rank 0 itself stayed white.
// Rank 0 relaunches the token as soon as a round comes back without that
// proof, and a rank forwards it only from its passive loop: a round never
// passes a rank that still works, so the work itself paces the rounds (at
// a few ranks one costs microseconds, at thousands the ring's own latency
// bounds them) and the end of the last task is seen one round later, with
// no time constant in between. Steal requests, empty responses, and the
// token itself are control messages — they can never activate a passive
// rank, so they are neither counted nor blackening, and an idle rank's
// re-stealing cannot livelock the probe. Every steal-layer message
// carries the map epoch, so a straggler from map N is recognized and
// dropped in map N+1.
//
// Fault-tolerant variant: the exactly-once commit ledger is sharded by
// task range across the ranks (sharded.cpp) — every rank runs its deque
// AND owns the ledger slice of its seeded range, with deterministic
// successor failover when an owner (including rank 0) dies. Deque and
// stolen tasks are *claims*: they stay Pending in their shard until the
// completion report commits them, and first-commit-wins deduplicates any
// grant/claim overlap.
#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/internal.hpp"

namespace mrbio::sched {

namespace {

/// How long a working rank listens for thieves between tasks. Must be
/// strictly positive so the receive actually blocks (and, on the sim
/// backend, yields to lower-virtual-time ranks); small enough to vanish
/// next to any real task cost.
constexpr double kServeWindow = 1e-9;

/// Deterministic per-rank victim-selection generator: independent of
/// sibling ranks, stable across runs for a given (seed, epoch, rank).
Rng make_steal_rng(const StealConfig& cfg, std::uint32_t epoch, int rank) {
  return Rng(mix64(cfg.seed ^ (static_cast<std::uint64_t>(epoch) << 24) ^
                   static_cast<std::uint64_t>(rank)));
}

/// Victim side: give away up to half the deque (never more than the
/// thief asked for or the configured batch), from the back — the owner
/// keeps popping the front.
std::vector<std::uint64_t> give_tasks(std::deque<std::uint64_t>& dq,
                                      std::uint32_t want, int batch) {
  const std::size_t cap = std::min<std::size_t>(
      {(dq.size() + 1) / 2, want, static_cast<std::size_t>(batch)});
  std::vector<std::uint64_t> tasks;
  tasks.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    tasks.push_back(dq.back());
    dq.pop_back();
  }
  return tasks;
}

// ---------------------------------------------------------------------------
// Plain (non-fault-tolerant) steal with token termination.

void run_steal_plain(MapContext& ctx, std::uint32_t epoch) {
  mpi::Comm& comm = ctx.comm;
  trace::Recorder* rec = ctx.rec;
  obs::Registry* reg = comm.metrics();
  SchedStats& sstats = *ctx.stats;
  ProtocolState& ps = *ctx.proto;
  const int me = comm.rank();
  const int p = comm.size();

  std::deque<std::uint64_t> dq;
  {
    std::set<std::uint64_t> restored;
    if (ctx.restored != nullptr) {
      for (const DoneTask& d : *ctx.restored) restored.insert(d.task);
    }
    const std::uint64_t hi = chunk_hi(ctx.ntasks, me, p);
    for (std::uint64_t t = chunk_lo(ctx.ntasks, me, p); t < hi; ++t) {
      if (restored.count(t) == 0) dq.push_back(t);
    }
  }

  Rng rng = make_steal_rng(ctx.steal, epoch, me);
  std::int64_t counter = 0;  ///< work responses sent minus received
  bool black = false;        ///< received work since the token passed
  bool probe_out = false;    ///< rank 0: token currently circulating
  bool terminated = false;

  auto serve_steal = [&](const rt::Message& m) {
    const StealReq rq = unpack_steal_req(m);
    if (rq.epoch != epoch) return;  // straggler from an earlier map
    StealResp resp;
    resp.epoch = epoch;
    resp.seq = rq.seq;
    resp.tasks = give_tasks(dq, rq.max, ctx.steal.batch);
    if (!resp.tasks.empty()) ++counter;
    comm.send_bytes(m.source, kTagStealResp, pack_steal_resp(resp));
  };
  // Serving point between tasks: briefly *block* for thief requests
  // instead of merely probing. Under the conservative sim a compute-bound
  // rank is never preempted, so a non-blocking probe runs ahead of the
  // thieves' clocks and would never observe their requests; yielding for
  // an instant lets lagging ranks catch up, after which every request
  // that has arrived by now (in virtual time) is matched. Costs
  // kServeWindow of virtual time per task when nobody is stealing —
  // negligible against any real task — and on the native backend it
  // degrades to an ordinary short-timeout receive.
  auto drain_steals = [&] {
    rt::Message m;
    while (comm.recv_bytes_deadline(mpi::kAnySource, kTagSteal,
                                    comm.now() + kServeWindow,
                                    &m) == rt::RecvStatus::Ok) {
      serve_steal(m);
    }
  };
  auto handle_token = [&](const rt::Message& m) {
    const StealToken tk = unpack_token(m);
    if (tk.epoch != epoch) return;
    if (me == 0) {
      probe_out = false;
      if (tk.black == 0 && !black && tk.count + counter == 0) terminated = true;
    } else {
      StealToken fwd;
      fwd.epoch = epoch;
      fwd.black = (tk.black != 0 || black) ? 1 : 0;
      fwd.count = tk.count + counter;
      comm.send_bytes((me + 1) % p, kTagToken, pack_token(fwd));
      black = false;
    }
  };
  // Passive-side state. Everything a rank without work can receive —
  // thief requests, its own steal response, the termination token, stop —
  // funnels through ONE any-source/any-tag receive, so each of them wakes
  // the blocked rank the moment it arrives. This matters for scale: if
  // the token instead waited behind a fixed nap at every hop, one
  // circulation would cost p * nap of serial virtual time, and the
  // termination tail alone would dwarf the map at thousands of ranks.
  double nap = ctx.steal.backoff_init;
  bool awaiting = false;     ///< a steal request is outstanding
  int victim = -1;
  std::uint32_t seq = 0;
  double next_attempt = 0.0;  ///< earliest time for the next steal attempt
  double t_idle = -1.0;       ///< start of the open steal_wait span, if any

  auto close_idle = [&] {
    if (t_idle >= 0.0 && rec != nullptr) {
      rec->add(me, trace::Category::Fault, "steal_wait", t_idle, comm.now());
    }
    t_idle = -1.0;
  };

  while (true) {
    if (!awaiting) {
      drain_steals();
      if (!dq.empty()) {
        close_idle();
        const std::uint64_t t = dq.front();
        dq.pop_front();
        ctx.exec->run_direct(t, /*retry=*/false);
        nap = ctx.steal.backoff_init;
        continue;
      }
    }
    if (t_idle < 0.0) t_idle = comm.now();

    if (me == 0) {
      if (terminated) {
        close_idle();
        ByteWriter w;
        w.put(epoch);
        const std::vector<std::byte> stop = w.take();
        for (int r = 1; r < p; ++r) comm.send_bytes(r, kTagStop, stop);
        return;
      }
      // Relaunch the moment the previous round returned unproven. The
      // token waits at every rank that still works, so rounds cannot
      // outrun the work.
      if (!probe_out) {
        StealToken tk;
        tk.epoch = epoch;
        comm.send_bytes(1, kTagToken, pack_token(tk));
        black = false;
        probe_out = true;
        if (reg != nullptr) reg->counter("sched.token_rounds").inc();
        continue;
      }
    }

    // Out of work: keep one randomized steal request outstanding, with an
    // exponential pause between empty-handed attempts. The response is
    // never abandoned — without an injector the transport is reliable, so
    // it arrives once the victim next serves requests (between its tasks
    // at the latest).
    if (!awaiting && comm.now() >= next_attempt) {
      victim = static_cast<int>(rng.below(static_cast<std::uint64_t>(p - 1)));
      if (victim >= me) ++victim;
      seq = ++ps.steal_seq;
      StealReq rq;
      rq.epoch = epoch;
      rq.seq = seq;
      rq.max = static_cast<std::uint32_t>(ctx.steal.batch);
      comm.send_bytes(victim, kTagSteal, pack_steal_req(rq));
      ++sstats.steals_attempted;
      if (reg != nullptr) reg->counter("sched.steals_attempted").inc();
      awaiting = true;
    }

    // Single dispatcher wait. The deadline only bounds how often we poll
    // the victim's liveness (awaiting) or re-attempt after a backoff
    // pause — every message of interest interrupts the wait on arrival.
    const double deadline = awaiting ? comm.now() + ctx.ft.worker_poll
                                     : std::max(next_attempt, comm.now() + kServeWindow);
    rt::Message m;
    const rt::RecvStatus st =
        comm.recv_bytes_deadline(mpi::kAnySource, mpi::kAnyUserTag, deadline, &m);
    if (st != rt::RecvStatus::Ok) {
      // An any-source wait cannot report PeerDead, so a crashed victim
      // must be caught here: without the ledger the token can never
      // complete, and the timed waits keep every survivor spinning past
      // the engine's deadlock detector. Fail fast instead.
      MRBIO_CHECK(!awaiting || comm.peer_state(victim) != mpi::PeerState::Failed,
                  "rank ", me, ": rank ", victim,
                  " died during a map without fault tolerance; enable ft (or use "
                  "--scheduler master-ft) to survive worker crashes");
      continue;
    }
    if (m.tag == kTagSteal) {
      serve_steal(m);
      continue;
    }
    if (m.tag == kTagToken) {
      handle_token(m);
      continue;
    }
    if (m.tag == kTagStop && me != 0) {
      // Termination was declared while we waited: any pending response is
      // necessarily empty; abandon it (the next map drops it by epoch).
      ByteReader r(m.payload);
      if (r.get<std::uint32_t>() == epoch) {
        close_idle();
        return;
      }
      continue;
    }
    if (m.tag == kTagStealResp) {
      const StealResp resp = unpack_steal_resp(m);
      if (!awaiting || resp.epoch != epoch || resp.seq != seq) continue;  // straggler
      awaiting = false;
      if (!resp.tasks.empty()) {
        for (const std::uint64_t t : resp.tasks) dq.push_back(t);
        --counter;
        black = true;
        ++sstats.steals_succeeded;
        sstats.tasks_stolen += resp.tasks.size();
        if (reg != nullptr) {
          reg->counter("sched.steals_succeeded").inc();
          reg->counter("sched.tasks_stolen").inc(resp.tasks.size());
        }
        nap = ctx.steal.backoff_init;
        next_attempt = comm.now();
      } else {
        next_attempt = comm.now() + jittered(nap, rng);
        nap = std::min(nap * 2.0, ctx.steal.backoff_max);
      }
      continue;
    }
    MRBIO_CHECK(false, "rank ", me, ": unexpected tag ", m.tag,
                " from rank ", m.source, " in the steal map loop");
  }
}

class StealScheduler final : public Scheduler {
 public:
  const char* name() const override { return "steal"; }

  void execute(MapContext& ctx) override {
    // The epoch advances on every steal map so stragglers from the
    // previous map are recognized; it must move in lockstep on all ranks
    // (execute() is collective, so it does).
    const std::uint32_t epoch = ++ctx.proto->epoch;
    if (ctx.comm.size() == 1) {
      run_all_local(ctx);
      return;
    }
    if (ctx.ft.enabled) {
      run_sharded_steal(ctx, epoch);
    } else {
      run_steal_plain(ctx, epoch);
    }
  }
};

}  // namespace

std::unique_ptr<Scheduler> make_steal_scheduler() {
  return std::make_unique<StealScheduler>();
}

}  // namespace mrbio::sched
