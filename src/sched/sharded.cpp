// Sharded exactly-once ledger for the fault-tolerant steal policy.
//
// Instead of funnelling every claim and commit through rank 0, the task
// range [0, ntasks) is chunk-partitioned into shard_count(ft, P) ledger
// shards and shard s is owned by rank s — every rank is simultaneously a
// worker (deque + stealing, as in steal.cpp) and, for the shards it owns,
// the exactly-once commit authority of its own task range. Commits and
// grant requests go to the owning shard, so the rank-0 protocol wall of
// the single-master ledger disappears and — more importantly — rank 0
// stops being a single point of failure.
//
// Ownership is a pure function of the acked death set: the owner of shard
// s is the first non-dead rank on the ring s, s+1, ..., so every rank
// that knows the same deaths derives the same owner and no adoption map
// has to be replicated. A dying rank (the fault injector crashes the
// protocol, not the thread, so a dead rank lingers as a *ghost* able to
// send and receive) broadcasts an Obit to the owner set, hands each of
// its shards to the deterministic successor — by ShardImage when no
// durable journal exists, implicitly via the on-disk journal otherwise —
// and retransmits until every successor acked. Because the transport
// reports a peer as Failed only when its whole process exits, death
// discovery rides the protocol itself: obits, the dead-set piggybacked on
// every grant, and neighbor probes for workers stuck on a dead owner's
// channel.
//
// Durability: a shard owner journals every commit decision to its own
// CRC32-framed log BEFORE answering (write-ahead), and journals a revert
// record when a committer's incarnation bumps or the committer dies. A
// successor replays the journal and continues granting; corrupting one
// shard's log therefore re-executes only that shard's task range on
// resume (the host's merge in mapreduce.cpp uses the same records via
// apply_shard_record).
//
// Exactly-once: deque and stolen tasks are *claims* — they stay Pending
// (claimed) in their shard's ledger until the completion report commits
// them, and first-commit-wins deduplicates any overlap. Claims lost to a
// death or an incarnation bump are unclaimed and become grantable;
// without a fault injector nothing is ever unclaimed, so fault-free runs
// execute every task exactly once by construction.
//
// Quiescence: a worker leaves the protocol once every owner told it to
// stop; it then announces a WireExit to every owner and waits for the
// acks. An owner acks exits only after its own worker role passed its
// final fault poll — after acking, it can never die — which guarantees
// that any rank a death could appoint as successor is still in the map.
//
// Endgame: its waits end on the event they wait for, not on a nap. An
// owner that answers RetryLater to a remote asker parks it and sends one
// epoch-stamped Wake once its shards settle or regain grantable work; the
// woken asker re-asks through the ordinary seq/replay exchange, so the
// wake carries no ledger state. A rank parked on its own shards waits on
// their state, the exit handshake ends on the last ack, and the owner
// tail ends when the last other rank exited. The jittered worker_poll
// deadline is only the resend fallback for a lost message.
#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/internal.hpp"

namespace mrbio::sched {

void apply_shard_record(std::span<const std::byte> payload,
                        std::map<std::uint64_t, DoneTask>& commits) {
  try {
    ByteReader r(payload);
    const auto kind = r.get<std::uint8_t>();
    if (kind == kShardCommit) {
      DoneTask d;
      d.task = r.get<std::uint64_t>();
      d.owner = r.get<std::int32_t>();
      d.owner_inc = r.get<std::uint32_t>();
      commits[d.task] = d;
    } else if (kind == kShardRevert) {
      const std::int32_t rank = r.get<std::int32_t>();
      (void)r.get<std::uint32_t>();  // incarnation bound, informational
      for (auto it = commits.begin(); it != commits.end();) {
        it = it->second.owner == rank ? commits.erase(it) : std::next(it);
      }
    }
  } catch (const Error&) {
    // Malformed record: skip it (the CRC framing makes this unlikely, but
    // a journal is external input and must never crash the scheduler).
  }
}

namespace {

constexpr double kServeWindow = 1e-9;  ///< see steal.cpp
/// Unanswered resend rounds on one channel before probing a neighbor for
/// the target's liveness (cheap: a false probe costs one round trip).
constexpr int kProbeEvery = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

Rng make_rng(const StealConfig& cfg, std::uint32_t epoch, int rank) {
  return Rng(mix64(cfg.seed ^ (static_cast<std::uint64_t>(epoch) << 24) ^
                   static_cast<std::uint64_t>(rank)));
}

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

enum class TState : std::uint8_t { Pending, Outstanding, Done, Failed };

struct SEntry {
  TState state = TState::Pending;
  std::int32_t owner = -1;
  std::uint32_t owner_inc = 0;
  std::uint32_t attempt = 0;
  double granted = 0.0;
  double deadline = 0.0;
  /// A Pending task some rank holds in its deque (or stole). Claimed
  /// tasks are not grantable; they are unclaimed when their holder dies,
  /// bumps its incarnation, or the grace deadline expires — and only when
  /// a fault injector exists, so fault-free runs never double-execute.
  bool claimed = false;
};

struct Shard {
  int id = -1;
  std::uint64_t lo = 0, hi = 0;
  std::vector<SEntry> entries;
  std::deque<std::uint64_t> free_q;  ///< grant candidates (lazily invalidated)
  std::uint64_t nfree = 0, nclaimed = 0, nout = 0, ndone = 0, nfail = 0;
  /// Adopted without a durable journal: granting and commit decisions are
  /// deferred until the dying owner's ShardImage arrives.
  bool awaiting_image = false;

  SEntry& at(std::uint64_t t) { return entries[t - lo]; }
  std::uint64_t size() const { return hi - lo; }
  bool settled() const { return ndone + nfail == size(); }
};

/// One map phase of the sharded steal-ft protocol on one rank.
struct ShardedRun {
  MapContext& ctx;
  mpi::Comm& comm;
  obs::Registry* reg;
  trace::Recorder* rec;
  const FtConfig& ft;
  SchedStats& sstats;
  ProtocolState& ps;
  fault::Injector* inj;
  const std::uint32_t epoch;
  const int me, p, nshards;
  const std::uint64_t ntasks;
  Rng rng;

  bool polling = true;      ///< fault polls active (worker phase only)
  bool worker_done = false; ///< this rank's worker role has ended
  bool i_died = false;      ///< permanent death: ghost until handoff acked

  std::deque<std::uint64_t> dq;
  std::int64_t staged = -1;
  std::uint32_t staged_attempt = 0;
  /// Tasks this incarnation has already committed. A task can be handed
  /// to the same rank twice (a stale steal response absorbed after a
  /// ledger re-grant of the same range): the duplicate is re-reported
  /// without re-running, never re-emitted.
  std::set<std::uint64_t> self_done;

  // Owner role.
  std::map<int, Shard> shards;
  std::multimap<double, std::pair<int, std::uint64_t>> expiry;
  double grace = kInf;
  TimeoutEstimator est;
  fault::PhiAccrualDetector det;
  std::set<int> exited;         ///< worker-done declarations (incl. inherited)
  std::set<int> my_exit_acked;  ///< owners that acked this rank's exit
  std::set<int> my_obit_acked;  ///< successors that acked this rank's obit
  std::set<int> pending_exit_acks;  ///< exits to ack once worker_done
  std::vector<std::pair<int, std::int32_t>> pending_obit_acks;  ///< (src, dead)
  std::set<int> parked;  ///< remote askers answered RetryLater, owed a wake
  std::set<int> woken;   ///< owners whose wake arrived since this rank's last ask

  ShardedRun(MapContext& c, std::uint32_t ep)
      : ctx(c),
        comm(c.comm),
        reg(c.comm.metrics()),
        rec(c.rec),
        ft(c.ft),
        sstats(*c.stats),
        ps(*c.proto),
        inj(c.comm.runtime().faults()),
        epoch(ep),
        me(c.comm.rank()),
        p(c.comm.size()),
        nshards(shard_count(c.ft, c.comm.size())),
        ntasks(c.ntasks),
        rng(make_rng(c.steal, ep, c.comm.rank())),
        det(c.ft.heartbeat) {}

  bool alive(int r) const { return ps.peers_dead[r] == 0; }

  /// Pure function of the acked death set: first non-dead rank on the
  /// ring s, s+1, ... owns shard s.
  int owner_of(int s) const {
    for (int k = 0; k < p; ++k) {
      const int r = (s + k) % p;
      if (alive(r)) return r;
    }
    return s;  // everyone dead: unreachable in any completable run
  }

  std::vector<std::int32_t> dead_list() const {
    std::vector<std::int32_t> out;
    for (int r = 0; r < p; ++r) {
      if (!alive(r)) out.push_back(r);
    }
    return out;
  }

  std::vector<int> owner_ranks() const {
    std::vector<int> out;
    for (int s = 0; s < nshards; ++s) {
      const int o = owner_of(s);
      if (std::find(out.begin(), out.end(), o) == out.end()) out.push_back(o);
    }
    return out;
  }

  void poll_crash() {
    if (polling && !i_died && inj != nullptr) inj->maybe_crash(me, comm.now());
  }

  // -- Shard journal ---------------------------------------------------------

  static std::vector<std::byte> enc_commit(std::uint64_t task, std::int32_t owner,
                                           std::uint32_t inc) {
    ByteWriter w;
    w.put(kShardCommit);
    w.put(task);
    w.put(owner);
    w.put(inc);
    return w.take();
  }

  static std::vector<std::byte> enc_revert(std::int32_t rank, std::uint32_t inc) {
    ByteWriter w;
    w.put(kShardRevert);
    w.put(rank);
    w.put(inc);
    return w.take();
  }

  bool journaling() const { return ctx.exec->shard_journal_enabled(); }

  void journal_commit(int shard, std::uint64_t task, std::int32_t owner,
                      std::uint32_t inc) {
    if (journaling()) ctx.exec->shard_journal_append(shard, enc_commit(task, owner, inc));
  }

  void journal_revert(int shard, std::int32_t rank, std::uint32_t inc) {
    if (journaling()) ctx.exec->shard_journal_append(shard, enc_revert(rank, inc));
  }

  // -- Ledger ----------------------------------------------------------------

  double attempt_timeout(std::uint32_t attempt) const {
    double t = effective_timeout(ft, est);
    for (std::uint32_t a = 1; a < attempt; ++a) t *= ft.backoff;
    return t;
  }

  std::uint64_t total_claimed() const {
    std::uint64_t n = 0;
    for (const auto& [sid, sh] : shards) n += sh.nclaimed;
    return n;
  }

  bool any_awaiting() const {
    for (const auto& [sid, sh] : shards) {
      if (sh.awaiting_image) return true;
    }
    return false;
  }

  bool all_settled() const {
    for (const auto& [sid, sh] : shards) {
      if (sh.awaiting_image || !sh.settled()) return false;
    }
    return true;
  }

  /// An ask would now be answered with a task or Stop, not RetryLater.
  bool answerable() const {
    if (all_settled()) return true;
    for (const auto& [sid, sh] : shards) {
      if (!sh.awaiting_image && sh.nfree > 0) return true;
    }
    return false;
  }

  void unclaim_all() {
    // Injector-gated: without faults a claim is always eventually
    // committed by its holder, and unclaiming would double-execute.
    if (inj == nullptr) return;
    for (auto& [sid, sh] : shards) {
      if (sh.nclaimed == 0) continue;
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        SEntry& e = sh.at(t);
        if (e.state == TState::Pending && e.claimed) {
          e.claimed = false;
          --sh.nclaimed;
          ++sh.nfree;
          sh.free_q.push_back(t);
        }
      }
    }
  }

  /// Voids every commit and grant `rank` holds at an incarnation below
  /// `inc_limit` (UINT32_MAX = all: the rank died).
  void revert_by(std::int32_t rank, std::uint32_t inc_limit) {
    for (auto& [sid, sh] : shards) {
      bool any = false;
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        const SEntry& e = sh.at(t);
        if (e.owner == rank && e.owner_inc < inc_limit &&
            (e.state == TState::Outstanding || e.state == TState::Done)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      journal_revert(sid, rank, inc_limit);
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        SEntry& e = sh.at(t);
        if (e.owner != rank || e.owner_inc >= inc_limit) continue;
        if (e.state == TState::Outstanding) {
          --sh.nout;
        } else if (e.state == TState::Done) {
          --sh.ndone;
        } else {
          continue;
        }
        e.state = TState::Pending;
        e.owner = -1;
        e.claimed = false;
        ++sh.nfree;
        sh.free_q.push_back(t);
      }
    }
  }

  void expire_entry(Shard& sh, std::uint64_t t, SEntry& e) {
    --sh.nout;
    if (e.attempt >= 1 + static_cast<std::uint32_t>(ft.max_retries)) {
      e.state = TState::Failed;
      ++sh.nfail;
      ++sstats.tasks_failed;
    } else {
      e.state = TState::Pending;
      e.owner = -1;
      e.claimed = false;
      ++sh.nfree;
      sh.free_q.push_back(t);
      ++sstats.tasks_retried;
      if (reg != nullptr) reg->counter("ft.tasks_retried").inc();
    }
  }

  void handle_expiries() {
    const double now = comm.now();
    while (!expiry.empty() && expiry.begin()->first <= now) {
      const auto [dl, key] = *expiry.begin();
      expiry.erase(expiry.begin());
      const auto it = shards.find(key.first);
      if (it == shards.end()) continue;
      Shard& sh = it->second;
      if (key.second < sh.lo || key.second >= sh.hi) continue;
      SEntry& e = sh.at(key.second);
      if (e.state != TState::Outstanding || e.deadline != dl) continue;  // stale
      expire_entry(sh, key.second, e);
    }
  }

  void evict_suspects() {
    if (!det.config().enabled || shards.empty() || i_died) return;
    const double now = comm.now();
    for (int r = 0; r < p; ++r) {
      if (r == me || !alive(r) || !det.suspect(r, now)) continue;
      bool any = false;
      for (auto& [sid, sh] : shards) {
        for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
          SEntry& e = sh.at(t);
          if (e.state == TState::Outstanding && e.owner == r) {
            expire_entry(sh, t, e);
            any = true;
          }
        }
      }
      if (any) {
        ++sstats.evictions;
        if (reg != nullptr) reg->counter("ft.evictions").inc();
        if (rec != nullptr) {
          rec->add(me, trace::Category::Fault, "phi_evict", now, now);
        }
      }
      det.forget(r);  // a recovered peer re-earns trust from a clean window
    }
    if (reg != nullptr) reg->gauge("fault.phi_max").set(det.max_phi(now));
  }

  void arm_grace() {
    if (inj == nullptr || grace < kInf || total_claimed() == 0) return;
    grace = comm.now() + effective_timeout(ft, est);
  }

  void upkeep() {
    if (!shards.empty() && !i_died) {
      handle_expiries();
      if (comm.now() >= grace) {
        // Claims outlived the grace deadline with askers waiting: their
        // holders are presumed lost (dead ghosts, or thieves that
        // abandoned a steal response). Unclaim and re-grant.
        unclaim_all();
        grace = kInf;
      }
      evict_suspects();
      if (!parked.empty() && answerable()) {
        const std::vector<std::byte> wake = pack_wake(epoch);
        for (const int r : parked) comm.send_bytes(r, kTagWake, wake);
        parked.clear();
      }
    }
    if (worker_done && !pending_exit_acks.empty()) {
      for (const int r : pending_exit_acks) send_exit_ack(r, 1);
      pending_exit_acks.clear();
    }
    if (!pending_obit_acks.empty() && !any_awaiting()) {
      for (const auto& [src, dead] : pending_obit_acks) send_obit_ack(src, dead);
      pending_obit_acks.clear();
    }
  }

  /// 1 = absorb the staged task, 0 = discard (another attempt won).
  std::uint8_t ledger_commit(Shard& sh, std::uint64_t t, std::int32_t src,
                             std::uint32_t inc) {
    SEntry& e = sh.at(t);
    if (e.state == TState::Done) {
      return (e.owner == src && e.owner_inc == inc) ? 1 : 0;
    }
    journal_commit(sh.id, t, src, inc);  // write-ahead: journal, then decide
    if (e.state == TState::Pending) {
      if (e.claimed) {
        --sh.nclaimed;
      } else {
        --sh.nfree;
      }
    } else if (e.state == TState::Outstanding) {
      --sh.nout;
      est.observe(comm.now() - e.granted);
    } else {  // Failed: a presumed-lost attempt committed after all
      --sh.nfail;
      --sstats.tasks_failed;
    }
    e.state = TState::Done;
    e.owner = src;
    e.owner_inc = inc;
    ++sh.ndone;
    return 1;
  }

  /// The commit + grant decision shared by the wire path and the local
  /// fast path. decided=0 means "could not decide, keep staged and retry".
  WireGrant decide(std::int32_t src, std::uint32_t inc, std::int64_t completed,
                   bool wants) {
    WireGrant g;
    g.epoch = epoch;
    g.assign = kAssignRetryLater;
    g.dead_set = dead_list();
    if (completed >= 0) {
      const int s = shard_of(static_cast<std::uint64_t>(completed), ntasks, nshards);
      const auto it = shards.find(s);
      if (it == shards.end() || owner_of(s) != me) {
        g.assign = kAssignNotOwner;
        g.decided = 0;
        return g;
      }
      if (it->second.awaiting_image) {
        g.decided = 0;
        return g;
      }
      g.commit = ledger_commit(it->second, static_cast<std::uint64_t>(completed),
                               src, inc);
    }
    if (!wants) return g;
    for (auto& [sid, sh] : shards) {
      if (sh.awaiting_image) continue;
      while (!sh.free_q.empty()) {
        const std::uint64_t t = sh.free_q.front();
        sh.free_q.pop_front();
        SEntry& e = sh.at(t);
        if (e.state != TState::Pending || e.claimed) continue;  // stale
        e.state = TState::Outstanding;
        e.owner = src;
        e.owner_inc = inc;
        ++e.attempt;
        e.granted = comm.now();
        e.deadline = comm.now() + attempt_timeout(e.attempt);
        --sh.nfree;
        ++sh.nout;
        expiry.emplace(e.deadline, std::make_pair(sh.id, t));
        g.assign = static_cast<std::int64_t>(t);
        g.attempt = e.attempt;
        return g;
      }
    }
    if (all_settled()) {
      g.assign = kAssignStop;
    } else {
      arm_grace();  // claimed or outstanding work remains; asker must wait
    }
    return g;
  }

  // -- Failover --------------------------------------------------------------

  void adopt(int s) {
    ++sstats.failovers;
    if (reg != nullptr) reg->counter("ft.failovers").inc();
    if (rec != nullptr) {
      rec->add(me, trace::Category::Fault, "shard_adopt", comm.now(), comm.now());
    }
    Shard sh;
    sh.id = s;
    sh.lo = chunk_lo(ntasks, s, nshards);
    sh.hi = chunk_hi(ntasks, s, nshards);
    sh.entries.resize(sh.size());
    if (journaling()) {
      std::map<std::uint64_t, DoneTask> commits;
      ctx.exec->shard_journal_replay(s, [&](const std::vector<std::byte>& rec_bytes) {
        apply_shard_record(rec_bytes, commits);
      });
      std::set<std::int32_t> dead_committers;
      for (const auto& [t, d] : commits) {
        if (t < sh.lo || t >= sh.hi) continue;
        if (d.owner >= 0 && d.owner < p && !alive(d.owner)) {
          dead_committers.insert(d.owner);
          continue;  // its results died with it: re-run
        }
        SEntry& e = sh.at(t);
        e.state = TState::Done;
        e.owner = d.owner;
        e.owner_inc = d.owner_inc;
        ++sh.ndone;
      }
      for (const std::int32_t r : dead_committers) {
        ctx.exec->shard_journal_append(s, enc_revert(r, std::numeric_limits<std::uint32_t>::max()));
      }
    } else {
      sh.awaiting_image = true;
    }
    if (!sh.awaiting_image) seed_free(sh);
    shards.emplace(s, std::move(sh));
  }

  /// Adopted tasks are seeded unclaimed: any surviving claim on them
  /// commits through first-commit-wins, and a duplicate grant is absorbed
  /// the same way.
  void seed_free(Shard& sh) {
    for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
      if (sh.at(t).state == TState::Pending) {
        ++sh.nfree;
        sh.free_q.push_back(t);
      }
    }
  }

  void mark_dead(int r) {
    if (r < 0 || r >= p || r == me || !alive(r)) return;
    ps.peers_dead[r] = 1;
    det.forget(r);
    if (i_died) return;  // a ghost records the fact but adopts nothing
    revert_by(r, std::numeric_limits<std::uint32_t>::max());
    unclaim_all();
    for (int s = 0; s < nshards; ++s) {
      if (owner_of(s) == me && shards.find(s) == shards.end()) adopt(s);
    }
  }

  void apply_image(const ShardImage& img) {
    const auto it = shards.find(img.shard);
    if (it == shards.end() || !it->second.awaiting_image) return;
    Shard& sh = it->second;
    for (const ShardEntryRecord& d : img.done) {
      if (d.task < sh.lo || d.task >= sh.hi) continue;
      if (d.owner < 0 || d.owner >= p || !alive(d.owner)) continue;
      SEntry& e = sh.at(d.task);
      if (e.state == TState::Done) continue;
      e.state = TState::Done;
      e.owner = d.owner;
      e.owner_inc = d.owner_inc;
      ++sh.ndone;
    }
    sh.awaiting_image = false;
    seed_free(sh);
  }

  // -- Message handlers ------------------------------------------------------

  void send_obit_ack(int dst, std::int32_t dead_rank) {
    Obit a;
    a.epoch = epoch;
    a.dead_rank = dead_rank;
    a.dead_set = dead_list();  // a ghost's ack reveals its own death
    comm.send_bytes(dst, kTagObitAck, pack_obit(a));
  }

  void send_exit_ack(int dst, std::uint8_t ack) {
    WireExit e;
    e.epoch = epoch;
    e.ack = ack;
    comm.send_bytes(dst, kTagExitAck, pack_exit(e));
  }

  void owner_serve(const rt::Message& m) {
    const WireReq req = unpack_req(m);
    if (req.epoch != epoch) return;
    const int src = m.source;
    if (i_died) {
      // Ghost: bounce with the death news so the sender re-resolves.
      WireGrant g;
      g.seq = req.seq;
      g.epoch = epoch;
      g.decided = 0;
      g.assign = kAssignNotOwner;
      g.dead_set = dead_list();
      comm.send_bytes(src, kTagTask, pack_grant(g));
      return;
    }
    FtWorkerView& w = ps.shard_clients[src];
    if (req.seq == w.last_seq) {  // resend: replay the cached decision
      comm.send_bytes(src, kTagTask, w.cached_grant);
      return;
    }
    if (req.seq < w.last_seq) return;  // ancient duplicate
    if (req.incarnation > w.incarnation) {
      // The client respawned: everything its old incarnations held —
      // commits (results lost with its memory) and claims — is void.
      w.incarnation = req.incarnation;
      revert_by(src, req.incarnation);
      unclaim_all();
    }
    WireGrant g = decide(src, req.incarnation, req.completed_task, req.wants != 0);
    if (req.wants != 0 && g.decided != 0 && g.assign == kAssignRetryLater) {
      parked.insert(src);  // woken by upkeep() once answerable()
    }
    g.seq = req.seq;
    w.last_seq = req.seq;
    w.cached_grant = pack_grant(g);
    comm.send_bytes(src, kTagTask, w.cached_grant);
  }

  void serve_steal(const rt::Message& m) {
    const StealReq rq = unpack_steal_req(m);
    if (rq.epoch != epoch) return;
    StealPeerView& peer = ps.steal_peers[m.source];
    if (rq.seq == peer.last_seq) {
      comm.send_bytes(m.source, kTagStealResp, peer.cached_resp);
      return;
    }
    if (rq.seq < peer.last_seq) return;
    StealResp resp;
    resp.epoch = epoch;
    resp.seq = rq.seq;
    resp.tasks = give_tasks(dq, rq.max, ctx.steal.batch);
    peer.last_seq = rq.seq;
    peer.cached_resp = pack_steal_resp(resp);
    comm.send_bytes(m.source, kTagStealResp, peer.cached_resp);
  }

  void handle_obit(const rt::Message& m) {
    const Obit o = unpack_obit(m);
    if (o.epoch != epoch) return;
    for (const std::int32_t r : o.dead_set) mark_dead(r);
    mark_dead(o.dead_rank);
    for (const std::int32_t r : o.exited_set) exited.insert(r);
    if (any_awaiting()) {
      // This death made us successor of journal-less shards: ack only
      // once the images applied, so the dying owner keeps custody (and
      // keeps retransmitting) until the handover really happened.
      pending_obit_acks.emplace_back(m.source, o.dead_rank);
    } else {
      send_obit_ack(m.source, o.dead_rank);
    }
  }

  void handle_exit(const rt::Message& m) {
    const WireExit e = unpack_exit(m);
    if (e.epoch != epoch) return;
    if (m.tag == kTagExitAck) {
      if (e.ack == 2) {
        mark_dead(m.source);  // the "owner" is a ghost: re-resolve
      } else {
        my_exit_acked.insert(m.source);
      }
      return;
    }
    if (i_died) {
      send_exit_ack(m.source, 2);
      return;
    }
    exited.insert(m.source);
    if (worker_done) {
      send_exit_ack(m.source, 1);
    } else {
      // Acking promises this rank will never die; that promise is only
      // true after the worker role's final fault poll. Defer.
      pending_exit_acks.insert(m.source);
    }
  }

  void dispatch(const rt::Message& m) {
    det.heard(m.source, comm.now());
    switch (m.tag) {
      case kTagDone:
        owner_serve(m);
        return;
      case kTagSteal:
        serve_steal(m);
        return;
      case kTagStealResp: {
        // Answer to an abandoned steal request: the victim gave the
        // claims away, so keep them if this worker still runs (otherwise
        // the owner's grace deadline recovers them).
        if (worker_done || i_died) return;
        const StealResp resp = unpack_steal_resp(m);
        if (resp.epoch != epoch) return;
        for (const std::uint64_t t : resp.tasks) dq.push_back(t);
        return;
      }
      case kTagTask: {
        // Stray grant — a probe reply or a stale resend. Its dead-set is
        // the payload we probed for.
        const WireGrant g = unpack_grant(m);
        if (g.epoch != epoch) return;
        for (const std::int32_t r : g.dead_set) mark_dead(r);
        return;
      }
      case kTagObit:
        handle_obit(m);
        return;
      case kTagShardImage: {
        const ShardImage img = unpack_shard_image(m);
        if (img.epoch == epoch) apply_image(img);
        return;
      }
      case kTagObitAck: {
        const Obit a = unpack_obit(m);
        if (a.epoch != epoch) return;
        for (const std::int32_t r : a.dead_set) mark_dead(r);
        if (a.dead_rank == me) my_obit_acked.insert(m.source);
        return;
      }
      case kTagExit:
      case kTagExitAck:
        handle_exit(m);
        return;
      case kTagWake:
        if (unpack_wake(m) == epoch) {
          woken.insert(m.source);
        } else if (reg != nullptr) {
          reg->counter("sched.stale_wakes").inc();  // from an earlier map
        }
        return;
      default:
        return;  // stale plain-steal traffic (token/stop) from an old map
    }
  }

  /// The single wait point: serves every protocol duty while waiting.
  /// With want_tag >= 0, returns Ok and fills *out when a message with
  /// that tag (and source, if want_src >= 0) arrives; everything else is
  /// dispatched. With `done`, returns Ok as soon as done() holds, checked
  /// on entry and after every dispatched message. Returns Timeout at
  /// `deadline`.
  rt::RecvStatus serve_until(double deadline, int want_src, int want_tag,
                             rt::Message* out,
                             const std::function<bool()>& done = {}) {
    while (true) {
      upkeep();
      if (done && done()) return rt::RecvStatus::Ok;
      rt::Message m;
      const rt::RecvStatus st =
          comm.recv_bytes_deadline(mpi::kAnySource, mpi::kAnyUserTag, deadline, &m);
      if (st != rt::RecvStatus::Ok) return st;
      if (want_tag >= 0 && m.tag == want_tag &&
          (want_src < 0 || m.source == want_src)) {
        *out = m;
        return rt::RecvStatus::Ok;
      }
      dispatch(m);
    }
  }

  void drain() { (void)serve_until(comm.now() + kServeWindow, -1, -1, nullptr); }

  /// Fire-and-forget liveness probe at a neighbor of `anchor`: any rank
  /// answers a WireReq, and the grant's dead-set tells us whether the
  /// silent anchor is dead. The reply lands in dispatch().
  void probe(int anchor, int walk) {
    for (int k = 0; k < p; ++k) {
      const int c = (anchor + 1 + walk + k) % p;
      // Never probe the anchor itself: a probe consumes a sequence number
      // on its channel and would shadow an in-flight exchange there.
      if (c == me || c == anchor || !alive(c)) continue;
      WireReq ping;
      ping.incarnation = ps.incarnation;
      ping.epoch = epoch;
      ping.seq = ++ps.owner_seq[c];
      ping.completed_task = -1;
      ping.wants = 0;
      comm.send_bytes(c, kTagDone, pack_req(ping));
      return;
    }
  }

  // -- Client side -----------------------------------------------------------

  struct Decision {
    WireGrant grant;
    int responder = -1;
  };

  /// Patient exactly-once exchange with the owner of `target_shard`:
  /// unbounded jittered resends (a busy owner answers between tasks),
  /// neighbor probes and grant dead-sets for death discovery, re-routing
  /// to the successor on NotOwner or learned death, and a fresh sequence
  /// number per undecided retry. Returns only a decided grant.
  Decision transact(WireReq base, int target_shard) {
    while (true) {
      poll_crash();
      const int o = owner_of(target_shard);
      if (o == me) {
        const auto it = shards.find(target_shard);
        if (it != shards.end() && !it->second.awaiting_image) {
          WireGrant g = decide(me, ps.incarnation, base.completed_task,
                               base.wants != 0);
          if (g.decided != 0) return {g, me};
        }
        (void)serve_until(comm.now() + jittered(ft.worker_poll, rng), -1, -1,
                          nullptr);
        continue;
      }
      WireReq req = base;
      req.incarnation = ps.incarnation;
      req.epoch = epoch;
      req.seq = ++ps.owner_seq[o];
      woken.erase(o);  // only a wake sent after this ask may end a park on o
      const std::vector<std::byte> wire = pack_req(req);
      comm.send_bytes(o, kTagDone, wire);
      int timeouts = 0;
      int walk = 0;
      bool rerouted = false;
      while (true) {
        poll_crash();
        rt::Message m;
        const rt::RecvStatus st = serve_until(
            comm.now() + jittered(ft.worker_poll, rng), o, kTagTask, &m);
        if (!alive(o)) {
          rerouted = true;  // learned the owner died: re-resolve
          break;
        }
        if (st != rt::RecvStatus::Ok) {
          ++timeouts;
          comm.send_bytes(o, kTagDone, wire);
          if (timeouts % kProbeEvery == 0) probe(o, walk++);
          continue;
        }
        const WireGrant g = unpack_grant(m);
        if (g.epoch != epoch || g.seq != req.seq) continue;  // stale
        for (const std::int32_t r : g.dead_set) mark_dead(r);
        if (g.decided != 0 && g.assign != kAssignNotOwner) return {g, o};
        rerouted = true;  // NotOwner or undecided: nap, new seq, re-resolve
        break;
      }
      if (rerouted) {
        (void)serve_until(comm.now() + jittered(ft.worker_poll, rng), -1, -1,
                          nullptr);
      }
    }
  }

  void trace_termination_wait(double t0) {
    if (rec != nullptr) {
      rec->add(me, trace::Category::Fault, "termination_wait", t0, comm.now());
    }
  }

  /// After a RetryLater from `owner`: serve duties until the answer can
  /// change — the owner's wake arrived (for this rank's own shards: their
  /// state turned answerable) or a late steal response refilled the
  /// deque. The deadline is only the fallback for a lost wake.
  void park(int owner) {
    const double t0 = comm.now();
    const rt::RecvStatus st =
        serve_until(t0 + jittered(ft.worker_poll, rng), -1, -1, nullptr, [&] {
          return !dq.empty() || (owner == me ? answerable() : woken.count(owner) != 0);
        });
    if (reg != nullptr) {
      reg->counter("sched.parks").inc();
      // A park that outlived its deadline falls back to the timed re-ask.
      if (st != rt::RecvStatus::Ok) reg->counter("sched.park_timeouts").inc();
    }
    trace_termination_wait(t0);
  }

  void run_one(std::uint64_t t, std::uint32_t attempt) {
    if (self_done.count(t) == 0) {
      const double t0 = comm.now();
      ctx.exec->run_staged(t, /*retry=*/attempt > 1);
      est.observe(comm.now() - t0);
    }
    staged = static_cast<std::int64_t>(t);
    staged_attempt = attempt;
  }

  void report_staged() {
    const std::uint64_t t = static_cast<std::uint64_t>(staged);
    WireReq rep;
    rep.completed_task = staged;
    rep.attempt = staged_attempt;
    rep.wants = 0;
    const Decision d = transact(rep, shard_of(t, ntasks, nshards));
    if (d.grant.commit != 0 && self_done.insert(t).second) {
      ctx.exec->commit_staged(t);
    } else {
      // Either another attempt won, or this rank already emitted the task
      // on a previous grant: the (empty) staging is dropped either way.
      ctx.exec->discard_staged();
    }
    staged = -1;
    staged_attempt = 0;
  }

  void steal_sweep() {
    if (p < 2) return;
    const double t0 = comm.now();
    std::vector<int> order;
    for (int r = 0; r < p; ++r) {
      if (r != me && alive(r)) order.push_back(r);
    }
    if (order.empty()) return;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (const int victim : order) {
      if (!alive(victim)) continue;
      const std::uint32_t seq = ++ps.steal_seq;
      StealReq rq;
      rq.epoch = epoch;
      rq.seq = seq;
      rq.max = static_cast<std::uint32_t>(ctx.steal.batch);
      const std::vector<std::byte> wire = pack_steal_req(rq);
      comm.send_bytes(victim, kTagSteal, wire);
      ++sstats.steals_attempted;
      if (reg != nullptr) reg->counter("sched.steals_attempted").inc();
      int resends = 0;
      while (true) {
        poll_crash();
        rt::Message m;
        const rt::RecvStatus st = serve_until(
            comm.now() + jittered(ft.worker_poll, rng), victim, kTagStealResp, &m);
        if (st != rt::RecvStatus::Ok) {
          if (++resends > ctx.steal.max_resends) break;  // give up on victim
          comm.send_bytes(victim, kTagSteal, wire);
          continue;
        }
        const StealResp resp = unpack_steal_resp(m);
        if (resp.epoch != epoch) continue;
        if (resp.seq != seq) {
          for (const std::uint64_t t : resp.tasks) dq.push_back(t);
          continue;  // answer to an earlier abandoned request
        }
        if (!resp.tasks.empty()) {
          for (const std::uint64_t t : resp.tasks) dq.push_back(t);
          ++sstats.steals_succeeded;
          sstats.tasks_stolen += resp.tasks.size();
          if (reg != nullptr) {
            reg->counter("sched.steals_succeeded").inc();
            reg->counter("sched.tasks_stolen").inc(resp.tasks.size());
          }
        }
        break;
      }
      if (!dq.empty()) break;
    }
    if (rec != nullptr) {
      rec->add(me, trace::Category::Fault, "steal_wait", t0, comm.now());
    }
  }

  // -- Lifecycle -------------------------------------------------------------

  void setup_owner() {
    std::map<std::uint64_t, const DoneTask*> restored;
    if (ctx.restored != nullptr) {
      for (const DoneTask& d : *ctx.restored) restored[d.task] = &d;
    }
    for (int s = 0; s < nshards; ++s) {
      if (owner_of(s) != me) continue;
      Shard sh;
      sh.id = s;
      sh.lo = chunk_lo(ntasks, s, nshards);
      sh.hi = chunk_hi(ntasks, s, nshards);
      sh.entries.resize(sh.size());
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        const auto it = restored.find(t);
        if (it != restored.end()) {
          SEntry& e = sh.at(t);
          e.state = TState::Done;
          e.owner = it->second->owner;
          e.owner_inc = it->second->owner_inc;
          ++sh.ndone;
        }
      }
      if (journaling()) {
        // Re-align the journal with the restored truth: a pre-kill commit
        // whose map-log payload was lost did NOT survive the host's merge
        // and must not resurrect at the next failover. Replay what the
        // journal claims, void every committer it names, then re-commit
        // exactly the restored set. Net replay state == restored.
        std::map<std::uint64_t, DoneTask> old;
        ctx.exec->shard_journal_replay(s, [&](const std::vector<std::byte>& rec_bytes) {
          apply_shard_record(rec_bytes, old);
        });
        std::set<std::int32_t> committers;
        for (const auto& [t, d] : old) committers.insert(d.owner);
        for (const std::int32_t r : committers) {
          ctx.exec->shard_journal_append(s, enc_revert(r, std::numeric_limits<std::uint32_t>::max()));
        }
        for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
          const SEntry& e = sh.at(t);
          if (e.state == TState::Done) {
            ctx.exec->shard_journal_append(s, enc_commit(t, e.owner, e.owner_inc));
          }
        }
      }
      // Claim the chunk slice of every live rank (their seeded deques);
      // a dead rank's slice starts out grantable.
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        SEntry& e = sh.at(t);
        if (e.state != TState::Pending) continue;
        const int chunk_rank = shard_of(t, ntasks, p);
        if (alive(chunk_rank)) {
          e.claimed = true;
          ++sh.nclaimed;
        } else {
          ++sh.nfree;
          sh.free_q.push_back(t);
        }
      }
      shards.emplace(s, std::move(sh));
    }
  }

  void seed_deque() {
    std::set<std::uint64_t> restored;
    if (ctx.restored != nullptr) {
      for (const DoneTask& d : *ctx.restored) restored.insert(d.task);
    }
    const std::uint64_t hi = chunk_hi(ntasks, me, p);
    for (std::uint64_t t = chunk_lo(ntasks, me, p); t < hi; ++t) {
      if (restored.count(t) == 0) dq.push_back(t);
    }
  }

  /// CrashSignal landed: simulated process death. Returns after restoring
  /// the transient-crash state; i_died tells the caller it was permanent.
  void on_signal(std::set<int>& stopped_by) {
    ctx.exec->on_crash();
    dq.clear();
    staged = -1;
    staged_attempt = 0;
    self_done.clear();  // the emissions died with the old incarnation
    ++ps.incarnation;
    ++sstats.worker_deaths;
    if (reg != nullptr) reg->counter("ft.worker_deaths").inc();
    stopped_by.clear();
    i_died = inj != nullptr && inj->permanently_crashed(me);
    if (rec != nullptr) {
      rec->add(me, trace::Category::Fault, i_died ? "worker_died" : "worker_respawn",
               comm.now(), comm.now());
    }
    if (!i_died) {
      // The shard ledgers survive a transient crash (supervisor-restored
      // protocol state, like the grant caches) — but this rank's own
      // commits name results that died with its memory.
      revert_by(me, ps.incarnation);
      unclaim_all();
    }
  }

  /// Permanent death: linger as a ghost until every successor took
  /// custody of the shards (and the owner set acked the obit), then leave.
  void die() {
    ps.peers_dead[me] = 1;
    polling = false;
    Obit ob;
    ob.epoch = epoch;
    ob.dead_rank = me;
    ob.incarnation = ps.incarnation;
    while (true) {
      std::vector<int> targets = owner_ranks();  // me excluded: I'm dead
      bool done = true;
      ob.dead_set = dead_list();
      ob.exited_set.assign(exited.begin(), exited.end());
      const std::vector<std::byte> wire = pack_obit(ob);
      for (const int t : targets) {
        if (my_obit_acked.count(t) != 0) continue;
        done = false;
        comm.send_bytes(t, kTagObit, wire);
        if (!journaling()) {
          for (const auto& [sid, sh] : shards) {
            if (owner_of(sid) != t) continue;
            ShardImage img;
            img.epoch = epoch;
            img.shard = sid;
            for (std::uint64_t task = sh.lo; task < sh.hi; ++task) {
              const SEntry& e = sh.entries[task - sh.lo];
              if (e.state == TState::Done) img.done.push_back({task, e.owner, e.owner_inc});
            }
            comm.send_bytes(t, kTagShardImage, pack_shard_image(img));
          }
        }
      }
      if (done) break;
      (void)serve_until(comm.now() + jittered(ft.worker_poll, rng), -1, -1, nullptr);
    }
    shards.clear();
  }

  /// Worker role: run own claims, report, steal, then ask the owners.
  /// Returns false when this rank died permanently.
  bool run_worker() {
    std::set<int> stopped_by;
    std::size_t ask_rr = 0;
    std::size_t known_dead = 0;
    while (true) {
      try {
        poll_crash();
        drain();
        // A death moves shard ownership: an owner that released us may
        // have adopted fresh work, so past Stop answers are void.
        const std::size_t nd = dead_list().size();
        if (nd != known_dead) {
          known_dead = nd;
          stopped_by.clear();
        }
        if (staged < 0 && !dq.empty()) {
          const std::uint64_t t = dq.front();
          dq.pop_front();
          run_one(t, 1);
          continue;  // report before the next task runs
        }
        if (staged >= 0) {
          report_staged();
          continue;
        }
        steal_sweep();
        if (!dq.empty()) continue;
        // Drained and nothing stealable: ask the shard owners round-robin.
        const std::vector<int> owners = owner_ranks();
        int target = -1;
        for (std::size_t i = 0; i < owners.size(); ++i) {
          const int o = owners[(ask_rr + i) % owners.size()];
          if (stopped_by.count(o) == 0) {
            target = o;
            ask_rr = (ask_rr + i + 1) % owners.size();
            break;
          }
        }
        if (target < 0) return true;  // every owner released this worker
        int tshard = -1;
        for (int s = 0; s < nshards; ++s) {
          if (owner_of(s) == target) {
            tshard = s;
            break;
          }
        }
        if (tshard < 0) continue;  // the target died under us; re-resolve
        WireReq ask;
        ask.completed_task = -1;
        ask.wants = 1;
        const Decision d = transact(ask, tshard);
        if (d.grant.assign >= 0) {
          run_one(static_cast<std::uint64_t>(d.grant.assign), d.grant.attempt);
          continue;
        }
        if (d.grant.assign == kAssignStop) {
          stopped_by.insert(d.responder);
          continue;
        }
        // RetryLater: claimed or outstanding work remains with that owner.
        park(d.responder);
      } catch (const fault::CrashSignal&) {
        on_signal(stopped_by);
        if (i_died) {
          die();
          return false;
        }
      }
    }
  }

  /// One last chance for the planned faults, then this rank promises the
  /// protocol it will never die (exit acks depend on that promise).
  /// Returns false on a transient crash (re-enter the worker role).
  bool final_poll() {
    try {
      poll_crash();
    } catch (const fault::CrashSignal&) {
      std::set<int> none;
      on_signal(none);
      if (i_died) {
        die();
      }
      return false;
    }
    polling = false;
    return true;
  }

  bool exit_acked() const {
    for (const int t : owner_ranks()) {
      if (t != me && my_exit_acked.count(t) == 0) return false;
    }
    return true;
  }

  /// Announce worker-done to every owner and wait for the acks (with
  /// death discovery, since a target owner may silently be a ghost).
  void announce_exit() {
    worker_done = true;
    exited.insert(me);
    const double t0 = comm.now();
    int rounds = 0;
    int walk = 0;
    while (true) {
      const std::vector<int> targets = owner_ranks();
      WireExit ex;
      ex.epoch = epoch;
      ex.incarnation = ps.incarnation;
      int first_unacked = -1;
      for (const int t : targets) {
        if (t == me || my_exit_acked.count(t) != 0) continue;
        if (first_unacked < 0) first_unacked = t;
        comm.send_bytes(t, kTagExit, pack_exit(ex));
      }
      if (first_unacked < 0) break;
      if (++rounds % kProbeEvery == 0) probe(first_unacked, walk++);
      (void)serve_until(comm.now() + jittered(ft.worker_poll, rng), -1, -1,
                        nullptr, [this] { return exit_acked(); });
    }
    trace_termination_wait(t0);
  }

  /// Everyone else exited or died and grants can no longer flow: run the
  /// leftovers of this rank's shards directly.
  void endgame() {
    for (auto& [sid, sh] : shards) {
      for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
        SEntry& e = sh.at(t);
        if (e.state != TState::Pending) continue;
        int tries = 0;
        bool ran = false;
        while (true) {
          try {
            ctx.exec->run_direct(t, /*retry=*/e.attempt > 0);
            ran = true;
            break;
          } catch (const fault::CrashSignal&) {
            // The protocol forbids deaths after the final poll, but a
            // task-indexed fault can still fire inside the injector here.
            // Model the supervisor respawning this rank with its committed
            // state intact: retry the task, bounded by the retry budget.
            if (++tries > ft.max_retries) break;
          }
        }
        if (e.claimed) {
          --sh.nclaimed;
        } else {
          --sh.nfree;
        }
        if (ran) {
          journal_commit(sid, t, me, ps.incarnation);
          e.state = TState::Done;
          e.owner = me;
          e.owner_inc = ps.incarnation;
          ++sh.ndone;
        } else {
          e.state = TState::Failed;
          ++sh.nfail;
          ++sstats.tasks_failed;
        }
      }
      sh.free_q.clear();
    }
  }

  bool others_gone() const {
    for (int r = 0; r < p; ++r) {
      if (r != me && alive(r) && exited.count(r) == 0) return false;
    }
    return true;
  }

  /// Owner role tail: serve commits/grants until every shard settled and
  /// every other rank exited or died.
  void run_owner() {
    const double t0 = comm.now();
    const auto gone = [this] { return others_gone() && !any_awaiting(); };
    while (!shards.empty()) {
      // Serve first even when everyone is already gone: upkeep() sends the
      // exit and obit acks deferred until this rank's worker role ended.
      (void)serve_until(comm.now() + jittered(ft.worker_poll, rng), -1, -1,
                        nullptr, gone);
      if (!gone()) continue;
      if (!all_settled()) endgame();
      if (all_settled()) break;
    }
    trace_termination_wait(t0);
    if (ctx.failed != nullptr) {
      for (const auto& [sid, sh] : shards) {
        for (std::uint64_t t = sh.lo; t < sh.hi; ++t) {
          if (sh.entries[t - sh.lo].state == TState::Failed) {
            ctx.failed->push_back(t);
          }
        }
      }
    }
  }

  void run() {
    if (static_cast<int>(ps.peers_dead.size()) < p) ps.peers_dead.resize(p, 0);
    if (!alive(me)) return;  // died (and was fully acked) in an earlier map
    setup_owner();
    if (inj != nullptr && inj->permanently_crashed(me)) {
      // Entered the map already dead (crashed under another scheduler or
      // between maps): hand the seeded shards off immediately.
      i_died = true;
      die();
      return;
    }
    seed_deque();
    while (true) {
      if (!run_worker()) return;  // permanent death, handoff complete
      if (final_poll()) break;    // the point of no return: never dies now
      if (i_died) return;
      // Transient crash at the final poll: back to the worker role (the
      // incarnation bump reverted this rank's commits; re-earn them).
    }
    announce_exit();
    run_owner();
  }
};

}  // namespace

void run_sharded_steal(MapContext& ctx, std::uint32_t epoch) {
  ShardedRun run(ctx, epoch);
  run.run();
}

}  // namespace mrbio::sched
