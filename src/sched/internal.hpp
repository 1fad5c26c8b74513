// Shared internals of the scheduler strategies: wire formats and the
// cross-strategy entry points (the fault-tolerant ledger serves both the
// master-worker and the steal policy). Not part of the public surface.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "rt/runtime.hpp"
#include "sched/sched.hpp"
#include "sched/tags.hpp"

namespace mrbio::sched {

// ---------------------------------------------------------------------------
// Fault-tolerant master-worker wire protocol.
//
// Each worker request carries a monotonically increasing sequence number
// and the worker's incarnation (respawn count); each grant echoes the
// sequence it answers. Lost messages are handled by resending the request
// and replaying the cached grant; duplicated or stale messages are
// discarded by sequence comparison. A grant both commits (or discards)
// the task the worker just finished and assigns the next one, so the
// exactly-once decision and the scheduling decision travel in one
// message.

/// Grant `assign` sentinels (non-negative values are task ids).
inline constexpr std::int64_t kAssignStop = -1;        ///< leave the protocol
inline constexpr std::int64_t kAssignRetryLater = -2;  ///< nothing now; poll again
/// Sharded ledger only: the receiver no longer owns the shard of the
/// reported task; re-resolve the owner (an obit is or will be in flight)
/// and re-send there. The commit decision in this grant is void.
inline constexpr std::int64_t kAssignNotOwner = -3;

struct WireReq {
  std::uint32_t incarnation = 0;  ///< respawn count of this worker
  std::uint32_t seq = 0;          ///< request sequence, never reused
  std::uint8_t dead = 0;          ///< 1 = permanent death notification
  std::int64_t completed_task = -1;  ///< task finished since last grant
  std::uint32_t attempt = 0;         ///< attempt number of completed_task
  /// 1 = the worker is out of local work and asks the ledger for a task.
  /// Under the steal policy the ledger only grants to askers (workers
  /// with live deques report completions with wants = 0); the plain
  /// master-worker protocol always asks.
  std::uint8_t wants = 1;
  /// Sharded ledger: map epoch of the sender; stale epochs are dropped.
  /// The single-master protocol leaves it 0 (seqs alone disambiguate —
  /// rank 0 never restarts).
  std::uint32_t epoch = 0;
};

struct WireGrant {
  std::uint32_t seq = 0;     ///< echo of the request this answers
  std::uint8_t commit = 0;   ///< absorb (1) or discard (0) the staged task
  std::int64_t assign = kAssignStop;
  std::uint32_t attempt = 0;  ///< attempt number of the assigned task
  /// 0 = the receiver must keep its staged task and re-report: the
  /// answering shard owner could not decide the commit (mid-failover).
  /// Single-master grants always decide (1).
  std::uint8_t decided = 1;
  std::uint32_t epoch = 0;
  /// Sharded ledger: every permanent death the sender knows of. A
  /// protocol-crashed rank stays Active at the transport (its thread
  /// lives on), so this piggyback — together with neighbor probes — is
  /// how a worker stuck on a dead owner's channel learns to re-route.
  /// Single-master grants leave it empty.
  std::vector<std::int32_t> dead_set;
};

inline std::vector<std::byte> pack_req(const WireReq& r) {
  ByteWriter w;
  w.put(r.incarnation);
  w.put(r.seq);
  w.put(r.dead);
  w.put(r.completed_task);
  w.put(r.attempt);
  w.put(r.wants);
  w.put(r.epoch);
  return w.take();
}

inline WireReq unpack_req(const rt::Message& m) {
  ByteReader r(m.payload);
  WireReq req;
  req.incarnation = r.get<std::uint32_t>();
  req.seq = r.get<std::uint32_t>();
  req.dead = r.get<std::uint8_t>();
  req.completed_task = r.get<std::int64_t>();
  req.attempt = r.get<std::uint32_t>();
  req.wants = r.get<std::uint8_t>();
  req.epoch = r.get<std::uint32_t>();
  return req;
}

inline std::vector<std::byte> pack_grant(const WireGrant& g) {
  ByteWriter w;
  w.put(g.seq);
  w.put(g.commit);
  w.put(g.assign);
  w.put(g.attempt);
  w.put(g.decided);
  w.put(g.epoch);
  w.put(static_cast<std::uint32_t>(g.dead_set.size()));
  for (const std::int32_t r : g.dead_set) w.put(r);
  return w.take();
}

inline WireGrant unpack_grant(const rt::Message& m) {
  ByteReader r(m.payload);
  WireGrant g;
  g.seq = r.get<std::uint32_t>();
  g.commit = r.get<std::uint8_t>();
  g.assign = r.get<std::int64_t>();
  g.attempt = r.get<std::uint32_t>();
  g.decided = r.get<std::uint8_t>();
  g.epoch = r.get<std::uint32_t>();
  const auto n = r.get<std::uint32_t>();
  g.dead_set.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) g.dead_set.push_back(r.get<std::int32_t>());
  return g;
}

// ---------------------------------------------------------------------------
// Work-stealing wire protocol. Every message is stamped with the sender's
// map epoch; a message whose epoch differs from the receiver's current
// map is a straggler from an earlier phase and is dropped.

struct StealReq {
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;  ///< thief-side sequence, monotone across victims
  std::uint32_t max = 0;  ///< upper bound on tasks in the response
};

struct StealResp {
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;  ///< echo of the request
  std::vector<std::uint64_t> tasks;
};

/// Safra-style termination token, circulated rank -> (rank + 1) % P.
struct StealToken {
  std::uint32_t epoch = 0;
  std::uint8_t black = 0;  ///< a counted message was received mid-probe
  std::int64_t count = 0;  ///< accumulated work-message balance
};

inline std::vector<std::byte> pack_steal_req(const StealReq& r) {
  ByteWriter w;
  w.put(r.epoch);
  w.put(r.seq);
  w.put(r.max);
  return w.take();
}

inline StealReq unpack_steal_req(const rt::Message& m) {
  ByteReader r(m.payload);
  StealReq rq;
  rq.epoch = r.get<std::uint32_t>();
  rq.seq = r.get<std::uint32_t>();
  rq.max = r.get<std::uint32_t>();
  return rq;
}

inline std::vector<std::byte> pack_steal_resp(const StealResp& resp) {
  ByteWriter w;
  w.put(resp.epoch);
  w.put(resp.seq);
  w.put(static_cast<std::uint32_t>(resp.tasks.size()));
  for (const std::uint64_t t : resp.tasks) w.put(t);
  return w.take();
}

inline StealResp unpack_steal_resp(const rt::Message& m) {
  ByteReader r(m.payload);
  StealResp resp;
  resp.epoch = r.get<std::uint32_t>();
  resp.seq = r.get<std::uint32_t>();
  const auto n = r.get<std::uint32_t>();
  resp.tasks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.tasks.push_back(r.get<std::uint64_t>());
  return resp;
}

inline std::vector<std::byte> pack_token(const StealToken& t) {
  ByteWriter w;
  w.put(t.epoch);
  w.put(t.black);
  w.put(t.count);
  return w.take();
}

inline StealToken unpack_token(const rt::Message& m) {
  ByteReader r(m.payload);
  StealToken t;
  t.epoch = r.get<std::uint32_t>();
  t.black = r.get<std::uint8_t>();
  t.count = r.get<std::int64_t>();
  return t;
}

// ---------------------------------------------------------------------------
// Sharded-ledger wire protocol (steal-ft). A dying rank broadcasts an
// Obit carrying its full dead-set and retransmits it until every live
// peer acked; a dying shard owner additionally hands its in-memory
// ledger image to the deterministic successor. Workers announce the end
// of their map participation with an Exit so shard owners can account
// quiescence without a global collective; an asker told RetryLater parks
// until the owner's Wake instead of polling.

struct Obit {
  std::uint32_t epoch = 0;
  std::int32_t dead_rank = -1;           ///< the rank this obit announces
  std::uint32_t incarnation = 0;         ///< its final incarnation
  std::vector<std::int32_t> dead_set;    ///< every death the sender knows of
  /// Worker-done declarations the dying rank had received as a shard
  /// owner. A successor adopting its shards inherits this set — without
  /// it, a late-adopted owner could wait forever for exits from ranks
  /// that already left the map through the dead owner.
  std::vector<std::int32_t> exited_set;
};

/// One committed entry of a shard ledger, as carried by a ShardImage and
/// journaled (kind = kShardCommit) in the shard's durable log.
struct ShardEntryRecord {
  std::uint64_t task = 0;
  std::int32_t owner = -1;
  std::uint32_t owner_inc = 0;
};

/// In-memory ledger handover from a dying owner to its successor (used
/// when no durable shard journal exists; with a checkpoint dir the
/// successor replays the shard's log from disk instead).
struct ShardImage {
  std::uint32_t epoch = 0;
  std::int32_t shard = -1;
  std::vector<ShardEntryRecord> done;
};

/// Shard-journal record kinds (first byte of each framed payload).
inline constexpr std::uint8_t kShardCommit = 1;  ///< task committed by (owner, inc)
inline constexpr std::uint8_t kShardRevert = 2;  ///< every prior commit by that rank void

struct WireExit {
  std::uint32_t epoch = 0;
  std::uint32_t incarnation = 0;
  std::uint8_t ack = 0;  ///< 1 on the owner -> worker echo
};

inline std::vector<std::byte> pack_obit(const Obit& o) {
  ByteWriter w;
  w.put(o.epoch);
  w.put(o.dead_rank);
  w.put(o.incarnation);
  w.put(static_cast<std::uint32_t>(o.dead_set.size()));
  for (const std::int32_t r : o.dead_set) w.put(r);
  w.put(static_cast<std::uint32_t>(o.exited_set.size()));
  for (const std::int32_t r : o.exited_set) w.put(r);
  return w.take();
}

inline Obit unpack_obit(const rt::Message& m) {
  ByteReader r(m.payload);
  Obit o;
  o.epoch = r.get<std::uint32_t>();
  o.dead_rank = r.get<std::int32_t>();
  o.incarnation = r.get<std::uint32_t>();
  const auto n = r.get<std::uint32_t>();
  o.dead_set.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) o.dead_set.push_back(r.get<std::int32_t>());
  const auto ne = r.get<std::uint32_t>();
  o.exited_set.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) o.exited_set.push_back(r.get<std::int32_t>());
  return o;
}

inline std::vector<std::byte> pack_shard_image(const ShardImage& img) {
  ByteWriter w;
  w.put(img.epoch);
  w.put(img.shard);
  w.put(static_cast<std::uint32_t>(img.done.size()));
  for (const ShardEntryRecord& e : img.done) {
    w.put(e.task);
    w.put(e.owner);
    w.put(e.owner_inc);
  }
  return w.take();
}

inline ShardImage unpack_shard_image(const rt::Message& m) {
  ByteReader r(m.payload);
  ShardImage img;
  img.epoch = r.get<std::uint32_t>();
  img.shard = r.get<std::int32_t>();
  const auto n = r.get<std::uint32_t>();
  img.done.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardEntryRecord e;
    e.task = r.get<std::uint64_t>();
    e.owner = r.get<std::int32_t>();
    e.owner_inc = r.get<std::uint32_t>();
    img.done.push_back(e);
  }
  return img;
}

inline std::vector<std::byte> pack_exit(const WireExit& e) {
  ByteWriter w;
  w.put(e.epoch);
  w.put(e.incarnation);
  w.put(e.ack);
  return w.take();
}

inline WireExit unpack_exit(const rt::Message& m) {
  ByteReader r(m.payload);
  WireExit e;
  e.epoch = r.get<std::uint32_t>();
  e.incarnation = r.get<std::uint32_t>();
  e.ack = r.get<std::uint8_t>();
  return e;
}

/// Wake (kTagWake): an owner that answered RetryLater tells the parked
/// asker its shards settled or regained grantable work. The payload is
/// only the map epoch — the asker re-asks through the seq/replay exchange,
/// so a lost, late or duplicated wake costs a round trip, never a decision.
inline std::vector<std::byte> pack_wake(std::uint32_t epoch) {
  ByteWriter w;
  w.put(epoch);
  return w.take();
}

inline std::uint32_t unpack_wake(const rt::Message& m) {
  ByteReader r(m.payload);
  return r.get<std::uint32_t>();
}

// ---------------------------------------------------------------------------
// Shared helpers and cross-strategy entry points.

/// Static chunk partition: tasks [lo, hi) of rank `idx` among `n` parts.
inline std::uint64_t chunk_lo(std::uint64_t ntasks, int idx, int n) {
  return ntasks * static_cast<std::uint64_t>(idx) / static_cast<std::uint64_t>(n);
}
inline std::uint64_t chunk_hi(std::uint64_t ntasks, int idx, int n) {
  return ntasks * (static_cast<std::uint64_t>(idx) + 1) / static_cast<std::uint64_t>(n);
}

/// Which shard owns task `t` under the chunk partition of `ntasks` over
/// `nshards` (the inverse of chunk_lo/chunk_hi: shard s owns
/// [chunk_lo(ntasks, s, nshards), chunk_hi(ntasks, s, nshards))).
inline int shard_of(std::uint64_t t, std::uint64_t ntasks, int nshards) {
  if (ntasks == 0) return 0;
  return static_cast<int>(((t + 1) * static_cast<std::uint64_t>(nshards) - 1) / ntasks);
}

/// Deterministic jitter for retry/backoff naps: uniform in [0.5, 1.5) x
/// `nap`, so synchronized retry storms decohere while the sim timeline
/// stays a pure function of (seed, epoch, rank).
inline double jittered(double nap, Rng& rng) { return nap * (0.5 + rng.uniform()); }

/// Adaptive task-timeout estimate from observed grant-to-commit service
/// times: a log2-bucket histogram whose ~p99 feeds timeout = 4 x p99
/// (clamped below by `floor`). Returns `bootstrap` until enough samples
/// arrived. Deterministic and O(1) per sample.
class TimeoutEstimator {
 public:
  void observe(double seconds) {
    ++count_;
    int b = 0;
    double edge = kFirstEdge;
    while (b + 1 < kBuckets && seconds > edge) {
      edge *= 2.0;
      ++b;
    }
    ++buckets_[b];
  }

  /// Current timeout estimate; `bootstrap` until >= 5 samples.
  double timeout(double floor_s, double bootstrap) const {
    if (count_ < 5) return bootstrap;
    const std::uint64_t want =
        (count_ * 99 + 99) / 100;  // ceil(0.99 * n): p99 rank
    std::uint64_t cum = 0;
    double edge = kFirstEdge;
    for (int b = 0; b < kBuckets; ++b, edge *= 2.0) {
      cum += buckets_[b];
      if (cum >= want) break;
    }
    const double t = 4.0 * edge;
    return t < floor_s ? floor_s : t;
  }

  std::uint64_t samples() const { return count_; }

 private:
  static constexpr int kBuckets = 40;          ///< ~1 us .. ~5e5 s
  static constexpr double kFirstEdge = 1e-6;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
};

/// Effective per-attempt base timeout: the explicit config value, or the
/// adaptive estimate when ft.task_timeout <= 0.
inline double effective_timeout(const FtConfig& ft, const TimeoutEstimator& est) {
  if (ft.task_timeout > 0.0) return ft.task_timeout;
  const double floor_s = ft.worker_poll * 4.0;
  return est.timeout(floor_s < 0.05 ? 0.05 : floor_s, 5.0);
}

/// Degenerate single-rank map: run every task locally in order.
void run_all_local(MapContext& ctx);

/// The exactly-once ledger on rank 0 (plain-FIFO or locality order via
/// ctx.affinity). The ledger grants Pending tasks only to workers that
/// asked (WireReq::wants); plain fault-tolerant workers always ask, while
/// steal workers ask only once drained — their deque and stolen tasks
/// stay Pending here until the first completion report commits them, and
/// first-commit-wins deduplicates any grant/deque overlap.
void run_ledger_master(MapContext& ctx);

/// Fault-tolerant worker of the master-worker policy.
void run_ft_worker(MapContext& ctx);

/// The sharded-ledger steal policy: every rank is simultaneously a
/// worker (deque + stealing) and — for ranks < shard_count — the
/// exactly-once ledger of its task range, with deterministic successor
/// failover when an owner dies. Collective over ctx.comm.
void run_sharded_steal(MapContext& ctx, std::uint32_t epoch);

/// Strategy factories (one per translation unit).
std::unique_ptr<Scheduler> make_master_scheduler(bool force_ft);
std::unique_ptr<Scheduler> make_steal_scheduler();

}  // namespace mrbio::sched
