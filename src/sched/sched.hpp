// Pluggable task-scheduling subsystem for mrmpi's map() phase.
//
// mapreduce.cpp used to hard-wire three schedulers (static chunk/stride,
// the master-worker loop, and the fault-tolerant master-worker protocol)
// into one 1.4k-line file. This subsystem extracts them behind one
// interface — task acquisition, completion/commit, termination — and adds
// a fourth, decentralized policy: randomized work stealing with
// Dijkstra/Safra token termination detection.
//
// The host (mrmpi::MapReduce) stays in charge of everything KV- and
// checkpoint-shaped through the Executor callback: schedulers decide
// *which rank runs which task when*; the executor decides what running,
// staging and committing a task means. The exactly-once guarantees of the
// fault-tolerant paths are therefore scheduler-independent: steals are
// claims, and every commit goes through an exactly-once ledger — rank 0's
// under master-ft, the owning shard's under steal (the sharded ledger).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/detector.hpp"
#include "mpi/comm.hpp"

namespace mrbio::trace {
class Recorder;
}

namespace mrbio::sched {

/// Which scheduler runs a map phase. `Auto` defers to the host's MapStyle,
/// except that a master-worker style runs as `Steal` on the native backend
/// (the DES keeps the paper's master-worker protocol).
enum class Policy {
  Auto,      ///< derive from MapReduceConfig::map_style and the backend
  Chunk,     ///< contiguous static blocks (Sandia mapstyle 0)
  Stride,    ///< task i -> rank i % P (Sandia mapstyle 1)
  Master,    ///< rank 0 grants tasks to idle workers (mapstyle 2)
  MasterFt,  ///< master-worker with the exactly-once fault-tolerant ledger
  Steal,     ///< decentralized work stealing (+ ledger commits when ft.enabled)
};

/// Parses "auto|chunk|stride|master|master-ft|steal" (as accepted by the
/// drivers' --scheduler flag). Throws InputError on anything else.
Policy parse_policy(const std::string& name);

/// Canonical CLI spelling of `policy`.
const char* policy_name(Policy policy);

/// Fault tolerance of the remote protocols (master-worker and steal).
///
/// When enabled, scheduling runs through a failure-aware protocol: every
/// grant carries a sequence number and a commit decision, workers buffer
/// each task's emissions in a staging store that is absorbed only after
/// rank 0 commits the task (the exactly-once work ledger), lost protocol
/// messages are resent, tasks owned by crashed or timed-out workers are
/// reassigned with exponential backoff, and a task that exhausts its
/// retry budget is recorded as failed instead of wedging the run
/// (graceful degradation to partial results).
///
/// Timeouts are in the backend's time base: virtual seconds on the DES,
/// wall-clock seconds on the native backend.
struct FtConfig {
  bool enabled = false;
  /// Base service deadline for one task (grant to completion report).
  /// <= 0 selects the adaptive default: 4x the p99 of the observed
  /// grant-to-commit service times (with a floor of the worker poll and a
  /// 5 s bootstrap until enough tasks have completed).
  double task_timeout = 5.0;
  /// Deadline multiplier per extra attempt of the same task.
  double backoff = 2.0;
  /// Extra attempts per task beyond the first; a task failing
  /// 1 + max_retries times is declared failed.
  int max_retries = 3;
  /// Resend interval for lost protocol messages: an unanswered request or
  /// steal is resent, and a parked asker whose owner's wake never came
  /// re-asks, after a jittered worker_poll. The sharded ledger's fault-free
  /// waits and plain steal's termination token end on their events instead;
  /// master-ft still naps this long after a retry-later.
  double worker_poll = 0.05;
  /// Consecutive unanswered request resends before a worker gives up and
  /// fails the run (the master is gone for good).
  int max_resends = 20;
  /// Sharded steal-ft ledger: how many ranks own a slice of the commit
  /// ledger. 0 = every rank owns its seeded task range (fully
  /// decentralized); 1 reproduces the single-coordinator shape.
  int ledger_ranks = 0;
  /// Optional phi-accrual failure detection piggybacked on protocol
  /// traffic; drives early worker eviction and shard failover. Defaults
  /// off: drivers enable it via --heartbeat.
  fault::HeartbeatConfig heartbeat;
};

/// Tuning of the work-stealing policy.
struct StealConfig {
  /// Maximum tasks transferred per successful steal (the victim never
  /// gives away more than half of its deque).
  int batch = 4;
  /// Idle nap after an empty steal attempt, growing exponentially up to
  /// backoff_max so an idle endgame does not flood the network.
  double backoff_init = 0.002;
  double backoff_max = 0.05;
  /// Fault-tolerant mode only: unanswered resends of one steal request
  /// before the thief gives up on that victim (a victim busy inside a
  /// long task serves requests only between tasks). Abandoned requests
  /// lose nothing — un-delivered stolen tasks stay Pending in the ledger.
  int max_resends = 3;
  /// Victim-selection RNG seed (mixed with rank and map epoch).
  std::uint64_t seed = 0x5eed5eedULL;
};

/// One task whose output was restored from a checkpoint by `owner`: the
/// scheduler must not run it again. The fault-tolerant ledger records it
/// as committed by `owner` at incarnation `owner_inc`, so a later crash
/// of the owner reverts it exactly like any freshly committed task.
struct DoneTask {
  std::uint64_t task;
  int owner;
  std::uint32_t owner_inc;
};

/// Per-map scheduler statistics, merged into MapReduceStats by the host.
/// The fault counters are signed because a task can un-fail within one
/// map (a presumed-lost attempt commits after all); the per-map net is
/// never negative.
struct SchedStats {
  std::int64_t tasks_retried = 0;
  std::int64_t worker_deaths = 0;
  std::int64_t tasks_failed = 0;
  std::uint64_t steals_attempted = 0;  ///< steal requests sent by this rank
  std::uint64_t steals_succeeded = 0;  ///< requests that returned >= 1 task
  std::uint64_t tasks_stolen = 0;      ///< tasks this rank acquired by stealing
  std::uint64_t evictions = 0;   ///< workers evicted on phi-accrual suspicion
  std::uint64_t failovers = 0;   ///< ledger shards adopted from a dead owner
};

/// How the host runs and commits tasks. Schedulers never touch KV or
/// checkpoint state directly; they call these hooks.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Runs one task straight into the final output (journaling it and
  /// skipping checkpoint-restored tasks). For paths without a commit
  /// protocol: static partitions, the plain master-worker, non-FT steal,
  /// and the ledger's rank-0 endgame.
  virtual void run_direct(std::uint64_t task, bool retry) = 0;
  /// Runs one task into the (single) staging buffer; its emissions stay
  /// invisible until commit_staged().
  virtual void run_staged(std::uint64_t task, bool retry) = 0;
  /// Journals and absorbs the staged task into the final output.
  virtual void commit_staged(std::uint64_t task) = 0;
  /// Drops the staged emissions (another attempt won the commit race).
  virtual void discard_staged() = 0;
  /// Simulated process death: every in-memory result this rank holds —
  /// staged and committed — is gone.
  virtual void on_crash() = 0;

  // Sharded-ledger journal hooks. A shard owner journals every commit
  // decision to its own CRC32-framed log BEFORE granting it (write-ahead),
  // so a successor replaying the log after the owner's death never
  // re-grants a committed task. All three default to "no durable journal"
  // so executors without checkpointing need not care.
  /// True when shard journals are durable (a checkpoint dir is active).
  virtual bool shard_journal_enabled() const { return false; }
  /// Replays the existing journal of `shard`, invoking `fn(payload)` per
  /// intact record, and positions the journal for appending after the
  /// last intact record (torn/corrupt tails are truncated).
  virtual void shard_journal_replay(
      int shard, const std::function<void(const std::vector<std::byte>&)>& fn) {
    (void)shard;
    (void)fn;
  }
  /// Appends one framed record to `shard`'s journal and syncs it.
  virtual void shard_journal_append(int shard, const std::vector<std::byte>& payload) {
    (void)shard;
    (void)payload;
  }
};

/// Master-side view of one worker in the fault-tolerant protocol.
struct FtWorkerView {
  std::uint32_t incarnation = 0;
  std::uint32_t last_seq = 0;  ///< newest request seq answered (0 = none)
  std::vector<std::byte> cached_grant;  ///< replay buffer for last_seq
  bool stopped = false;  ///< told to leave; may return with a new incarnation
  bool dead = false;     ///< announced a permanent crash
};

/// Victim-side replay state for one thief (fault-tolerant steal): a
/// resent steal request is answered with the cached response so a lost
/// response never loses the tasks it carried.
struct StealPeerView {
  std::uint32_t last_seq = 0;
  std::vector<std::byte> cached_resp;
};

/// Protocol state that must outlive a single map() call. Sequence numbers
/// are monotone for the life of the host object so a delayed message from
/// map N can never alias a fresh exchange in map N+1; the epoch stamps
/// every steal-layer message so stragglers from an earlier map are
/// recognized and dropped.
struct ProtocolState {
  std::vector<FtWorkerView> workers;  ///< rank 0: per-worker ledger transport
  std::uint32_t seq = 0;              ///< worker: last ledger request seq sent
  std::uint32_t incarnation = 0;      ///< worker: respawn count
  std::uint32_t steal_seq = 0;        ///< thief: last steal request seq sent
  std::uint32_t epoch = 0;            ///< map phases started on this rank
  std::map<int, StealPeerView> steal_peers;  ///< victim: replay cache per thief

  // Sharded steal-ft ledger state. Client sequence numbers and the shard
  // owners' replay caches model supervisor-restored transport state (like
  // steal_peers); death knowledge and shard adoption must survive across
  // maps so a rank that died in map N stays dead — and its shard stays
  // with the successor — in map N+1.
  std::map<int, std::uint32_t> owner_seq;    ///< client: last req seq per owner
  std::map<int, FtWorkerView> shard_clients; ///< owner: replay cache per client
  std::vector<std::uint8_t> peers_dead;      ///< acked permanent deaths, by rank
};

/// Affinity: task -> locality key (same signature as mrmpi::AffinityFn).
using AffinityFn = std::function<std::uint64_t(std::uint64_t itask)>;

/// Everything a scheduler needs for one collective map phase.
struct MapContext {
  mpi::Comm& comm;
  std::uint64_t ntasks = 0;
  /// Optional locality function; honoured by the master policies, ignored
  /// by static partitions and steal.
  const AffinityFn* affinity = nullptr;
  FtConfig ft;
  StealConfig steal;
  /// Null disables the scheduler's phase spans (mw_service, steal_wait...).
  trace::Recorder* rec = nullptr;
  Executor* exec = nullptr;
  ProtocolState* proto = nullptr;
  /// Checkpoint-restored tasks (global set on every rank when the host
  /// ran the shared replay; never hand these out again).
  const std::vector<DoneTask>* restored = nullptr;
  SchedStats* stats = nullptr;
  /// Rank 0, fault-tolerant paths: tasks that exhausted their retries.
  std::vector<std::uint64_t>* failed = nullptr;
};

/// One scheduling strategy. execute() is collective over ctx.comm: every
/// rank calls it once per map phase and it returns only when this rank is
/// released (all tasks settled or this rank told to stop).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;
  virtual void execute(MapContext& ctx) = 0;
};

/// Creates the strategy for `policy`. `policy` must be concrete
/// (not Auto — the host resolves Auto against its MapStyle first).
/// Master upgrades itself to the fault-tolerant protocol when
/// ctx.ft.enabled; MasterFt forces it regardless; Steal picks the token
/// variant or the ledger-backed variant from ctx.ft.enabled.
std::unique_ptr<Scheduler> make_scheduler(Policy policy);

/// True for policies that schedule remotely (and therefore need the
/// shared checkpoint-claim exchange when more than one rank runs).
constexpr bool is_remote(Policy policy) {
  return policy == Policy::Master || policy == Policy::MasterFt ||
         policy == Policy::Steal;
}

/// Resolved shard count of the sharded steal-ft ledger: ft.ledger_ranks
/// clamped to [1, nranks], with the 0 default meaning "one shard per
/// rank". Public because the host's resume merge enumerates the shard
/// journals with it.
inline int shard_count(const FtConfig& ft, int nranks) {
  const int l = ft.ledger_ranks <= 0 ? nranks : ft.ledger_ranks;
  return l < 1 ? 1 : (l > nranks ? nranks : l);
}

/// Applies one shard-journal record to the cumulative task -> committer
/// map: a commit record inserts or overwrites its task's entry, a revert
/// record (written when an owner learns a rank's incarnation bumped or
/// died) removes every entry that rank had committed. Records are applied
/// in journal order, so "remove all by that rank" is exact — commits by
/// the rank's next incarnation only appear after the revert. Malformed
/// payloads are ignored. Shared by the sharded scheduler's failover
/// replay and the host's kill->resume merge.
void apply_shard_record(std::span<const std::byte> payload,
                        std::map<std::uint64_t, DoneTask>& commits);

}  // namespace mrbio::sched
