// MapReduce over MPI, reimplementing the Sandia MapReduce-MPI library's
// programming model (Plimpton & Devine) that the paper builds both of its
// applications on.
//
// Lifecycle of one MapReduce cycle, as in the paper's Fig. 1:
//
//   MapReduce mr(comm, config);
//   mr.map(n_work_units, map_fn);   // map_fn emits KV pairs per work unit
//   mr.collate();                   // = aggregate() + convert()
//   mr.reduce(reduce_fn);           // called once per unique key
//
// All methods are collective: every rank of the communicator must call
// them in the same order. The map() call supports the library's three
// task-distribution styles; the paper's BLAST uses MasterWorker ("a
// run-time option ... that instructs it to use the process with rank 0 as
// a master that distributes work units to the remaining ranks in a
// load-balanced way").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "mpi/comm.hpp"
#include "mrmpi/keyvalue.hpp"
#include "sched/sched.hpp"

namespace mrbio::ckpt {
class Checkpointer;
class RecordWriter;
}  // namespace mrbio::ckpt

namespace mrbio::mrmpi {

/// How map() assigns task indices to ranks.
enum class MapStyle {
  Chunk,         ///< contiguous blocks of tasks per rank (Sandia mapstyle 0)
  Stride,        ///< task i -> rank i % P (Sandia mapstyle 1)
  MasterWorker,  ///< rank 0 schedules tasks to idle workers (mapstyle 2)
};

/// Fault tolerance for the remote schedulers (MasterWorker / Steal).
///
/// When enabled, the scheduling protocol is replaced by a failure-aware
/// one: every grant carries a sequence number and a commit decision,
/// workers buffer each task's emissions in a staging store that is
/// absorbed only after the master commits the task (the exactly-once
/// work ledger), lost protocol messages are resent, tasks owned by crashed
/// or timed-out workers are reassigned with exponential backoff, and a
/// task that exhausts its retry budget is recorded as failed instead of
/// wedging the run (graceful degradation to partial results; see
/// MapReduce::failed_tasks()). The knobs live in sched::FtConfig.
///
/// Timeouts are in the backend's time base: virtual seconds on the DES,
/// wall-clock seconds on the native backend.
using FaultToleranceConfig = sched::FtConfig;

/// How aggregate() moves KV pairs between ranks.
enum class ExchangeMode {
  Flat,  ///< rotation-scheduled alltoallv, p-1 direct messages per rank
  Tree,  ///< Bruck-style radix-r staged exchange, (r-1)*ceil(log_r p) messages
};

/// Communication-efficiency options of the aggregate()/collate() shuffle.
/// All ranks must use identical settings (the exchange framing depends on
/// them). Every combination produces byte-identical post-collate() KMV
/// contents — the combiner is structural (same key sent once per
/// destination with its value list, orders preserved), the staged exchange
/// re-orders by origin rank, and the codec round-trips exactly — so modes
/// differ only in modeled cost, never in results.
struct ShuffleConfig {
  /// Pre-aggregate same-key pairs per destination before the exchange:
  /// each key crosses the wire once per destination, followed by its value
  /// list. Nominal (timing-model) bytes shrink proportionally to the real
  /// framing saving, so paper-scale runs see the reduction too.
  bool combiner = false;
  ExchangeMode exchange = ExchangeMode::Flat;
  /// Fan-out of the staged exchange (>= 2); used when exchange == Tree.
  int tree_radix = 2;
  /// Varint/RLE-compress exchange buffers on the wire and KV pages in the
  /// spill files (see shuffle_codec.hpp); nominal bytes scale with the
  /// real compression ratio.
  bool compress = false;
  /// Overlap spill-file I/O with the exchange: virtual seconds spent
  /// blocked in the exchange are credited against the post-exchange spill
  /// charge (a rank can drain pages to disk while waiting for the wire).
  bool overlap_spill = false;
};

struct MapReduceConfig {
  MapStyle map_style = MapStyle::MasterWorker;
  /// Scheduling policy of map()/map_locality(). Auto (the default) derives
  /// the policy from map_style and the backend — Chunk/Stride map to their
  /// static schedulers; MasterWorker maps to the master policy (upgraded to
  /// the fault-tolerant ledger when ft.enabled) on the DES, and to steal on
  /// the native backend, where a grant-only rank 0 would idle a real core.
  /// Any other value overrides map_style on both backends:
  /// sched::Policy::Steal selects decentralized work stealing (per-rank
  /// deques seeded with the chunk partition, randomized victim selection,
  /// token termination; with ft.enabled every commit goes through the
  /// exactly-once ledger, sharded by task range across the ranks).
  sched::Policy scheduler = sched::Policy::Auto;
  /// Work-stealing knobs (batch size, victim-selection seed, idle backoff).
  sched::StealConfig steal;
  /// Shuffle strategy of aggregate()/collate(); defaults reproduce the
  /// classic flat exchange.
  ShuffleConfig shuffle;
  /// Fault tolerance of the remote protocols (master-worker and steal);
  /// off by default.
  FaultToleranceConfig ft;
  /// Per-rank resident budget for KV data, mirroring Sandia's `memsize`.
  /// Nominal bytes beyond this are charged virtual I/O time; the paper
  /// notes clusters like Ranger have no local scratch, making this
  /// expensive.
  std::uint64_t memsize_bytes = 64ull << 20;
  /// Virtual seconds per spilled byte (write + later read back).
  double spill_byte_seconds = 2.0e-9;
  /// Actually page KV data to disk under the memsize budget (the Sandia
  /// library's out-of-core mode), in addition to the virtual-time charge.
  bool page_to_disk = false;
  /// Directory for spill files; "" (the default) resolves to $TMPDIR,
  /// falling back to /tmp.
  std::string spill_dir;
  std::uint64_t page_bytes = 1ull << 20;
  /// When the engine has a trace::Recorder attached, wrap each phase
  /// (map/aggregate/convert/reduce/compress/gather), every map task, the
  /// master's per-request service and spill charges in named spans. Off
  /// silences this library's spans without disabling tracing elsewhere.
  bool trace_phases = true;
  /// Non-owning; when set, map() journals every committed task's emissions
  /// to the per-rank per-cycle map log and, on a resumed run, replays the
  /// journal instead of re-executing the logged tasks. Spill files also
  /// switch to durable mode inside the checkpoint directory. The caller
  /// must advance the checkpoint cycle (Checkpointer::begin_cycle) before
  /// each checkpointed map; at most one map per rank per cycle.
  ckpt::Checkpointer* checkpointer = nullptr;
};

/// Statistics of one MapReduce object's lifetime, for benchmarks.
struct MapReduceStats {
  std::uint64_t map_tasks_run = 0;       ///< tasks executed on this rank
  std::uint64_t kv_pairs_emitted = 0;    ///< local emissions in map/reduce
  std::uint64_t spilled_bytes = 0;       ///< nominal bytes over the budget
  std::uint64_t aggregate_bytes_sent = 0;///< nominal bytes shipped by aggregate()
  /// Nominal bytes the combiner kept off the wire (flat framing minus
  /// combined framing, scaled to nominal sizes).
  std::uint64_t shuffle_combined_bytes = 0;
  std::uint64_t shuffle_stages = 0;      ///< staged-exchange rounds executed
  /// Virtual spill seconds saved by overlapping spill I/O with the
  /// exchange (shuffle.overlap_spill).
  double shuffle_overlap_saved_seconds = 0.0;
  // Fault-tolerance counters (master side, meaningful on rank 0).
  std::uint64_t tasks_retried = 0;       ///< reassignments after timeout/crash
  std::uint64_t worker_deaths = 0;       ///< crash notifications observed
  std::uint64_t tasks_failed = 0;        ///< tasks that exhausted max_retries
  // Work-stealing counters (per rank; steal policy only).
  std::uint64_t steals_attempted = 0;    ///< steal requests this rank sent
  std::uint64_t steals_succeeded = 0;    ///< requests answered with work
  std::uint64_t tasks_stolen = 0;        ///< tasks gained via stealing
  // Failure-detection counters (fault-tolerant paths only).
  std::uint64_t workers_evicted = 0;     ///< phi-accrual early expirations
  std::uint64_t ledger_failovers = 0;    ///< shards adopted from dead owners
};

class MapReduce {
 public:
  /// Map callback: receives the global task index and the rank-local
  /// KeyValue to emit into.
  using MapFn = std::function<void(std::uint64_t itask, KeyValue& kv)>;

  /// Reduce callback: one unique key with all its values, plus a KeyValue
  /// for (optional) re-emission.
  using ReduceFn = std::function<void(const KmvGroup& group, KeyValue& kv)>;

  MapReduce(mpi::Comm& comm, MapReduceConfig config = {});
  ~MapReduce();  // out-of-line: ckpt::RecordWriter is incomplete here

  /// Runs `fn` once per task in [0, ntasks) distributed per the map style,
  /// replacing this object's KV data with the emissions. Returns the global
  /// number of KV pairs. In MasterWorker style with more than one rank,
  /// rank 0 only schedules and executes no tasks.
  std::uint64_t map(std::uint64_t ntasks, const MapFn& fn);

  /// Like map() but keeps existing KV pairs (Sandia's addflag).
  std::uint64_t map_append(std::uint64_t ntasks, const MapFn& fn);

  /// Task -> locality key (e.g. the DB partition a task needs).
  using AffinityFn = std::function<std::uint64_t(std::uint64_t itask)>;

  /// Master-worker map with a location-aware scheduler: when a worker asks
  /// for work, the master prefers a task whose locality key matches the
  /// last task that worker ran, falling back to the key with the most
  /// remaining tasks. This is the paper's first planned improvement
  /// ("improving the location-aware work unit scheduler in order to
  /// distribute the work unit tuples to those ranks that have already been
  /// processing the same DB partitions"). Requires >= 2 ranks to schedule
  /// remotely; with 1 rank it degenerates to a local loop.
  std::uint64_t map_locality(std::uint64_t ntasks, const AffinityFn& affinity,
                             const MapFn& fn);

  /// Redistributes KV pairs so all copies of a key land on the rank
  /// hash(key) % P. Returns the global pair count.
  std::uint64_t aggregate();

  /// Locally groups KV pairs into key-multivalue groups. Returns the global
  /// number of unique keys (per-rank unique; globally unique after
  /// aggregate()).
  std::uint64_t convert();

  /// aggregate() followed by convert(), as in the Sandia library.
  std::uint64_t collate();

  /// Calls `fn` once per local KMV group; emissions replace the KV data.
  /// Returns the global number of emitted pairs. Requires a prior convert().
  std::uint64_t reduce(const ReduceFn& fn);

  /// Locally groups this rank's pairs by key and calls `fn` once per local
  /// group, with no communication (Sandia's compress()). The classic use
  /// is a combiner that shrinks data before the aggregate() exchange.
  /// Returns the global number of emitted pairs.
  std::uint64_t compress(const ReduceFn& fn);

  /// Calls `fn` once per existing KV pair; emissions replace the store
  /// (a map over the MR object's own data, as in the Sandia API).
  using MapKvFn = std::function<void(const KvPair& pair, KeyValue& kv)>;
  std::uint64_t map_kv(const MapKvFn& fn);

  /// Read-only visit of every local pair (Sandia's scan()); purely local,
  /// no communication, the store is unchanged.
  void scan(const std::function<void(const KvPair&)>& fn) const { kv_.for_each(fn); }

  /// Moves all KV pairs to rank 0 (Sandia's gather(1)). Returns global count.
  std::uint64_t gather();

  /// Sorts this rank's KV pairs by key bytes (lexicographic).
  void sort_keys();

  /// Read access to this rank's current KV pairs.
  const KeyValue& kv() const { return kv_; }
  /// Read access to the grouped data (valid after convert()).
  const KeyMultiValue& kmv() const { return kmv_; }

  const MapReduceStats& stats() const { return stats_; }
  mpi::Comm& comm() { return comm_; }

  /// Task ids of the last map that exhausted their retry budget under a
  /// fault-tolerant scheduler and that this rank's ledger recorded: rank 0
  /// under master-ft, the owner of the task's shard under steal. Sum the
  /// counts over every rank for the job's total. Empty on fully
  /// successful runs; non-empty anywhere means the KV data is a partial
  /// result.
  const std::vector<std::uint64_t>& failed_tasks() const { return failed_tasks_; }

 private:
  /// One task restored from the map log on resume: its output is already
  /// absorbed on `owner`, so the scheduler must not hand it out again. The
  /// fault-tolerant master records it as committed by `owner` at that
  /// worker's current incarnation, so a later crash of the owner reverts
  /// it exactly like any other committed task.
  using CkptDoneTask = sched::DoneTask;

  /// The sched::Executor this object hands to the scheduler strategies:
  /// maps task execution, staging, commit/discard and crash-reset onto
  /// this object's KeyValue stores and checkpoint journal.
  class ExecImpl;

  std::uint64_t run_map(std::uint64_t ntasks, const MapFn& fn, bool append);
  /// config_.scheduler with Auto resolved from map_style and the backend.
  sched::Policy resolve_policy() const;
  /// Builds the sched::MapContext (executor, protocol state, restored
  /// tasks) and runs the selected strategy, merging its stats into stats_.
  void run_sched(sched::Policy policy, std::uint64_t ntasks, const AffinityFn* affinity,
                 const MapFn& fn, KeyValue& out, const std::vector<CkptDoneTask>& ckpt_done);
  /// A KeyValue configured with this object's paging policy.
  KeyValue make_kv() const;
  /// The engine recorder, or null when tracing is off (either globally or
  /// via config_.trace_phases).
  trace::Recorder* phase_recorder();
  obs::Registry* metrics() { return comm_.metrics(); }
  /// Runs one map task, wrapped in a Task span when tracing. `span_name`
  /// distinguishes first attempts ("map_task") from retries
  /// ("map_task_retry") so the report can price recovery re-execution.
  void run_task(const MapFn& fn, std::uint64_t task, KeyValue& out, trace::Recorder* rec,
                const char* span_name = "map_task");
  /// Applies the spill cost model after KV growth. `fresh_store` marks a
  /// kv_ that was replaced by a newly built store: its whole over-budget
  /// portion is new I/O, so the high-water mark resets instead of only
  /// charging growth beyond the previous store's peak. `credit_seconds`
  /// is deducted from the charge (spill I/O overlapped with the shuffle
  /// exchange); the charged remainder is traced under `span_name`.
  void charge_spill(bool fresh_store = false, double credit_seconds = 0.0,
                    const char* span_name = "spill");
  std::uint64_t global_count(std::uint64_t local) ;

  // --- checkpoint/restart hooks (all no-ops when no checkpointer) ---
  /// True when this map journals task outputs.
  bool ckpt_active() const { return ckpt_.active; }
  /// Replays this rank's map log for the current cycle into `out` and
  /// reopens the log for appending. With `shared` (remote master-worker
  /// scheduling) the ranks allgather their replayed task ids and the
  /// lowest rank keeps each task; the returned list is the global set of
  /// restored tasks for the master's ledger. Without sharing the returned
  /// list covers only this rank's tasks. With `sharded` (the sharded
  /// steal-ft ledger) and existing shard journals, the journals are the
  /// commit authority: a map-log record only counts when the journal's
  /// surviving decision for that task exists, so corrupting one shard's
  /// journal re-runs only that shard's range.
  std::vector<CkptDoneTask> ckpt_begin_map(std::uint64_t ntasks, KeyValue& out, bool shared,
                                           bool sharded);
  /// Journals one committed task's emissions; flushes when the checkpoint
  /// interval has elapsed.
  void ckpt_record_task(std::uint64_t task, const KeyValue& emitted);
  /// Appends buffered records to the map log and fsyncs it.
  void ckpt_flush();
  /// Final flush + close of the map log for this cycle.
  void ckpt_end_map();
  /// run_task() with journaling: restored tasks are skipped, fresh tasks
  /// run into a scratch store that is journaled and then absorbed.
  void run_task_ckpt(const MapFn& fn, std::uint64_t task, KeyValue& out, trace::Recorder* rec,
                     const char* span_name = "map_task");
  // Sharded-ledger journal passthrough for sched::Executor: replay
  // positions the shard's writer after the last intact record; append is
  // write-ahead (synced before the scheduler sends the matching grant).
  bool ckpt_shard_enabled() const { return ckpt_.active; }
  void ckpt_shard_replay(int shard,
                         const std::function<void(const std::vector<std::byte>&)>& fn);
  void ckpt_shard_append(int shard, const std::vector<std::byte>& payload);

  mpi::Comm& comm_;
  MapReduceConfig config_;
  KeyValue kv_;
  KeyMultiValue kmv_;
  bool have_kmv_ = false;
  std::uint64_t charged_spill_ = 0;  ///< spilled bytes already charged
  MapReduceStats stats_;
  std::vector<std::uint64_t> failed_tasks_;

  // Scheduler transport state (sequence numbers, incarnations, grant and
  // steal replay caches, the steal epoch). This lives on the MapReduce
  // object, not inside one map() call, because delayed or duplicated
  // protocol messages can outlive the map that sent them: sequence numbers
  // must be monotone for the whole life of this object or a stale grant
  // from map N could alias (and answer) a fresh request in map N+1.
  sched::ProtocolState sched_state_;

  /// Per-map journaling state; reset by ckpt_begin_map.
  struct CkptMapState {
    bool active = false;
    std::uint64_t cycle = 0;
    std::unique_ptr<ckpt::RecordWriter> log;
    /// Records encoded but not yet flushed to the log.
    std::vector<std::vector<std::byte>> pending;
    std::uint64_t pending_bytes = 0;
    double last_flush = 0.0;
    /// Tasks whose output was replayed from the log (skip on re-execution).
    std::set<std::uint64_t> restored;
    /// Shard-journal writers owned by this rank's shard ledgers (sharded
    /// steal-ft only), keyed by shard id; opened lazily at replay.
    std::map<int, std::unique_ptr<ckpt::RecordWriter>> shard_logs;
  };
  CkptMapState ckpt_;
  /// Distinguishes durable spill files of the KeyValue stores this object
  /// creates; monotone per rank, so names never collide within a run and
  /// stale files from a killed run are truncated on reuse.
  mutable std::uint64_t ckpt_kv_serial_ = 0;
};

}  // namespace mrbio::mrmpi
