// Deterministic fault injection for the runtime backends.
//
// A FaultPlan is a declarative list of failures to inject into one run:
// rank crashes (fired at a virtual/steady time or at a task index),
// message drops / duplications / delays on user-tag traffic, and
// slow-rank compute multipliers. Both engines consult a shared, thread-
// safe Injector built from the plan:
//
//   * sim::Engine and rt::NativeEngine call Injector::on_send() for every
//     point-to-point message and apply the returned action, and scale
//     compute() charges by slow_factor();
//   * the fault-tolerant master-worker scheduler in mrmpi polls
//     maybe_crash()/task_started() at protocol points, which throw
//     CrashSignal when a crash trigger fires. The worker harness catches
//     the signal, discards all volatile map-phase state (the crash-
//     during-emit model) and rejoins with a bumped incarnation number —
//     or, for `mode=permanent`, leaves the task protocol for good.
//
// Message faults apply only to application tags (below the user-tag
// limit), never to collective traffic, and every fault has a finite
// count, so a plan can delay progress but cannot livelock a run.
//
// Two whole-job fault kinds exercise the checkpoint/restart layer:
//
//   * kill:t=0.5 throws JobKillSignal (NOT CrashSignal — the fault-
//     tolerant worker loop must not swallow it) from every crash poll at
//     or after the trigger time, modeling the scheduler killing the whole
//     job; the CLI tools map it to exit code 3 so a wrapper can restart
//     with --resume.
//   * corrupt:target=ledger|map|snapshot|any flips a byte in the matching
//     checkpoint file right after a durable write (the ckpt layer calls
//     Injector::take_corrupt from its post-write hooks), which the next
//     read must catch via CRC and degrade to recomputation.
//
// Plans parse from a compact spec string
//
//   crash:rank=3@t=0.4; drop:src=1,dst=0,count=2; slow:rank=2,factor=4
//
// or from a JSON document {"faults":[{"kind":"crash","rank":3,...},...]}.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace mrbio::fault {

/// Tags at or above this value are runtime-internal (collective plumbing)
/// and immune to message faults. Mirrors mpi::Comm::kUserTagLimit, which
/// static_asserts against this value — the fault layer sits below mpi and
/// cannot include it.
inline constexpr int kUserTagLimit = 1 << 20;

/// Thrown out of Injector crash polls when a crash trigger fires. The
/// fault-tolerant worker loop catches it and respawns the worker with
/// empty state; if no layer catches it (fault tolerance disabled) the
/// run fails with this error.
class CrashSignal : public Error {
 public:
  CrashSignal(int rank, const std::string& what) : Error(what), rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Thrown out of crash polls when a job-kill trigger fires. Deliberately
/// NOT a CrashSignal: the fault-tolerant worker loop only catches
/// CrashSignal, so a kill always unwinds the whole run — the in-memory
/// state is gone and only checkpointed state survives for --resume.
class JobKillSignal : public Error {
 public:
  explicit JobKillSignal(int rank, const std::string& what) : Error(what), rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// One injected rank crash. Exactly one trigger is set: `t` (fires at the
/// first poll at or after that time) or `task` (fires when the rank starts
/// its task-index-th map task, 0-based, counted per rank per run).
struct CrashFault {
  int rank = -1;
  double t = -1.0;            ///< time trigger; < 0 = unset
  std::int64_t task = -1;     ///< task-count trigger; < 0 = unset
  bool permanent = false;     ///< never rejoins the task protocol
};

/// One message-level fault on the (src, dst) channel. Wildcard -1 matches
/// any rank. Applies to the next `count` matching user-tag sends.
struct MessageFault {
  enum class Kind : std::uint8_t { Drop, Duplicate, Delay };
  Kind kind = Kind::Drop;
  int src = -1;
  int dst = -1;
  int count = 1;
  double by = 0.0;  ///< Delay only: added seconds
};

/// Multiplies every compute() charge on `rank` by `factor` (sim) or adds
/// (factor - 1) x modeled seconds of real sleep (native).
struct SlowFault {
  int rank = -1;
  double factor = 1.0;
};

/// Kills the whole job at virtual/steady time `t`: every rank's next
/// crash poll at or after `t` throws JobKillSignal.
struct KillFault {
  double t = 0.0;
};

/// Which checkpoint file class a corrupt fault targets. Shard is the
/// per-shard commit journal of the sharded exactly-once ledger.
enum class CorruptTarget : std::uint8_t { Ledger, MapLog, Snapshot, Shard, Any };

/// Flips one byte of a freshly written checkpoint file. Applies to the
/// next `count` matching durable writes; `byte` is an absolute offset
/// (clamped to the file), or -1 for the middle of the file.
struct CorruptFault {
  CorruptTarget target = CorruptTarget::Any;
  std::int64_t byte = -1;
  int count = 1;
};

struct FaultPlan {
  std::vector<CrashFault> crashes;
  std::vector<MessageFault> messages;
  std::vector<SlowFault> slows;
  std::vector<KillFault> kills;
  std::vector<CorruptFault> corrupts;

  bool empty() const {
    return crashes.empty() && messages.empty() && slows.empty() && kills.empty() &&
           corrupts.empty();
  }

  /// True when this plan needs the fault-tolerant scheduling protocol, and
  /// so a remote scheduler, to make progress: a crash loses work that must
  /// be re-granted, and a dropped or duplicated scheduler message is
  /// absorbed only by the seq-numbered resend/replay protocols. Delays,
  /// slow ranks, job kills and checkpoint corruption shape timing or
  /// durable state and run on any scheduler. The drivers gate --faults on
  /// this one rule.
  bool requires_ft() const;

  /// Throws mrbio::InputError when a fault references a rank outside
  /// [0, nranks), a crash targets the master (rank 0) without a scheduler
  /// that supports master failover (`master_failover` true relaxes that —
  /// the sharded steal-ft ledger elects a deterministic successor), or a
  /// corrupt-checkpoint fault is present with no checkpoint dir
  /// configured (`checkpointing` false).
  void validate(int nranks, bool checkpointing = false,
                bool master_failover = false) const;

  /// Canonical spec-string form (parse(describe()) round-trips).
  std::string describe() const;

  /// Auto-detecting entry point: JSON when the text starts with '{',
  /// spec grammar otherwise.
  static FaultPlan parse(const std::string& text);
  static FaultPlan parse_spec(const std::string& spec);
  static FaultPlan parse_json(const std::string& json);
  /// Reads and parses a plan file (JSON or spec, auto-detected).
  static FaultPlan from_file(const std::string& path);
};

/// What the transport should do with one outgoing message.
struct SendAction {
  enum class Kind : std::uint8_t { Deliver, Drop, Duplicate };
  Kind kind = Kind::Deliver;
  double delay = 0.0;  ///< added seconds (Deliver/Duplicate)
};

struct InjectorStats {
  std::uint64_t crashes_fired = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t kills_fired = 0;
  std::uint64_t checkpoints_corrupted = 0;
};

/// Thread-safe run-time state of one FaultPlan. One Injector serves one
/// run; both backends may call it from many rank threads concurrently.
class Injector {
 public:
  explicit Injector(FaultPlan plan);

  /// Crash poll at a protocol point inside a crashable scope (the
  /// fault-tolerant worker loop). Throws CrashSignal when a trigger on
  /// `rank` is due at `now`; otherwise returns.
  void maybe_crash(int rank, double now);

  /// Marks the start of one map task on `rank` (advances the per-rank
  /// task counter for `task=` triggers), then polls like maybe_crash().
  void task_started(int rank, double now);

  /// True once any crash has fired on `rank`.
  bool crashed(int rank) const;

  /// True when a permanent crash has fired on `rank`: the rank must not
  /// rejoin the task protocol (it still participates in collectives).
  bool permanently_crashed(int rank) const;

  /// Resolves message faults for one send. Only tags in [0,
  /// user_tag_limit) are eligible; counts are consumed under the lock, so
  /// concurrent senders never double-apply a fault.
  SendAction on_send(int src, int dst, int tag, int user_tag_limit);

  /// Compute multiplier for `rank`; 1.0 when no slow fault matches.
  double slow_factor(int rank) const;

  /// Consumes one pending corrupt-checkpoint fault matching `target`
  /// (CorruptTarget::Any matches every write class). Returns true and
  /// fills `out` when a fault was consumed; the caller applies the byte
  /// flip to the file it just wrote.
  bool take_corrupt(CorruptTarget target, CorruptFault& out);

  InjectorStats stats() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  struct CrashState {
    CrashFault fault;
    bool fired = false;
  };
  struct MessageState {
    MessageFault fault;
    int remaining = 0;
  };
  struct KillState {
    KillFault fault;
    bool fired = false;  ///< guards the stats counter; the throw repeats
  };
  struct CorruptState {
    CorruptFault fault;
    int remaining = 0;
  };

  void poll_locked(int rank, double now, std::unique_lock<std::mutex>& lock);

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::vector<CrashState> crashes_;
  std::vector<MessageState> messages_;
  std::vector<KillState> kills_;
  std::vector<CorruptState> corrupts_;
  std::vector<bool> crashed_;              ///< indexed by rank, grown on demand
  std::vector<bool> permanently_crashed_;  ///< indexed by rank, grown on demand
  std::vector<std::int64_t> tasks_started_;  ///< per-rank map-task counter
  InjectorStats stats_;
};

}  // namespace mrbio::fault
