// Runtime abstraction: the machine interface the MPI-flavoured stack is
// written against.
//
// Everything above this layer (mpi::Comm, mrmpi::MapReduce, the BLAST and
// SOM drivers) sees a rank only through rt::Rank = Transport + Clock. Two
// implementations exist:
//
//   * the discrete-event simulator (sim::Engine, adapted by rt::SimRank):
//     virtual clocks, an alpha-beta network model, deterministic
//     scheduling — the figure-reproduction and what-if backend;
//   * the native backend (rt::NativeEngine): each rank is a preemptive
//     std::thread, mailboxes are mutex+condvar deques, now() reads the
//     host steady_clock and compute() is free because real work already
//     costs real time.
//
// Transport contract (both backends guarantee it):
//   * per-channel FIFO: two messages from the same source to the same
//     destination are received in send order when matched by the same
//     (src, tag) pattern;
//   * wildcard matching (kAnySource/kAnyTag) picks the earliest-arrived
//     match;
//   * sends are eager and buffered — they never block on the receiver;
//   * nominal_bytes is advisory: it drives the simulator's timing model
//     and is carried (but not charged) by the native backend, so phantom
//     collectives degrade to timed no-ops instead of moving fake bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mrbio::trace {
class Recorder;
}

namespace mrbio::obs {
class Registry;
class TimeSeries;
class EventLog;
}

namespace mrbio::fault {
class Injector;
}

namespace mrbio::rt {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;
/// Matches any tag in the application range [0, 1 << 20) but never the
/// transport-internal tags (collectives, sleep timers). Long-serving
/// protocol loops must use this instead of kAnyTag so they cannot swallow
/// collective traffic from ranks that have already left the phase.
constexpr int kAnyUserTag = -2;

/// Result of a timed receive (recv_deadline).
enum class RecvStatus : std::uint8_t {
  Ok,       ///< a matching message was received
  Timeout,  ///< the deadline passed with no matching message
  PeerDead, ///< the awaited peer terminated and can never send a match
};

/// Lifecycle of a peer rank as observed through the transport.
enum class PeerState : std::uint8_t {
  Active,    ///< still running (or state unknown)
  Finished,  ///< returned from its body normally
  Failed,    ///< terminated with an error
};

/// Message record exchanged between ranks. Timestamps are in the owning
/// backend's time base (virtual seconds for the DES, seconds since run
/// start for the native backend).
struct Message {
  int source = -1;
  int tag = -1;
  double sent = 0.0;     ///< time the send was issued
  double arrival = 0.0;  ///< time the message reached the receiver
  std::uint64_t nominal_bytes = 0;
  std::vector<std::byte> payload;
};

/// Time source of a rank. `compute(seconds)` charges modeled work: the DES
/// advances the virtual clock; real backends do nothing because real work
/// already takes real time.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time of this rank, in seconds.
  virtual double now() const = 0;

  /// Charges `seconds` of modeled computation to this rank.
  virtual void compute(double seconds) = 0;
};

/// Point-to-point messaging endpoint of a rank. See the file comment for
/// the FIFO/wildcard/eager-send contract.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Sends `payload` to rank `dst`. `nominal_bytes` is the byte count the
  /// timing model charges; it may differ from the real payload size when
  /// simulating paper-scale transfers with token payloads.
  virtual void send(int dst, int tag, std::vector<std::byte> payload,
                    std::uint64_t nominal_bytes) = 0;

  /// Send with nominal size = real payload size.
  void send(int dst, int tag, std::vector<std::byte> payload) {
    const std::uint64_t nominal = payload.size();
    send(dst, tag, std::move(payload), nominal);
  }

  /// Blocking receive. src = kAnySource and tag = kAnyTag act as
  /// wildcards; messages match in arrival order.
  virtual Message recv(int src = kAnySource, int tag = kAnyTag) = 0;

  /// True if a matching message has already arrived (non-blocking probe).
  virtual bool has_message(int src = kAnySource, int tag = kAnyTag) const = 0;

  /// Receive with a failure-notification path: blocks until a matching
  /// message arrives (Ok, `*out` filled), the absolute `deadline` (in this
  /// backend's time base) passes (Timeout), or — for a specific `src` —
  /// that peer terminates with no matching message in flight (PeerDead).
  /// The base implementation ignores the deadline and blocks forever;
  /// both engines override it.
  virtual RecvStatus recv_deadline(int src, int tag, double deadline, Message* out) {
    (void)deadline;
    *out = recv(src, tag);
    return RecvStatus::Ok;
  }

  /// Observed lifecycle of `peer`. Backends without death tracking report
  /// Active forever.
  virtual PeerState peer_state(int peer) const {
    (void)peer;
    return PeerState::Active;
  }

  /// Per-byte transfer time of the modeled network, or 0 on backends that
  /// move real bytes (there the cost is already paid in wall-clock time).
  /// Pipelined phantom collectives use this for their bandwidth charge.
  virtual double modeled_byte_time() const = 0;
};

/// A rank: transport + clock + the observability sinks of the owning
/// engine. This is the one handle application code receives.
class Rank : public Transport, public Clock {
 public:
  /// The engine's span recorder, or null when tracing is off.
  virtual trace::Recorder* tracer() const { return nullptr; }

  /// The engine's metrics registry, or null when metrics are off.
  virtual obs::Registry* metrics() const { return nullptr; }

  /// The run's fault injector, or null when no faults are planned. The
  /// fault-tolerant scheduler polls it for crash triggers; the engines
  /// consult it themselves for message and slow-rank faults.
  virtual fault::Injector* faults() const { return nullptr; }

  /// The run's time-series sampler, or null when sampling is off. Layers
  /// above the engine sample their own channels (queue depths, tasks done)
  /// stamped with this rank's clock.
  virtual obs::TimeSeries* timeseries() const { return nullptr; }

  /// The run's structured event log, or null when not enabled.
  virtual obs::EventLog* eventlog() const { return nullptr; }

  /// True when this rank is a thread on a real core (the native engine),
  /// false on the DES. sched::Policy::Auto reads it: an idle grant loop
  /// costs the DES nothing but a native core its share of the run.
  virtual bool native() const { return false; }
};

}  // namespace mrbio::rt
