#include "rt/native.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "trace/trace.hpp"

namespace mrbio::rt {

namespace {

/// Thrown into ranks blocked in recv when another rank failed, so the
/// whole machine unwinds instead of hanging; swallowed by the runner.
struct AbortSignal {};

bool matches(const Message& m, int src, int tag) {
  if (src != kAnySource && m.source != src) return false;
  if (tag == kAnyTag) return true;
  if (tag == kAnyUserTag) return m.tag < fault::kUserTagLimit;
  return m.tag == tag;
}

}  // namespace

struct NativeEngine::Impl {
  struct Entry {
    Message msg;
    std::uint64_t seq = 0;       ///< global send sequence, for trace edges
    double visible_at = 0.0;     ///< injected delay: hidden from matching before this
  };

  /// One mailbox per destination rank. Arrival order == deque order, so
  /// wildcard matching picks the earliest-arrived message, and messages
  /// from one source stay FIFO per (src, dst) channel.
  struct Mailbox {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Entry> queue;
  };

  class RankHandle;

  explicit Impl(int n)
      : nranks(n),
        mailboxes(static_cast<std::size_t>(n)),
        rank_state(static_cast<std::size_t>(n)),
        rank_sent_bytes(static_cast<std::size_t>(n)) {
    for (auto& mb : mailboxes) mb = std::make_unique<Mailbox>();
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  }

  /// Wakes every blocked recv so ranks see the abort flag and unwind.
  void abort_all() {
    aborted.store(true, std::memory_order_release);
    for (auto& mb : mailboxes) {
      std::lock_guard<std::mutex> lock(mb->mutex);
      mb->cv.notify_all();
    }
  }

  /// Publishes that `rank` terminated. The release store orders every
  /// send the rank ever made before the state change, so a receiver that
  /// observes a terminal state and then finds its mailbox empty knows the
  /// channel is drained for good. Blocked receivers are woken to re-check.
  void mark_terminal(int rank, bool failed) {
    rank_state[static_cast<std::size_t>(rank)].store(
        static_cast<std::uint8_t>(failed ? PeerState::Failed : PeerState::Finished),
        std::memory_order_release);
    for (auto& mb : mailboxes) {
      std::lock_guard<std::mutex> lock(mb->mutex);
      mb->cv.notify_all();
    }
  }

  int nranks;
  std::chrono::steady_clock::time_point start{};
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::atomic<std::uint64_t> send_seq{0};
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> payload_bytes{0};
  std::atomic<std::uint64_t> nominal_bytes{0};
  std::atomic<bool> aborted{false};
  /// Per-rank lifecycle, values of PeerState. Written once by the owning
  /// thread as it exits (release); read with acquire by peers.
  std::vector<std::atomic<std::uint8_t>> rank_state;
  /// Per-rank cumulative nominal bytes sent, readable by the background
  /// time-series sampler while rank threads are still sending.
  std::vector<std::atomic<std::uint64_t>> rank_sent_bytes;
  std::vector<double> final_times;
  double elapsed_seconds = 0.0;
  bool ran = false;
};

class NativeEngine::Impl::RankHandle final : public Rank {
 public:
  RankHandle(Impl& impl, const NativeConfig& config, int rank)
      : impl_(impl), config_(config), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return impl_.nranks; }

  double now() const override { return impl_.now(); }

  // Real work already takes real time; modeled charges only exist so the
  // DES can advance virtual clocks. Here they are free — except on an
  // injected slow rank, where the surplus factor becomes real sleep.
  void compute(double seconds) override {
    if (auto* inj = config_.injector; inj != nullptr) {
      const double extra = (inj->slow_factor(rank_) - 1.0) * seconds;
      if (extra > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(extra));
    }
  }

  using Transport::send;
  void send(int dst, int tag, std::vector<std::byte> payload,
            std::uint64_t nominal_bytes) override {
    MRBIO_CHECK(dst >= 0 && dst < impl_.nranks, "send to invalid rank ", dst);
    if (impl_.aborted.load(std::memory_order_acquire)) throw AbortSignal{};
    const double t0 = impl_.now();
    fault::SendAction action;
    if (auto* inj = config_.injector; inj != nullptr) {
      action = inj->on_send(rank_, dst, tag, fault::kUserTagLimit);
    }
    if (action.kind == fault::SendAction::Kind::Drop) {
      if (auto* rec = config_.recorder; rec != nullptr && rec->full()) {
        rec->add(rank_, trace::Category::Send, "send_dropped", t0, impl_.now(), 0,
                 nominal_bytes);
      }
      return;
    }
    const std::uint64_t real_bytes = payload.size();
    Entry entry;
    entry.msg.source = rank_;
    entry.msg.tag = tag;
    entry.msg.sent = t0;
    entry.msg.nominal_bytes = nominal_bytes;
    entry.msg.payload = std::move(payload);
    double arrival = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t pushed = 1;
    Mailbox& mb = *impl_.mailboxes[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(mb.mutex);
      arrival = impl_.now();
      entry.msg.arrival = arrival;
      if (action.delay > 0.0) entry.visible_at = arrival + action.delay;
      seq = impl_.send_seq.fetch_add(1, std::memory_order_relaxed) + 1;
      entry.seq = seq;
      if (action.kind == fault::SendAction::Kind::Duplicate) {
        Entry dup = entry;
        dup.seq = impl_.send_seq.fetch_add(1, std::memory_order_relaxed) + 1;
        mb.queue.push_back(std::move(dup));
        pushed = 2;
      }
      mb.queue.push_back(std::move(entry));
      mb.cv.notify_all();
    }
    impl_.messages.fetch_add(pushed, std::memory_order_relaxed);
    impl_.payload_bytes.fetch_add(real_bytes * pushed, std::memory_order_relaxed);
    impl_.nominal_bytes.fetch_add(nominal_bytes * pushed, std::memory_order_relaxed);
    if (auto* ts = config_.timeseries; ts != nullptr) {
      const std::uint64_t total =
          impl_.rank_sent_bytes[static_cast<std::size_t>(rank_)].fetch_add(
              nominal_bytes * pushed, std::memory_order_relaxed) +
          nominal_bytes * pushed;
      ts->sample(rank_, "sent_bytes", impl_.now(), static_cast<double>(total));
    }
    if (auto* rec = config_.recorder; rec != nullptr && rec->full()) {
      rec->add_edge(rank_, trace::Category::Send, "send", t0, impl_.now(),
                    nominal_bytes, dst, seq, arrival);
    }
  }

  Message recv(int src, int tag) override {
    Message out;
    recv_core(src, tag, /*deadline=*/-1.0, &out);  // untimed: only returns Ok
    return out;
  }

  RecvStatus recv_deadline(int src, int tag, double deadline, Message* out) override {
    return recv_core(src, tag, std::max(deadline, 0.0), out);
  }

  PeerState peer_state(int peer) const override {
    MRBIO_REQUIRE(peer >= 0 && peer < impl_.nranks, "peer_state of invalid rank ", peer);
    return static_cast<PeerState>(
        impl_.rank_state[static_cast<std::size_t>(peer)].load(std::memory_order_acquire));
  }

  /// Shared receive loop. `deadline` < 0 blocks forever (modulo the
  /// deadlock diagnostic) and only ever returns Ok; a non-negative
  /// deadline adds the Timeout and PeerDead return paths.
  RecvStatus recv_core(int src, int tag, double deadline, Message* out) {
    const bool timed = deadline >= 0.0;
    const double post_time = impl_.now();
    Mailbox& mb = *impl_.mailboxes[static_cast<std::size_t>(rank_)];
    std::unique_lock<std::mutex> lock(mb.mutex);
    double diag_at =
        config_.recv_timeout > 0.0 ? post_time + config_.recv_timeout : -1.0;
    for (;;) {
      // Load the peer's state before scanning: a terminal state read here
      // guarantees (release/acquire + the mailbox lock) that the scan
      // below sees every message that peer ever sent.
      const PeerState src_state =
          src == kAnySource ? PeerState::Active : peer_state(src);
      const double now = impl_.now();
      double earliest_hidden = -1.0;
      for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
        if (!matches(it->msg, src, tag)) continue;
        if (it->visible_at > now) {
          if (earliest_hidden < 0.0 || it->visible_at < earliest_hidden) {
            earliest_hidden = it->visible_at;
          }
          continue;
        }
        Entry entry = std::move(*it);
        mb.queue.erase(it);
        if (auto* ts = config_.timeseries; ts != nullptr) {
          ts->sample(rank_, "mailbox_depth", now,
                     static_cast<double>(mb.queue.size()));
        }
        lock.unlock();
        if (auto* rec = config_.recorder; rec != nullptr && rec->full()) {
          rec->add_edge(rank_, trace::Category::RecvWait, "recv", post_time,
                        impl_.now(), entry.msg.nominal_bytes, entry.msg.source,
                        entry.seq, entry.msg.arrival);
        }
        *out = std::move(entry.msg);
        return RecvStatus::Ok;
      }
      if (impl_.aborted.load(std::memory_order_acquire)) throw AbortSignal{};
      if (timed) {
        if (src != kAnySource && src_state != PeerState::Active &&
            earliest_hidden < 0.0) {
          return RecvStatus::PeerDead;
        }
        if (now >= deadline) return RecvStatus::Timeout;
      }
      // Next forced wake-up: the deadline, a hidden message becoming
      // visible, or the deadlock diagnostic — whichever is earliest.
      double wake_at = timed ? deadline : -1.0;
      if (earliest_hidden >= 0.0 && (wake_at < 0.0 || earliest_hidden < wake_at)) {
        wake_at = earliest_hidden;
      }
      if (!timed && diag_at >= 0.0 && (wake_at < 0.0 || diag_at < wake_at)) {
        wake_at = diag_at;
      }
      if (wake_at < 0.0) {
        mb.cv.wait(lock);
      } else {
        const auto wake_tp =
            impl_.start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(wake_at));
        mb.cv.wait_until(lock, wake_tp);
      }
      if (!timed && diag_at >= 0.0 && impl_.now() >= diag_at) {
        if (impl_.aborted.load(std::memory_order_acquire)) throw AbortSignal{};
        MRBIO_CHECK(false, "native backend: rank ", rank_, " blocked in recv(src=", src,
                    ", tag=", tag, ") for ", config_.recv_timeout, " s", peer_note(src),
                    " with no matching message");
      }
    }
  }

  /// One-line cause hint for the blocked-recv diagnostic: did the awaited
  /// peer exit cleanly, die, or is this a genuine deadlock among live
  /// ranks?
  std::string peer_note(int src) const {
    if (src != kAnySource) {
      switch (peer_state(src)) {
        case PeerState::Finished:
          return format_msg("; peer rank ", src,
                            " already finished cleanly — it will never send again");
        case PeerState::Failed:
          return format_msg("; peer rank ", src, " died");
        case PeerState::Active:
          return " (deadlock? peer is still running)";
      }
      return {};
    }
    int alive = 0;
    for (int r = 0; r < impl_.nranks; ++r) {
      if (r != rank_ && peer_state(r) == PeerState::Active) ++alive;
    }
    if (alive == 0) return "; every peer has terminated — nothing more can arrive";
    return format_msg(" (deadlock? ", alive, " peer(s) still running)");
  }

  bool has_message(int src, int tag) const override {
    const Mailbox& mb = *impl_.mailboxes[static_cast<std::size_t>(rank_)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    for (const Entry& e : mb.queue) {
      if (matches(e.msg, src, tag)) return true;
    }
    return false;
  }

  double modeled_byte_time() const override { return 0.0; }

  trace::Recorder* tracer() const override { return config_.recorder; }
  obs::Registry* metrics() const override { return config_.metrics; }
  fault::Injector* faults() const override { return config_.injector; }
  obs::TimeSeries* timeseries() const override { return config_.timeseries; }
  obs::EventLog* eventlog() const override { return config_.eventlog; }
  bool native() const override { return true; }

 private:
  Impl& impl_;
  const NativeConfig& config_;
  int rank_;
};

NativeEngine::NativeEngine(NativeConfig config) : config_(config) {
  if (config_.nranks <= 0) config_.nranks = hardware_ranks();
  impl_ = std::make_unique<Impl>(config_.nranks);
}

NativeEngine::~NativeEngine() = default;

int NativeEngine::hardware_ranks() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void NativeEngine::run(const std::function<void(Rank&)>& body) {
  MRBIO_REQUIRE(!impl_->ran, "NativeEngine::run may only be called once");
  impl_->ran = true;
  const int n = impl_->nranks;
  impl_->final_times.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  impl_->start = std::chrono::steady_clock::now();

  // Background sampler: snapshots every rank's queue depth and cumulative
  // sent bytes at the sampler's cadence, concurrently with the rank
  // threads' own event-driven samples (the per-lane locks inside
  // TimeSeries make this safe).
  std::atomic<bool> sampler_stop{false};
  std::thread sampler;
  if (obs::TimeSeries* ts = config_.timeseries; ts != nullptr) {
    sampler = std::thread([this, ts, &sampler_stop] {
      const double cadence = std::max(ts->config().cadence, 1e-3);
      while (!sampler_stop.load(std::memory_order_acquire)) {
        const double t = impl_->now();
        for (int r = 0; r < impl_->nranks; ++r) {
          std::size_t depth = 0;
          {
            Impl::Mailbox& mb = *impl_->mailboxes[static_cast<std::size_t>(r)];
            std::lock_guard<std::mutex> lock(mb.mutex);
            depth = mb.queue.size();
          }
          ts->sample(r, "mailbox_depth", t, static_cast<double>(depth));
          ts->sample(r, "sent_bytes", t,
                     static_cast<double>(impl_->rank_sent_bytes[static_cast<std::size_t>(r)]
                                             .load(std::memory_order_relaxed)));
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(cadence));
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, &body, &errors, r] {
      Impl::RankHandle handle(*impl_, config_, r);
      bool failed = false;
      try {
        body(handle);
      } catch (const AbortSignal&) {
        // Another rank failed first; unwind quietly.
        failed = true;
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        failed = true;
        impl_->abort_all();
      }
      impl_->final_times[static_cast<std::size_t>(r)] = impl_->now();
      impl_->mark_terminal(r, failed);
    });
  }
  for (std::thread& t : threads) t.join();
  if (sampler.joinable()) {
    sampler_stop.store(true, std::memory_order_release);
    sampler.join();
  }

  impl_->elapsed_seconds = 0.0;
  for (double ft : impl_->final_times) {
    impl_->elapsed_seconds = std::max(impl_->elapsed_seconds, ft);
  }
  if (config_.recorder != nullptr) {
    for (int r = 0; r < n && r < config_.recorder->nranks(); ++r) {
      config_.recorder->set_final_time(r, impl_->final_times[static_cast<std::size_t>(r)]);
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

double NativeEngine::elapsed() const { return impl_->elapsed_seconds; }

const std::vector<double>& NativeEngine::final_times() const {
  return impl_->final_times;
}

NativeStats NativeEngine::stats() const {
  NativeStats s;
  s.messages = impl_->messages.load(std::memory_order_relaxed);
  s.payload_bytes = impl_->payload_bytes.load(std::memory_order_relaxed);
  s.nominal_bytes = impl_->nominal_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mrbio::rt
