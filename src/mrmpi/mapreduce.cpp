#include "mrmpi/mapreduce.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>

#include "ckpt/ckpt.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "mrmpi/shuffle_codec.hpp"
#include "obs/timeseries.hpp"

namespace mrbio::mrmpi {

namespace {
// ---------------------------------------------------------------------------
// Map-log record payload (one per committed task):
//
//   [u64 task][u64 npairs]([u64 klen][key][u64 vlen][value][u64 nominal])*
//
// The framing CRC already guards against bit rot; this validator guards
// against structural damage that slips past it (a writer bug, a record
// from a foreign file). A record that fails demotes to "re-run that
// task", never a crash.
bool decode_task_id(std::span<const std::byte> payload, std::uint64_t ntasks,
                    std::uint64_t* task_out) {
  try {
    ByteReader r(payload);
    const auto task = r.get<std::uint64_t>();
    const auto npairs = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < npairs; ++i) {
      r.raw(r.get<std::uint64_t>());  // key
      r.raw(r.get<std::uint64_t>());  // value
      r.get<std::uint64_t>();         // nominal
    }
    if (!r.done() || task >= ntasks) return false;
    *task_out = task;
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// RAII Phase span on this rank's lane; a null recorder makes it a no-op.
/// KV attributes are attached at scope exit via set_kv().
class PhaseSpan {
 public:
  PhaseSpan(trace::Recorder* rec, mpi::Comm& comm, const char* name)
      : rec_(rec), comm_(comm), name_(name), t0_(rec != nullptr ? comm.now() : 0.0) {}
  ~PhaseSpan() {
    if (rec_ != nullptr) {
      rec_->add(comm_.rank(), trace::Category::Phase, name_, t0_, comm_.now(), pairs_,
                bytes_);
    }
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void set_kv(std::uint64_t pairs, std::uint64_t bytes) {
    pairs_ = pairs;
    bytes_ = bytes;
  }

 private:
  trace::Recorder* rec_;
  mpi::Comm& comm_;
  const char* name_;
  double t0_;
  std::uint64_t pairs_ = 0;
  std::uint64_t bytes_ = 0;
};
}  // namespace

MapReduce::MapReduce(mpi::Comm& comm, MapReduceConfig config)
    : comm_(comm), config_(config) {
  MRBIO_REQUIRE(config_.memsize_bytes > 0, "memsize must be positive");
  kv_ = make_kv();
}

MapReduce::~MapReduce() = default;

KeyValue MapReduce::make_kv() const {
  if (!config_.page_to_disk) return KeyValue{};
  SpillPolicy policy;
  policy.page_bytes = config_.page_bytes;
  policy.compress = config_.shuffle.compress;
  policy.max_resident_pages = std::max<std::size_t>(
      2, static_cast<std::size_t>(config_.memsize_bytes / config_.page_bytes));
  policy.dir = config_.spill_dir;
  if (config_.checkpointer != nullptr && config_.checkpointer->enabled()) {
    // Durable spill files live next to the checkpoint data under stable
    // names; stale files from a killed run are truncated on reuse and the
    // checkpoint layer removes the directory on successful completion.
    policy.dir = config_.checkpointer->spill_dir();
    policy.durable = true;
    policy.file_stem =
        "kv_r" + std::to_string(comm_.rank()) + "_s" + std::to_string(ckpt_kv_serial_++);
  }
  return KeyValue{policy};
}

std::uint64_t MapReduce::map(std::uint64_t ntasks, const MapFn& fn) {
  return run_map(ntasks, fn, /*append=*/false);
}

std::uint64_t MapReduce::map_append(std::uint64_t ntasks, const MapFn& fn) {
  return run_map(ntasks, fn, /*append=*/true);
}

std::uint64_t MapReduce::run_map(std::uint64_t ntasks, const MapFn& fn, bool append) {
  trace::Recorder* rec = phase_recorder();
  PhaseSpan span(rec, comm_, "map");
  failed_tasks_.clear();
  KeyValue out = make_kv();
  const sched::Policy policy = resolve_policy();

  // Replay any checkpointed task outputs for this cycle into `out` before
  // scheduling; remotely scheduled runs (master-worker, steal) share the
  // claims so the scheduler can pre-mark restored tasks as committed.
  const bool shared = sched::is_remote(policy) && comm_.size() > 1;
  const bool sharded = policy == sched::Policy::Steal && config_.ft.enabled;
  const std::vector<CkptDoneTask> ckpt_done =
      ckpt_begin_map(ntasks, out, shared, shared && sharded);

  run_sched(policy, ntasks, nullptr, fn, out, ckpt_done);
  ckpt_end_map();

  if (append) {
    kv_.absorb(std::move(out));
  } else {
    kv_ = std::move(out);
  }
  have_kmv_ = false;
  stats_.kv_pairs_emitted += kv_.size();
  charge_spill(/*fresh_store=*/!append);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

trace::Recorder* MapReduce::phase_recorder() {
  trace::Recorder* rec = comm_.tracer();
  return (rec != nullptr && config_.trace_phases) ? rec : nullptr;
}

void MapReduce::run_task(const MapFn& fn, std::uint64_t task, KeyValue& out,
                         trace::Recorder* rec, const char* span_name) {
  // Crash poll on every scheduler path. Under the fault-tolerant worker
  // this sits inside its try block; elsewhere the CrashSignal propagates
  // and fails the run with its "enable fault tolerance" message.
  if (fault::Injector* inj = comm_.runtime().faults(); inj != nullptr) {
    inj->task_started(comm_.rank(), comm_.now());
  }
  const double t0 = comm_.now();
  fn(task, out);
  ++stats_.map_tasks_run;
  if (rec != nullptr) {
    rec->add(comm_.rank(), trace::Category::Task, span_name, t0, comm_.now());
  }
  if (obs::Registry* reg = metrics(); reg != nullptr) {
    reg->counter("mrmpi.map_tasks").inc();
    reg->histogram("mrmpi.task_seconds").observe(comm_.now() - t0);
  }
  if (obs::TimeSeries* ts = comm_.runtime().timeseries(); ts != nullptr) {
    ts->sample(comm_.rank(), "mrmpi.tasks_done", comm_.now(),
               static_cast<double>(stats_.map_tasks_run));
  }
}

std::uint64_t MapReduce::map_locality(std::uint64_t ntasks, const AffinityFn& affinity,
                                      const MapFn& fn) {
  MRBIO_REQUIRE(affinity != nullptr, "map_locality needs an affinity function");
  trace::Recorder* rec = phase_recorder();
  PhaseSpan span(rec, comm_, "map");
  failed_tasks_.clear();
  KeyValue out = make_kv();
  // Locality scheduling needs a central grant loop, so static policies
  // upgrade to the master; steal keeps its decentralized path and ignores
  // the affinity function (the ledger backstop still honours it).
  sched::Policy policy = resolve_policy();
  if (policy == sched::Policy::Chunk || policy == sched::Policy::Stride) {
    policy = sched::Policy::Master;
  }
  const bool loc_shared = comm_.size() > 1;
  const std::vector<CkptDoneTask> ckpt_done = ckpt_begin_map(
      ntasks, out, loc_shared,
      loc_shared && policy == sched::Policy::Steal && config_.ft.enabled);
  run_sched(policy, ntasks, &affinity, fn, out, ckpt_done);
  ckpt_end_map();
  kv_ = std::move(out);
  have_kmv_ = false;
  stats_.kv_pairs_emitted += kv_.size();
  charge_spill(/*fresh_store=*/true);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

/// Maps the scheduler strategies' execution hooks onto this object's KV
/// stores and checkpoint journal. One staging buffer suffices: the
/// fault-tolerant protocols run at most one uncommitted task at a time.
class MapReduce::ExecImpl final : public sched::Executor {
 public:
  ExecImpl(MapReduce& mr, const MapFn& fn, KeyValue& out, trace::Recorder* rec)
      : mr_(mr), fn_(fn), out_(out), rec_(rec), staging_(mr.make_kv()) {}

  void run_direct(std::uint64_t task, bool retry) override {
    mr_.run_task_ckpt(fn_, task, out_, rec_, retry ? "map_task_retry" : "map_task");
  }

  void run_staged(std::uint64_t task, bool retry) override {
    mr_.run_task(fn_, task, staging_, rec_, retry ? "map_task_retry" : "map_task");
  }

  void commit_staged(std::uint64_t task) override {
    // Journal at the commit decision, not at task completion: discarded
    // attempts never reach the map log.
    mr_.ckpt_record_task(task, staging_);
    out_.absorb(std::move(staging_));
    staging_ = mr_.make_kv();
  }

  void discard_staged() override { staging_ = mr_.make_kv(); }

  void on_crash() override {
    // Simulated process death: everything the old incarnation held in
    // memory — staged emissions AND previously committed results — is
    // lost; the ledger learns this from the incarnation bump (or the dead
    // flag) and reverts the affected entries.
    out_.clear();
    staging_ = mr_.make_kv();
  }

  bool shard_journal_enabled() const override { return mr_.ckpt_shard_enabled(); }

  void shard_journal_replay(
      int shard, const std::function<void(const std::vector<std::byte>&)>& fn) override {
    mr_.ckpt_shard_replay(shard, fn);
  }

  void shard_journal_append(int shard, const std::vector<std::byte>& payload) override {
    mr_.ckpt_shard_append(shard, payload);
  }

 private:
  MapReduce& mr_;
  const MapFn& fn_;
  KeyValue& out_;
  trace::Recorder* rec_;
  KeyValue staging_;
};

sched::Policy MapReduce::resolve_policy() const {
  if (config_.scheduler != sched::Policy::Auto) return config_.scheduler;
  switch (config_.map_style) {
    case MapStyle::Chunk: return sched::Policy::Chunk;
    case MapStyle::Stride: return sched::Policy::Stride;
    case MapStyle::MasterWorker:
      // Rank 0 only grants under master-worker: 0.1% of the paper's 1,024
      // DES cores, but a real core's share of a native run. Steal keeps
      // every native rank searching and picks its ledger from ft.enabled,
      // as the master does; the DES keeps the paper's protocol.
      return comm_.runtime().native() ? sched::Policy::Steal : sched::Policy::Master;
  }
  return sched::Policy::Master;
}

void MapReduce::run_sched(sched::Policy policy, std::uint64_t ntasks,
                          const AffinityFn* affinity, const MapFn& fn, KeyValue& out,
                          const std::vector<CkptDoneTask>& ckpt_done) {
  trace::Recorder* rec = phase_recorder();
  ExecImpl exec(*this, fn, out, rec);
  sched::SchedStats sstats;
  sched::MapContext ctx{comm_,          ntasks,        affinity,   config_.ft,
                        config_.steal,  rec,           &exec,      &sched_state_,
                        &ckpt_done,     &sstats,       &failed_tasks_};
  sched::make_scheduler(policy)->execute(ctx);
  // The fault counters are signed per map (a task can un-fail); the net is
  // non-negative by the time the scheduler returns, so only the net reaches
  // the registry.
  stats_.tasks_retried += static_cast<std::uint64_t>(sstats.tasks_retried);
  stats_.worker_deaths += static_cast<std::uint64_t>(sstats.worker_deaths);
  stats_.tasks_failed += static_cast<std::uint64_t>(sstats.tasks_failed);
  if (obs::Registry* reg = metrics(); reg != nullptr && sstats.tasks_failed > 0) {
    reg->counter("ft.tasks_failed").inc(static_cast<std::uint64_t>(sstats.tasks_failed));
  }
  stats_.steals_attempted += sstats.steals_attempted;
  stats_.steals_succeeded += sstats.steals_succeeded;
  stats_.tasks_stolen += sstats.tasks_stolen;
  stats_.workers_evicted += sstats.evictions;
  stats_.ledger_failovers += sstats.failovers;
}

std::vector<MapReduce::CkptDoneTask> MapReduce::ckpt_begin_map(std::uint64_t ntasks,
                                                              KeyValue& out, bool shared,
                                                              bool sharded) {
  std::vector<CkptDoneTask> done;
  ckpt_ = CkptMapState{};
  ckpt::Checkpointer* cp = config_.checkpointer;
  if (cp == nullptr || !cp->enabled()) return done;
  trace::Recorder* rec = phase_recorder();
  const int rank = comm_.rank();
  ckpt_.active = true;
  ckpt_.cycle = cp->cycle(rank);
  ckpt_.last_flush = comm_.now();
  const double t0 = comm_.now();

  // Replay this rank's journal for the cycle. The first occurrence of a
  // task wins: later duplicates come from committed-then-reverted attempts
  // and carry byte-identical data (map functions are deterministic).
  std::map<std::uint64_t, std::vector<std::byte>> mine;
  const std::uint64_t valid_end =
      cp->read_map_log(rank, ckpt_.cycle, [&](std::span<const std::byte> payload) {
        std::uint64_t task = 0;
        if (!decode_task_id(payload, ntasks, &task)) {
          cp->note_corrupt();
          MRBIO_LOG(Warn, "checkpoint: undecodable map-log record on rank ", rank,
                    " (cycle ", ckpt_.cycle, "); the affected task will re-run");
          return;
        }
        mine.emplace(task, std::vector<std::byte>(payload.begin(), payload.end()));
      });

  std::set<std::uint64_t> keep;
  if (shared) {
    // Under remote master-worker scheduling several ranks may hold the
    // same task (committed, then reverted and re-run elsewhere). The ranks
    // allgather their claims and the lowest rank keeps each task; every
    // claim carries the claimant's current incarnation so the master's
    // ledger reverts it correctly if that rank crashes later.
    ByteWriter w;
    w.put<std::uint32_t>(sched_state_.incarnation);
    w.put<std::uint64_t>(static_cast<std::uint64_t>(mine.size()));
    for (const auto& [t, payload] : mine) w.put<std::uint64_t>(t);
    const std::vector<std::vector<std::byte>> all = comm_.allgather_bytes(w.take());
    std::map<std::uint64_t, std::vector<CkptDoneTask>> claims;  // rank-ascending
    for (std::size_t r = 0; r < all.size(); ++r) {
      ByteReader br(all[r]);
      const auto inc = br.get<std::uint32_t>();
      const auto n = br.get<std::uint64_t>();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto t = br.get<std::uint64_t>();
        claims[t].push_back(CkptDoneTask{t, static_cast<int>(r), inc});
      }
    }

    // Sharded steal-ft resume: overlay the shard journals, the commit
    // authority of that protocol. A claimed task with no surviving journal
    // decision (the journal's tail was corrupted or never written) is
    // dropped and re-runs — which is how corrupting one shard's journal
    // degrades exactly that shard's task range and nothing else. Every
    // rank reads every journal, so the ranks agree on the overlay without
    // another exchange.
    std::map<std::uint64_t, sched::DoneTask> commits;
    bool use_journal = false;
    if (sharded) {
      const int nshards = sched::shard_count(config_.ft, comm_.size());
      if (cp->any_shard_log(ckpt_.cycle, nshards)) {
        use_journal = true;
        for (int s = 0; s < nshards; ++s) {
          cp->read_shard_log(s, ckpt_.cycle, [&](std::span<const std::byte> payload) {
            sched::apply_shard_record(payload, commits);
          });
        }
      }
    }

    std::uint64_t dropped = 0;
    for (const auto& [t, list] : claims) {
      const CkptDoneTask* pick = &list.front();
      if (use_journal) {
        const auto it = commits.find(t);
        if (it == commits.end()) {
          ++dropped;
          continue;  // journal lost the commit: the task re-runs
        }
        // Prefer the journaled committer's copy; when its map log lost the
        // payload (kill between the journal sync and a map-log flush) any
        // other claimant's copy is byte-identical (deterministic map fn).
        for (const CkptDoneTask& c : list) {
          if (c.owner == it->second.owner) {
            pick = &c;
            break;
          }
        }
      }
      done.push_back(*pick);
      if (pick->owner == rank) keep.insert(t);
    }
    if (dropped > 0 && rank == 0) {
      MRBIO_LOG(Warn, "checkpoint: ", dropped,
                " restored task(s) had no surviving shard-journal commit and will re-run");
    }
  } else {
    for (const auto& [t, payload] : mine) {
      keep.insert(t);
      done.push_back(CkptDoneTask{t, rank, sched_state_.incarnation});
    }
  }

  std::uint64_t restored_pairs = 0;
  for (const std::uint64_t t : keep) {
    ByteReader r(mine.at(t));
    r.get<std::uint64_t>();  // task id, validated during replay
    const auto npairs = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < npairs; ++i) {
      const auto klen = r.get<std::uint64_t>();
      const auto kbytes = r.raw(klen);
      const auto vlen = r.get<std::uint64_t>();
      const auto vbytes = r.raw(vlen);
      const auto nom = r.get<std::uint64_t>();
      out.add(kbytes, vbytes, nom);
    }
    ckpt_.restored.insert(t);
    restored_pairs += npairs;
  }

  // Price the journal read; the Io span surfaces as checkpoint_io in the
  // report's busy breakdown.
  comm_.compute(static_cast<double>(valid_end) * cp->config().byte_seconds);
  if (obs::Registry* reg = metrics(); reg != nullptr) {
    reg->counter("ckpt.tasks_restored").inc(ckpt_.restored.size());
    reg->counter("ckpt.pairs_restored").inc(restored_pairs);
    reg->counter("ckpt.bytes_replayed").inc(valid_end);
  }
  if (rec != nullptr && valid_end > 0) {
    rec->add(rank, trace::Category::Io, "ckpt_restore", t0, comm_.now(), restored_pairs,
             valid_end);
  }
  ckpt_.log = cp->open_map_log(rank, ckpt_.cycle, valid_end);
  return done;
}

void MapReduce::ckpt_record_task(std::uint64_t task, const KeyValue& emitted) {
  if (!ckpt_.active) return;
  ByteWriter w;
  w.put<std::uint64_t>(task);
  w.put<std::uint64_t>(static_cast<std::uint64_t>(emitted.size()));
  emitted.for_each([&](const KvPair& pair) {
    w.put<std::uint64_t>(pair.key.size());
    w.append(pair.key.data(), pair.key.size());
    w.put<std::uint64_t>(pair.value.size());
    w.append(pair.value.data(), pair.value.size());
    w.put<std::uint64_t>(pair.nominal_bytes);
  });
  ckpt_.pending_bytes += w.size();
  ckpt_.pending.push_back(w.take());
  if (comm_.now() - ckpt_.last_flush >= config_.checkpointer->config().interval) {
    ckpt_flush();
  }
}

void MapReduce::ckpt_flush() {
  if (!ckpt_.active) return;
  ckpt_.last_flush = comm_.now();
  if (ckpt_.pending.empty()) return;
  ckpt::Checkpointer* cp = config_.checkpointer;
  const double t0 = comm_.now();
  const std::uint64_t before = ckpt_.log->bytes_written();
  for (const std::vector<std::byte>& record : ckpt_.pending) {
    ckpt_.log->append(record);
  }
  ckpt_.log->sync();
  const std::uint64_t bytes = ckpt_.log->bytes_written() - before;
  cp->note_written(ckpt_.pending.size(), bytes);
  // Price the durable write and let a pending corrupt fault strike the
  // freshly synced bytes.
  comm_.compute(static_cast<double>(bytes) * cp->config().byte_seconds);
  if (obs::Registry* reg = metrics(); reg != nullptr) {
    reg->counter("ckpt.records_written").inc(ckpt_.pending.size());
    reg->counter("ckpt.bytes_written").inc(bytes);
  }
  if (trace::Recorder* rec = phase_recorder(); rec != nullptr) {
    rec->add(comm_.rank(), trace::Category::Io, "ckpt_write", t0, comm_.now(),
             ckpt_.pending.size(), bytes);
  }
  ckpt_.pending.clear();
  ckpt_.pending_bytes = 0;
  cp->after_map_log_write(comm_.rank(), ckpt_.cycle);
}

void MapReduce::ckpt_end_map() {
  if (!ckpt_.active) return;
  ckpt_flush();
  ckpt_.log.reset();
  ckpt_.shard_logs.clear();
  ckpt_.active = false;
}

void MapReduce::ckpt_shard_replay(
    int shard, const std::function<void(const std::vector<std::byte>&)>& fn) {
  if (!ckpt_.active) return;
  ckpt::Checkpointer* cp = config_.checkpointer;
  std::vector<std::byte> copy;
  const std::uint64_t valid_end =
      cp->read_shard_log(shard, ckpt_.cycle, [&](std::span<const std::byte> payload) {
        copy.assign(payload.begin(), payload.end());
        fn(copy);
      });
  comm_.compute(static_cast<double>(valid_end) * cp->config().byte_seconds);
  ckpt_.shard_logs[shard] = cp->open_shard_log(shard, ckpt_.cycle, valid_end);
}

void MapReduce::ckpt_shard_append(int shard, const std::vector<std::byte>& payload) {
  if (!ckpt_.active) return;
  ckpt::Checkpointer* cp = config_.checkpointer;
  std::unique_ptr<ckpt::RecordWriter>& log = ckpt_.shard_logs[shard];
  if (log == nullptr) {
    // Adoption without a prior replay call: position after the last intact
    // record so the successor never clobbers the dead owner's journal.
    ckpt_.shard_logs.erase(shard);
    ckpt_shard_replay(shard, [](const std::vector<std::byte>&) {});
    return ckpt_shard_append(shard, payload);
  }
  const std::uint64_t before = log->bytes_written();
  log->append(payload);
  log->sync();  // write-ahead: durable before the grant leaves this rank
  const std::uint64_t bytes = log->bytes_written() - before;
  cp->note_written(1, bytes);
  comm_.compute(static_cast<double>(bytes) * cp->config().byte_seconds);
  cp->after_shard_log_write(shard, ckpt_.cycle);
}

void MapReduce::run_task_ckpt(const MapFn& fn, std::uint64_t task, KeyValue& out,
                              trace::Recorder* rec, const char* span_name) {
  if (!ckpt_.active) {
    run_task(fn, task, out, rec, span_name);
    return;
  }
  if (ckpt_.restored.count(task) != 0) return;  // replayed from the journal
  KeyValue scratch = make_kv();
  run_task(fn, task, scratch, rec, span_name);
  ckpt_record_task(task, scratch);
  out.absorb(std::move(scratch));
}

namespace {

/// Scales a nominal byte count by real_after / real_before using 128-bit
/// intermediate math, so paper-scale nominals shrink by exactly the
/// measured framing/compression ratio without overflow. The product is
/// formed from 32-bit limbs and divided bit by bit (standard C++ has no
/// 128-bit integer); the result is the low 64 bits of the exact quotient.
std::uint64_t scale_nominal(std::uint64_t nominal, std::uint64_t real_after,
                            std::uint64_t real_before) {
  if (real_before == 0 || nominal == 0) return nominal;
  constexpr std::uint64_t kLow = 0xffffffffULL;
  const std::uint64_t ll = (nominal & kLow) * (real_after & kLow);
  const std::uint64_t lh = (nominal & kLow) * (real_after >> 32);
  const std::uint64_t hl = (nominal >> 32) * (real_after & kLow);
  const std::uint64_t hh = (nominal >> 32) * (real_after >> 32);
  const std::uint64_t mid = (ll >> 32) + (lh & kLow) + (hl & kLow);
  const std::uint64_t lo = (ll & kLow) | (mid << 32);
  const std::uint64_t hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
  if (hi == 0) return lo / real_before;
  std::uint64_t quotient = 0;
  std::uint64_t rem = 0;
  for (int bit = 127; bit >= 0; --bit) {
    const bool carry = (rem >> 63) != 0;
    const std::uint64_t next = bit >= 64 ? (hi >> (bit - 64)) & 1 : (lo >> bit) & 1;
    rem = (rem << 1) | next;
    quotient <<= 1;
    if (carry || rem >= real_before) {
      rem -= real_before;
      quotient |= 1;
    }
  }
  return quotient;
}

}  // namespace

std::uint64_t MapReduce::aggregate() {
  PhaseSpan span(phase_recorder(), comm_, "aggregate");
  const int p = comm_.size();
  const int rank = comm_.rank();
  const ShuffleConfig& sc = config_.shuffle;

  // Route every pair to its destination rank. Pairs are referenced by
  // index; rank-local pairs are replayed straight into the merged store
  // later (no serialize/deserialize round trip, no send buffer, no wire
  // charge), which is what makes an all-keys-local aggregate cost only the
  // empty exchange.
  struct DestGroup {
    std::string key;                  ///< only filled when combining
    std::vector<std::size_t> pairs;   ///< kv_ indices, emission order
  };
  struct Dest {
    std::vector<DestGroup> groups;    ///< first-occurrence key order
    std::unordered_map<std::string, std::size_t> group_of;
    std::uint64_t nominal = 0;
    std::uint64_t flat_real = 0;      ///< real bytes of the per-pair framing
  };
  std::vector<Dest> dests(static_cast<std::size_t>(p));
  std::size_t index = 0;
  kv_.for_each([&](const KvPair& pair) {
    Dest& dest = dests[static_cast<std::size_t>(key_rank(pair.key, p))];
    dest.nominal += pair.nominal_bytes;
    dest.flat_real += 3 * sizeof(std::uint64_t) + pair.key.size() + pair.value.size();
    std::string key(reinterpret_cast<const char*>(pair.key.data()), pair.key.size());
    if (sc.combiner) {
      auto [it, fresh] = dest.group_of.try_emplace(std::move(key), dest.groups.size());
      if (fresh) dest.groups.push_back({it->first, {}});
      dest.groups[it->second].pairs.push_back(index);
    } else if (dest.groups.empty()) {
      dest.groups.push_back({{}, {index}});
    } else {
      dest.groups.front().pairs.push_back(index);
    }
    ++index;
  });

  // Serialize the remote destinations. Per-pair framing:
  //   [u64 klen][key][u64 vlen][value][u64 nominal]
  // Combined framing (one record per key, values in emission order):
  //   [u64 klen][key][u64 nvalues]([u64 vlen][value][u64 nominal])*
  // The receive side expands combined records back to pairs in the same
  // order, so the merged KV — and the post-convert() KMV — is identical
  // in either mode.
  std::vector<std::vector<std::byte>> sendbufs(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> nominal(static_cast<std::size_t>(p), 0);
  std::uint64_t sent = 0;
  std::uint64_t combined_saved = 0;
  std::uint64_t wire_real = 0;
  std::uint64_t precompress_real = 0;
  for (int d = 0; d < p; ++d) {
    if (d == rank) continue;
    Dest& dest = dests[static_cast<std::size_t>(d)];
    ByteWriter w;
    for (const DestGroup& g : dest.groups) {
      if (sc.combiner) {
        w.put<std::uint64_t>(g.key.size());
        w.append(g.key.data(), g.key.size());
        w.put<std::uint64_t>(g.pairs.size());
      }
      for (const std::size_t i : g.pairs) {
        const KvPair pair = kv_.pair(i);
        if (!sc.combiner) {
          w.put<std::uint64_t>(pair.key.size());
          w.append(pair.key.data(), pair.key.size());
        }
        w.put<std::uint64_t>(pair.value.size());
        w.append(pair.value.data(), pair.value.size());
        w.put<std::uint64_t>(pair.nominal_bytes);
      }
    }
    std::vector<std::byte> buf = w.take();
    std::uint64_t dest_nominal = dest.nominal;
    if (sc.combiner) {
      const std::uint64_t scaled = scale_nominal(dest_nominal, buf.size(), dest.flat_real);
      combined_saved += dest_nominal - scaled;
      dest_nominal = scaled;
    }
    precompress_real += buf.size();
    if (sc.compress && !buf.empty()) {
      std::vector<std::byte> packed = shuffle_compress(buf);
      dest_nominal = scale_nominal(dest_nominal, packed.size(), buf.size());
      buf = std::move(packed);
    }
    wire_real += buf.size();
    nominal[static_cast<std::size_t>(d)] = dest_nominal;
    sent += dest_nominal;
    sendbufs[static_cast<std::size_t>(d)] = std::move(buf);
  }

  stats_.aggregate_bytes_sent += sent;
  stats_.shuffle_combined_bytes += combined_saved;
  if (obs::Registry* reg = metrics(); reg != nullptr) {
    reg->counter("mrmpi.aggregate_bytes").inc(sent);
    if (sc.combiner) reg->counter("shuffle.combined_bytes").inc(combined_saved);
    if (sc.compress) {
      // An empty exchange compresses nothing; report the identity ratio
      // instead of leaving a 0/0 artifact in the gauge.
      reg->gauge("shuffle.compress_ratio")
          .set(wire_real > 0
                   ? static_cast<double>(precompress_real) / static_cast<double>(wire_real)
                   : 1.0);
    }
  }

  const double t_exchange = comm_.now();
  std::vector<std::vector<std::byte>> recvbufs;
  if (sc.exchange == ExchangeMode::Tree) {
    int stages = 0;
    recvbufs = comm_.alltoallv_staged(std::move(sendbufs), nominal, sc.tree_radix, &stages);
    stats_.shuffle_stages += static_cast<std::uint64_t>(stages);
    if (obs::Registry* reg = metrics(); reg != nullptr) {
      reg->counter("shuffle.stages").inc(static_cast<std::uint64_t>(stages));
    }
  } else {
    recvbufs = comm_.alltoallv_nominal(std::move(sendbufs), nominal);
  }
  const double exchange_seconds = comm_.now() - t_exchange;

  KeyValue merged = make_kv();
  for (int src = 0; src < p; ++src) {
    if (src == rank) {
      // Replay rank-local pairs in the exact order the wire path would
      // have delivered them (grouped when combining).
      for (const DestGroup& g : dests[static_cast<std::size_t>(rank)].groups) {
        for (const std::size_t i : g.pairs) {
          const KvPair pair = kv_.pair(i);
          merged.add(pair.key, pair.value, pair.nominal_bytes);
        }
      }
      continue;
    }
    const auto& raw = recvbufs[static_cast<std::size_t>(src)];
    std::vector<std::byte> unpacked;
    if (sc.compress && !raw.empty()) unpacked = shuffle_decompress(raw);
    ByteReader r(sc.compress && !raw.empty() ? std::span<const std::byte>(unpacked)
                                             : std::span<const std::byte>(raw));
    while (!r.done()) {
      const auto klen = r.get<std::uint64_t>();
      const auto kbytes = r.raw(klen);
      if (sc.combiner) {
        const auto nvalues = r.get<std::uint64_t>();
        for (std::uint64_t v = 0; v < nvalues; ++v) {
          const auto vlen = r.get<std::uint64_t>();
          const auto vbytes = r.raw(vlen);
          const auto nom = r.get<std::uint64_t>();
          merged.add(kbytes, vbytes, nom);
        }
      } else {
        const auto vlen = r.get<std::uint64_t>();
        const auto vbytes = r.raw(vlen);
        const auto nom = r.get<std::uint64_t>();
        merged.add(kbytes, vbytes, nom);
      }
    }
  }
  kv_ = std::move(merged);
  have_kmv_ = false;
  charge_spill(/*fresh_store=*/true,
               sc.overlap_spill ? exchange_seconds : 0.0, "shuffle_spill");
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

std::uint64_t MapReduce::convert() {
  PhaseSpan span(phase_recorder(), comm_, "convert");
  // Charge the local group-by: one hash+compare pass over the data.
  kmv_ = KeyMultiValue::from_keyvalue(kv_);
  have_kmv_ = true;
  // The grouped view materializes a second copy of the pair data. Offsets
  // are 64-bit throughout, so a single group larger than the memory budget
  // is represented exactly — never truncated — but the overflow is backed
  // by disk and must be charged like any other spill write.
  const std::uint64_t nominal = kv_.nominal_bytes();
  if (nominal > config_.memsize_bytes) {
    const std::uint64_t over = nominal - config_.memsize_bytes;
    const double t0 = comm_.now();
    comm_.compute(static_cast<double>(over) * config_.spill_byte_seconds);
    if (obs::Registry* reg = metrics(); reg != nullptr) {
      reg->counter("mrmpi.spill_bytes").inc(over);
    }
    if (trace::Recorder* rec = phase_recorder(); rec != nullptr) {
      rec->add(comm_.rank(), trace::Category::Io, "kmv_spill", t0, comm_.now(), 0, over);
    }
    stats_.spilled_bytes += over;
  }
  span.set_kv(kmv_.size(), kv_.nominal_bytes());
  return global_count(kmv_.size());
}

std::uint64_t MapReduce::collate() {
  aggregate();
  return convert();
}

std::uint64_t MapReduce::reduce(const ReduceFn& fn) {
  MRBIO_REQUIRE(have_kmv_, "reduce() requires a prior convert()/collate()");
  PhaseSpan span(phase_recorder(), comm_, "reduce");
  KeyValue out = make_kv();
  for (std::size_t i = 0; i < kmv_.size(); ++i) {
    const KmvGroup g = kmv_.group(i);
    fn(g, out);
  }
  kv_ = std::move(out);
  have_kmv_ = false;
  stats_.kv_pairs_emitted += kv_.size();
  charge_spill(/*fresh_store=*/true);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

std::uint64_t MapReduce::compress(const ReduceFn& fn) {
  PhaseSpan span(phase_recorder(), comm_, "compress");
  const KeyMultiValue groups = KeyMultiValue::from_keyvalue(kv_);
  KeyValue out = make_kv();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    fn(groups.group(i), out);
  }
  kv_ = std::move(out);
  have_kmv_ = false;
  stats_.kv_pairs_emitted += kv_.size();
  charge_spill(/*fresh_store=*/true);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

std::uint64_t MapReduce::map_kv(const MapKvFn& fn) {
  PhaseSpan span(phase_recorder(), comm_, "map_kv");
  KeyValue out = make_kv();
  kv_.for_each([&](const KvPair& pair) { fn(pair, out); });
  kv_ = std::move(out);
  have_kmv_ = false;
  stats_.kv_pairs_emitted += kv_.size();
  charge_spill(/*fresh_store=*/true);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

std::uint64_t MapReduce::gather() {
  PhaseSpan span(phase_recorder(), comm_, "gather");
  ByteWriter w;
  kv_.for_each([&](const KvPair& pair) {
    w.put<std::uint64_t>(pair.key.size());
    w.append(pair.key.data(), pair.key.size());
    w.put<std::uint64_t>(pair.value.size());
    w.append(pair.value.data(), pair.value.size());
    w.put<std::uint64_t>(pair.nominal_bytes);
  });
  auto all = comm_.gather_bytes(w.take(), 0);
  if (comm_.rank() == 0) {
    KeyValue merged = make_kv();
    for (const auto& buf : all) {
      ByteReader r(buf);
      while (!r.done()) {
        const auto klen = r.get<std::uint64_t>();
        const auto kbytes = r.raw(klen);
        const auto vlen = r.get<std::uint64_t>();
        const auto vbytes = r.raw(vlen);
        const auto nom = r.get<std::uint64_t>();
        merged.add(kbytes, vbytes, nom);
      }
    }
    kv_ = std::move(merged);
  } else {
    kv_.clear();
  }
  have_kmv_ = false;
  charge_spill(/*fresh_store=*/true);
  span.set_kv(kv_.size(), kv_.nominal_bytes());
  return global_count(kv_.size());
}

void MapReduce::sort_keys() {
  kv_.sort_by_key();
  have_kmv_ = false;
}

void MapReduce::charge_spill(bool fresh_store, double credit_seconds,
                             const char* span_name) {
  // A store-replacing op (aggregate, reduce, compress, map_kv, gather, a
  // non-append map) discards the old pages and writes new ones, so the old
  // high-water mark must not mask the new store's spill I/O. Without this
  // reset a collate() whose output shrank below a previous peak was never
  // charged for respilling — the grow-then-shrink undercharge.
  if (fresh_store) charged_spill_ = 0;
  const std::uint64_t nominal = kv_.nominal_bytes();
  if (nominal > config_.memsize_bytes) {
    const std::uint64_t spilled = nominal - config_.memsize_bytes;
    if (spilled > charged_spill_) {
      const std::uint64_t fresh = spilled - charged_spill_;
      const double t0 = comm_.now();
      double seconds = static_cast<double>(fresh) * config_.spill_byte_seconds;
      if (credit_seconds > 0.0) {
        // Spill writes overlapped with the exchange: only the tail that
        // outlives the communication costs wall-clock time.
        const double saved = std::min(seconds, credit_seconds);
        stats_.shuffle_overlap_saved_seconds += saved;
        seconds -= saved;
      }
      comm_.compute(seconds);
      if (obs::Registry* reg = metrics(); reg != nullptr) {
        reg->counter("mrmpi.spill_bytes").inc(fresh);
      }
      if (trace::Recorder* rec = phase_recorder(); rec != nullptr) {
        rec->add(comm_.rank(), trace::Category::Io, span_name, t0, comm_.now(), 0, fresh);
      }
      stats_.spilled_bytes += fresh;
      charged_spill_ = spilled;
    }
  } else {
    charged_spill_ = 0;
  }
}

std::uint64_t MapReduce::global_count(std::uint64_t local) {
  return comm_.allreduce_scalar(local, mpi::ReduceOp::Sum);
}

}  // namespace mrbio::mrmpi
