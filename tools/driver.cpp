#include "driver.hpp"

#include <cstdio>
#include <filesystem>

#include "ckpt/ckpt.hpp"
#include "common/log.hpp"
#include "fault/detector.hpp"
#include "fault/fault.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "simd/simd.hpp"
#include "trace/trace.hpp"

namespace mrbio::driver {

struct Driver::State {
  std::unique_ptr<obs::EventLog> eventlog;
  std::unique_ptr<fault::Injector> injector;
  std::unique_ptr<ckpt::Checkpointer> checkpointer;
  std::unique_ptr<trace::Recorder> recorder;
  obs::Registry registry;
  std::unique_ptr<obs::TimeSeries> timeseries;
};

namespace {

// Writes one output file through `write` and names it on stdout.
void write_file(const std::string& path, const char* label,
                const std::function<void(std::FILE*)>& write) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                          &std::fclose);
  MRBIO_REQUIRE(f != nullptr, "cannot open ", path);
  write(f.get());
  std::printf("%s: %s\n", label, path.c_str());
}

}  // namespace

Driver::Driver(std::string tool, const std::string& summary)
    : tool_(std::move(tool)), opts_(tool_ + ": " + summary), state_(std::make_unique<State>()) {}

Driver::~Driver() {
  // Uninstall the sink before the event log it points at is destroyed.
  if (state_->eventlog) set_log_sink(nullptr, nullptr);
}

int Driver::run(int argc, char** argv, const std::function<void()>& body) {
  opts_.add("backend", "sim", "runtime backend: sim (discrete-event) or native (threads)");
  opts_.add("ranks", "0", "MPI ranks; 0 = backend default (sim: 8, native: hardware threads)");
  opts_.add("scheduler", "auto",
            "map scheduler: auto|chunk|stride|master|master-ft|steal (auto "
            "follows the map style; master-worker runs as steal on native)");
  opts_.add("trace", "", "write a Chrome-tracing JSON timeline to this path");
  opts_.add_flag("report", "print a critical-path / idle-time performance report");
  opts_.add("report-json", "", "write the performance report as JSON to this path");
  opts_.add("timeseries-out", "",
            "write sampled per-rank counter time series as JSONL to this path");
  opts_.add("metrics-out", "", "write the raw metrics registry as JSON to this path");
  opts_.add("log-json", "",
            "also write every log line as a structured JSONL event to this path");
  opts_.add("faults", "",
            "fault plan: spec/JSON string, or a path to a plan file; crash, "
            "drop and dup faults need a remote scheduler and enable the "
            "fault-tolerant protocol");
  opts_.add("ft-timeout", "auto",
            "with --faults: seconds before an outstanding task is retried; "
            "auto adapts to ~4x the p99 of observed task cost (5 s until "
            "enough tasks have completed)");
  opts_.add("ft-retries", "3", "with --faults: retries per task before it is abandoned");
  opts_.add("ledger-ranks", "0",
            "with --scheduler steal faults: ranks owning a commit-ledger "
            "shard (0 = every rank owns its seeded range; 1 = single "
            "coordinator)");
  opts_.add("heartbeat", "",
            "phi-accrual failure detection piggybacked on scheduler traffic, "
            "e.g. \"interval=0.5,phi=6,samples=4\" or \"on\" (empty = off)");
  opts_.add("checkpoint-dir", "", "durable checkpoint directory; enables checkpoint/restart");
  opts_.add("checkpoint-interval", "5",
            "min virtual seconds between map-log flushes (0 = flush every task)");
  opts_.add_flag("resume", "continue from the checkpoint in --checkpoint-dir");
  opts_.add("simd", "auto",
            "SIMD level for the kernels: scalar|sse|avx2|auto (auto = best "
            "this CPU supports; results are bit-identical across levels)");
  opts_.add("log", "", "log level: debug/info/warn/error/off (default $MRBIO_LOG or warn)");
  try {
    if (!opts_.parse(argc, argv)) return 0;
    if (!opts_.str("log").empty()) set_log_level(parse_log_level(opts_.str("log")));
    if (!opts_.str("log-json").empty()) {
      state_->eventlog = std::make_unique<obs::EventLog>(opts_.str("log-json"));
      set_log_sink(&obs::EventLog::log_sink, state_->eventlog.get());
      launch_.eventlog = state_->eventlog.get();
    }
    // Not part of any checkpoint fingerprint: every level computes the
    // same bits, so a resume may legitimately switch levels.
    simd::set_isa(simd::parse_isa(opts_.str("simd")));
    MRBIO_LOG(Info, "simd level: ", simd::isa_name(simd::active_isa()));
    launch_.backend = rt::backend_from_name(opts_.str("backend"));
    launch_.nranks = opts_.integer("ranks") > 0 ? static_cast<int>(opts_.integer("ranks"))
                                                : rt::default_ranks(launch_.backend);
    body();
    return 0;
  } catch (const fault::JobKillSignal& e) {
    MRBIO_LOG(Warn, tool_, ": job killed: ", e.what());
    return 3;
  } catch (const std::exception& e) {
    // A kill can surface as a secondary error (e.g. the sim engine reports
    // the surviving ranks' deadlock before the kill signal itself).
    if (state_->injector != nullptr && state_->injector->stats().kills_fired > 0) {
      MRBIO_LOG(Warn, tool_, ": job killed: ", e.what(),
                " (restart with --resume to continue)");
      return 3;
    }
    MRBIO_LOG(ErrorLevel, tool_, ": ", e.what());
    return 1;
  }
}

const char* Driver::clock() const {
  return launch_.backend == rt::Backend::Sim ? "virtual" : "wall-clock";
}

ckpt::Checkpointer* Driver::prepare(sched::Policy policy, mrmpi::MapStyle style,
                                   sched::FtConfig& ft, const std::string& fingerprint) {
  if (const std::string& spec = opts_.str("faults"); !spec.empty()) {
    fault::FaultPlan plan = std::filesystem::exists(spec) ? fault::FaultPlan::from_file(spec)
                                                          : fault::FaultPlan::parse(spec);
    if (plan.requires_ft()) {
      MRBIO_REQUIRE(sched::is_remote(policy) || (policy == sched::Policy::Auto &&
                                                 style == mrmpi::MapStyle::MasterWorker),
                    "crash/drop/dup faults require a remote scheduler: --scheduler "
                    "master/master-ft/steal, or auto with a master-worker style "
                    "(recovery needs the fault-tolerant protocol)");
      ft.enabled = true;
      // "auto" (task_timeout <= 0) tracks ~4x the p99 of observed
      // grant-to-commit service times instead of a fixed guess.
      ft.task_timeout = opts_.str("ft-timeout") == "auto" ? 0.0 : opts_.real("ft-timeout");
      ft.max_retries = static_cast<int>(opts_.integer("ft-retries"));
      ft.ledger_ranks = static_cast<int>(opts_.integer("ledger-ranks"));
      if (!opts_.str("heartbeat").empty()) {
        ft.heartbeat = fault::HeartbeatConfig::parse(opts_.str("heartbeat"));
      }
      // The sharded steal ledger elects a deterministic successor for a
      // dead shard owner, so rank-0 crash plans are legal under it.
      launch_.master_failover = policy == sched::Policy::Steal;
    }
    state_->injector = std::make_unique<fault::Injector>(std::move(plan));
    launch_.injector = state_->injector.get();
  }
  // After the plan: the checkpointer takes the injector for corrupt: faults.
  ckpt::CheckpointConfig config;
  config.dir = opts_.str("checkpoint-dir");
  config.interval = opts_.real("checkpoint-interval");
  config.resume = opts_.flag("resume");
  MRBIO_REQUIRE(!config.resume || !config.dir.empty(), "--resume requires --checkpoint-dir");
  if (config.dir.empty()) return nullptr;
  state_->checkpointer = std::make_unique<ckpt::Checkpointer>(config, state_->injector.get());
  state_->checkpointer->open(fingerprint);
  launch_.checkpointing = true;
  return state_->checkpointer.get();
}

bool Driver::resuming() const {
  return state_->checkpointer != nullptr && state_->checkpointer->resuming();
}

rt::LaunchResult Driver::launch(const std::function<void(rt::Rank&)>& body, bool trace_full) {
  // --report implies a Full-level recorder (the critical-path walk needs
  // per-message events), a registry and a time series; all of them only
  // read the active backend's clock, so they never change measured times.
  const bool want_report = opts_.flag("report") || !opts_.str("report-json").empty();
  if (!opts_.str("trace").empty() || want_report) {
    state_->recorder = std::make_unique<trace::Recorder>(
        launch_.nranks, trace_full || want_report ? trace::Level::Full : trace::Level::Phases);
    launch_.recorder = state_->recorder.get();
  }
  if (want_report || !opts_.str("metrics-out").empty()) launch_.metrics = &state_->registry;
  if (!opts_.str("timeseries-out").empty() || want_report) {
    state_->timeseries = std::make_unique<obs::TimeSeries>(launch_.nranks);
    launch_.timeseries = state_->timeseries.get();
  }
  return rt::launch(launch_, body);
}

void Driver::finish(std::uint64_t abandoned) {
  using ull = unsigned long long;
  State& s = *state_;
  if (s.injector) {
    const fault::InjectorStats fs = s.injector->stats();
    std::printf("faults fired: %llu crashes, %llu drops, %llu duplicates, "
                "%llu delays, %llu kills, %llu corruptions\n",
                static_cast<ull>(fs.crashes_fired), static_cast<ull>(fs.messages_dropped),
                static_cast<ull>(fs.messages_duplicated),
                static_cast<ull>(fs.messages_delayed), static_cast<ull>(fs.kills_fired),
                static_cast<ull>(fs.checkpoints_corrupted));
  }
  if (abandoned > 0) {
    std::printf("WARNING: %llu work units abandoned after %lld retries; "
                "the outputs are PARTIAL\n",
                static_cast<ull>(abandoned), static_cast<long long>(opts_.integer("ft-retries")));
  }
  if (s.checkpointer) {
    const ckpt::CheckpointStats cs = s.checkpointer->stats();
    std::printf("checkpoint: %llu records (%llu bytes) written, "
                "%llu records (%llu bytes) replayed, %llu corrupt dropped, "
                "%llu snapshots\n",
                static_cast<ull>(cs.records_written), static_cast<ull>(cs.bytes_written),
                static_cast<ull>(cs.records_replayed), static_cast<ull>(cs.bytes_replayed),
                static_cast<ull>(cs.corrupt_records), static_cast<ull>(cs.snapshots_saved));
  }
  if (!opts_.str("trace").empty()) {
    trace::write_chrome_trace(opts_.str("trace"), *s.recorder);
    trace::print_summary(stdout, trace::summarize(*s.recorder));
    std::printf("trace: %s (load in chrome://tracing or Perfetto)\n",
                opts_.str("trace").c_str());
  }
  if (opts_.flag("report") || !opts_.str("report-json").empty()) {
    const obs::Report report = obs::analyze(*s.recorder);
    if (opts_.flag("report")) {
      obs::print_report(stdout, report);
      std::printf("\n-- metrics --\n");
      s.registry.print(stdout);
    }
    if (!opts_.str("report-json").empty()) {
      write_file(opts_.str("report-json"), "report", [&](std::FILE* f) {
        obs::write_report_json(f, report, &s.registry, s.timeseries.get());
        std::fputc('\n', f);
      });
    }
  }
  if (!opts_.str("timeseries-out").empty()) {
    write_file(opts_.str("timeseries-out"), "timeseries",
               [&](std::FILE* f) { s.timeseries->write_jsonl(f); });
  }
  if (!opts_.str("metrics-out").empty()) {
    write_file(opts_.str("metrics-out"), "metrics", [&](std::FILE* f) {
      s.registry.write_json(f);
      std::fputc('\n', f);
    });
  }
  if (s.checkpointer) s.checkpointer->cleanup_on_success();
}

}  // namespace mrbio::driver
