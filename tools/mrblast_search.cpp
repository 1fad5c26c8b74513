// mrblast_search: the MR-MPI BLAST command-line driver. Searches a query
// FASTA against a formatted database on a cluster of MPI ranks — either
// the discrete-event simulator (--backend sim, virtual time) or real
// preemptive threads (--backend native, wall-clock time) — writing
// per-rank tabular hit files exactly as the paper's application does.
// The hit files are byte-identical across backends.
//
//   mrblast_search --query q.fa --db mydb.mal --out results/
//                  [--backend sim|native] [--ranks N]
//                  [--type nucl|prot] [--evalue 10]
//                  [--max-hits 500] [--block 1000] [--tapered]
//                  [--locality] [--no-filter] [--exclude-self]
//                  [--trace out.json] [--trace-full]
//                  [--report] [--report-json report.json]
//                  [--timeseries-out ts.jsonl] [--metrics-out metrics.json]
//                  [--log-json events.jsonl]
//                  [--faults "crash:rank=3@t=0.4"] [--ft-timeout 5] [--ft-retries 3]
//                  [--checkpoint-dir ckpt/] [--checkpoint-interval 5] [--resume]
//                  [--virtual-rate auto] [--simd scalar|sse|avx2|auto]
//
// Exit codes: 0 success, 1 error, 3 job killed by a kill: fault (restart
// with --resume to continue from the last checkpoint).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "ckpt/ckpt.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "fault/detector.hpp"
#include "fault/fault.hpp"
#include "mrblast/mrblast.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "rt/backend.hpp"
#include "simd/simd.hpp"
#include "trace/trace.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  Options opts("mrblast_search: parallel BLAST over a simulated MPI cluster");
  opts.add("query", "", "query FASTA file (required)");
  opts.add("db", "", "database alias file from mrformatdb, <base>.mal (required)");
  opts.add("out", "mrblast_out", "output directory for per-rank hit files");
  opts.add("type", "nucl", "search type: nucl or prot");
  opts.add("backend", "sim", "runtime backend: sim (discrete-event) or native (threads)");
  opts.add("ranks", "0", "MPI ranks; 0 = backend default (sim: 8, native: hardware threads)");
  opts.add("evalue", "10", "E-value cutoff");
  opts.add("max-hits", "500", "max hits kept per query (0 = unlimited)");
  opts.add("block", "1000", "queries per block");
  opts.add("blocks-per-iter", "0",
           "query blocks per MapReduce iteration (0 = all in one); each "
           "iteration is one checkpoint cycle, so smaller values commit "
           "progress more often");
  opts.add_flag("tapered", "use a tapered block schedule (Section V dynamic chunking)");
  opts.add("scheduler", "auto",
           "map scheduler: auto|chunk|stride|master|master-ft|steal "
           "(auto follows the default master-worker style: master on the "
           "sim backend, steal on native)");
  opts.add_flag("locality", "use the location-aware scheduler");
  opts.add_flag("no-filter", "disable low-complexity filtering");
  opts.add_flag("exclude-self", "drop hits of shredded fragments on their parent");
  opts.add("trace", "", "write a Chrome-tracing JSON timeline to this path");
  opts.add_flag("trace-full", "with --trace: also record per-message/compute events");
  opts.add_flag("report", "print a critical-path / idle-time performance report");
  opts.add("report-json", "", "write the performance report as JSON to this path");
  opts.add("timeseries-out", "",
           "write sampled per-rank counter time series as JSONL to this path");
  opts.add("metrics-out", "", "write the raw metrics registry as JSON to this path");
  opts.add("log-json", "",
           "also write every log line as a structured JSONL event to this path");
  opts.add("faults", "", "fault plan: spec/JSON string, or a path to a plan file; "
                         "enables the fault-tolerant scheduler");
  opts.add("ft-timeout", "auto",
           "with --faults: seconds before an outstanding task is retried; "
           "auto adapts to ~4x the p99 of observed task cost (5 s until "
           "enough tasks have completed)");
  opts.add("ft-retries", "3", "with --faults: retries per task before it is abandoned");
  opts.add("ledger-ranks", "0",
           "with --scheduler steal faults: ranks owning a commit-ledger "
           "shard (0 = every rank owns its seeded range; 1 = single "
           "coordinator)");
  opts.add("heartbeat", "",
           "phi-accrual failure detection piggybacked on scheduler traffic, "
           "e.g. \"interval=0.5,phi=6,samples=4\" or \"on\" (empty = off)");
  opts.add("checkpoint-dir", "", "durable checkpoint directory; enables checkpoint/restart");
  opts.add("checkpoint-interval", "5",
           "min virtual seconds between map-log flushes (0 = flush every task)");
  opts.add_flag("resume", "continue from the checkpoint in --checkpoint-dir, "
                          "truncating hit files to the last committed cycle");
  opts.add("virtual-rate", "auto",
           "sim backend: virtual seconds charged per alignment cell "
           "(query x partition residues), so the virtual timeline reflects "
           "search work and time-triggered faults can fire; 0 disables, "
           "auto = the measured per-cell kernel constant");
  opts.add("simd", "auto",
           "SIMD level for the alignment kernels: scalar|sse|avx2|auto "
           "(auto = best this CPU supports; results are bit-identical "
           "across levels)");
  opts.add("log", "", "log level: debug/info/warn/error/off (default $MRBIO_LOG or warn)");
  std::unique_ptr<fault::Injector> injector;
  try {
    if (!opts.parse(argc, argv)) return 0;
    if (!opts.str("log").empty()) set_log_level(parse_log_level(opts.str("log")));
    // Install the event-log sink before anything that can emit MRBIO_LOG
    // lines (checkpoint open, fault-plan parsing), so --log-json captures
    // the whole run, not just the launch.
    std::unique_ptr<obs::EventLog> eventlog;
    if (!opts.str("log-json").empty()) {
      eventlog = std::make_unique<obs::EventLog>(opts.str("log-json"));
      set_log_sink(&obs::EventLog::log_sink, eventlog.get());
    }
    // Uninstall the sink before `eventlog` is destroyed, on every exit path.
    const auto sink_guard = std::unique_ptr<void, void (*)(void*)>(
        eventlog.get(), [](void* p) {
          if (p != nullptr) set_log_sink(nullptr, nullptr);
        });
    MRBIO_REQUIRE(!opts.str("query").empty() && !opts.str("db").empty(),
                  "--query and --db are required\n", opts.usage());

    const blast::DbInfo db = blast::read_db_info(opts.str("db"));
    const bool prot_requested = opts.str("type") == "prot";
    MRBIO_REQUIRE((db.type == blast::SeqType::Protein) == prot_requested,
                  "database type does not match --type");

    mrblast::RealRunConfig config;
    config.options = prot_requested ? blast::make_protein_options() : blast::SearchOptions{};
    config.options.evalue_cutoff = opts.real("evalue");
    config.options.max_hits_per_query = static_cast<std::size_t>(opts.integer("max-hits"));
    config.options.filter_low_complexity = !opts.flag("no-filter");
    config.options.exclude_self_hits = opts.flag("exclude-self");
    config.partition_paths = db.volume_paths;
    config.output_dir = opts.str("out");
    config.locality_aware = opts.flag("locality");
    config.scheduler = sched::parse_policy(opts.str("scheduler"));

    // Indexed-FASTA input: count records, derive the block schedule.
    const blast::FastaIndex index(opts.str("query"),
                                  prot_requested ? blast::SeqType::Protein
                                                 : blast::SeqType::Dna);
    const auto block = static_cast<std::uint64_t>(opts.integer("block"));
    config.query_fasta = opts.str("query");
    if (opts.flag("tapered")) {
      config.query_block_sizes = blast::tapered_block_sizes(
          index.num_records(), block, std::max<std::uint64_t>(1, block / 16));
    } else {
      for (std::size_t done = 0; done < index.num_records(); done += block) {
        config.query_block_sizes.push_back(
            std::min<std::uint64_t>(block, index.num_records() - done));
      }
    }

    config.blocks_per_iteration =
        static_cast<std::size_t>(opts.integer("blocks-per-iter"));
    if (opts.str("virtual-rate") != "auto") {
      config.virtual_seconds_per_cell = opts.real("virtual-rate");
    }
    // Not part of the checkpoint fingerprint: every level computes the
    // same bits, so a resume may legitimately switch levels.
    simd::set_isa(simd::parse_isa(opts.str("simd")));
    MRBIO_LOG(Info, "simd level: ", simd::isa_name(simd::active_isa()));
    rt::LaunchConfig lc;
    lc.backend = rt::backend_from_name(opts.str("backend"));
    lc.nranks = opts.integer("ranks") > 0 ? static_cast<int>(opts.integer("ranks"))
                                          : rt::default_ranks(lc.backend);
    const int ranks = lc.nranks;
    if (!opts.str("faults").empty()) {
      const std::string& spec = opts.str("faults");
      fault::FaultPlan plan = std::filesystem::exists(spec)
                                  ? fault::FaultPlan::from_file(spec)
                                  : fault::FaultPlan::parse(spec);
      // Crash/message faults need a fault-tolerant scheduling protocol
      // (master ledger, or steal backed by the ledger) to make progress;
      // kill/corrupt-only plans exercise checkpoint/restart and run on
      // whichever scheduler the other flags select.
      const bool needs_ft = plan.requires_ft();
      MRBIO_REQUIRE(!needs_ft || config.scheduler == sched::Policy::Auto ||
                        sched::is_remote(config.scheduler),
                    "crash/message faults require --scheduler "
                    "auto/master/master-ft/steal (recovery needs a remote "
                    "scheduling protocol)");
      injector = std::make_unique<fault::Injector>(std::move(plan));
      lc.injector = injector.get();
      if (needs_ft) {
        config.ft.enabled = true;
        // "auto" (task_timeout <= 0) tracks ~4x the p99 of observed
        // grant-to-commit service times instead of a fixed guess.
        config.ft.task_timeout =
            opts.str("ft-timeout") == "auto" ? 0.0 : opts.real("ft-timeout");
        config.ft.max_retries = static_cast<int>(opts.integer("ft-retries"));
        config.ft.ledger_ranks = static_cast<int>(opts.integer("ledger-ranks"));
        if (!opts.str("heartbeat").empty()) {
          config.ft.heartbeat = fault::HeartbeatConfig::parse(opts.str("heartbeat"));
        }
        // The sharded steal ledger elects a deterministic successor for a
        // dead shard owner, so rank-0 crash plans are legal under it.
        lc.master_failover = config.scheduler == sched::Policy::Steal;
      }
    }
    // The fingerprint ties a checkpoint dir to one run configuration:
    // resuming after changing the inputs or the block schedule would
    // splice incompatible partial outputs, so open() rejects a mismatch.
    ckpt::CheckpointConfig ckpt_config;
    ckpt_config.dir = opts.str("checkpoint-dir");
    ckpt_config.interval = opts.real("checkpoint-interval");
    ckpt_config.resume = opts.flag("resume");
    MRBIO_REQUIRE(!ckpt_config.resume || !ckpt_config.dir.empty(),
                  "--resume requires --checkpoint-dir");
    ckpt::Checkpointer checkpointer(ckpt_config, injector.get());
    if (checkpointer.enabled()) {
      std::ostringstream fp;
      fp << "mrblast query=" << opts.str("query") << " db=" << opts.str("db")
         << " ranks=" << ranks << " evalue=" << opts.real("evalue")
         << " max-hits=" << opts.integer("max-hits")
         << " filter=" << config.options.filter_low_complexity
         << " exclude-self=" << config.options.exclude_self_hits
         << " locality=" << config.locality_aware
         << " scheduler=" << sched::policy_name(config.scheduler)
         << " blocks-per-iter=" << config.blocks_per_iteration << " blocks=";
      for (const auto b : config.query_block_sizes) fp << b << ',';
      checkpointer.open(fp.str());
      config.checkpointer = &checkpointer;
      lc.checkpointing = true;
    }
    if (!checkpointer.resuming()) std::filesystem::remove_all(config.output_dir);
    // --report implies a Full-level recorder (the critical-path walk needs
    // per-message events) and a metrics registry; both only read the active
    // backend's clock, so they never change the measured times.
    const bool want_report = opts.flag("report") || !opts.str("report-json").empty();
    std::unique_ptr<trace::Recorder> recorder;
    if (!opts.str("trace").empty() || want_report) {
      const bool full = opts.flag("trace-full") || want_report;
      recorder = std::make_unique<trace::Recorder>(
          ranks, full ? trace::Level::Full : trace::Level::Phases);
      lc.recorder = recorder.get();
    }
    obs::Registry registry;
    if (want_report || !opts.str("metrics-out").empty()) lc.metrics = &registry;
    std::unique_ptr<obs::TimeSeries> timeseries;
    if (!opts.str("timeseries-out").empty() || want_report) {
      timeseries = std::make_unique<obs::TimeSeries>(ranks);
      lc.timeseries = timeseries.get();
    }
    lc.eventlog = eventlog.get();
    std::uint64_t total = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> files(static_cast<std::size_t>(ranks));
    const rt::LaunchResult run = rt::launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      const auto result = mrblast::run_blast_mr(comm, config);
      files[static_cast<std::size_t>(rank.rank())] = result.output_file;
      if (rank.rank() == 0) {
        total = result.total_hsps;
        failed = result.failed_tasks;
      }
    });

    std::printf("searched %zu queries (%zu blocks) x %zu partitions on %d %s ranks\n",
                index.num_records(), config.query_block_sizes.size(),
                db.volume_paths.size(), ranks, rt::backend_name(lc.backend));
    std::printf("%llu HSPs in %.3f %s seconds; output files:\n",
                static_cast<unsigned long long>(total), run.elapsed,
                lc.backend == rt::Backend::Sim ? "virtual" : "wall-clock");
    for (const auto& f : files) {
      if (!f.empty()) std::printf("  %s\n", f.c_str());
    }
    if (injector) {
      const fault::InjectorStats fs = injector->stats();
      std::printf("faults fired: %llu crashes, %llu drops, %llu duplicates, "
                  "%llu delays, %llu kills, %llu corruptions\n",
                  static_cast<unsigned long long>(fs.crashes_fired),
                  static_cast<unsigned long long>(fs.messages_dropped),
                  static_cast<unsigned long long>(fs.messages_duplicated),
                  static_cast<unsigned long long>(fs.messages_delayed),
                  static_cast<unsigned long long>(fs.kills_fired),
                  static_cast<unsigned long long>(fs.checkpoints_corrupted));
      if (failed > 0) {
        std::printf("WARNING: %llu work units abandoned after %d retries; "
                    "the hit files are PARTIAL\n",
                    static_cast<unsigned long long>(failed),
                    config.ft.max_retries);
      }
    }
    if (checkpointer.enabled()) {
      const ckpt::CheckpointStats cs = checkpointer.stats();
      std::printf("checkpoint: %llu records (%llu bytes) written, "
                  "%llu records (%llu bytes) replayed, %llu corrupt dropped\n",
                  static_cast<unsigned long long>(cs.records_written),
                  static_cast<unsigned long long>(cs.bytes_written),
                  static_cast<unsigned long long>(cs.records_replayed),
                  static_cast<unsigned long long>(cs.bytes_replayed),
                  static_cast<unsigned long long>(cs.corrupt_records));
      checkpointer.cleanup_on_success();
    }
    if (recorder && !opts.str("trace").empty()) {
      trace::write_chrome_trace(opts.str("trace"), *recorder);
      trace::print_summary(stdout, trace::summarize(*recorder));
      std::printf("trace: %s (load in chrome://tracing or Perfetto)\n",
                  opts.str("trace").c_str());
    }
    if (want_report) {
      const obs::Report report = obs::analyze(*recorder);
      if (opts.flag("report")) {
        obs::print_report(stdout, report);
        std::printf("\n-- metrics --\n");
        registry.print(stdout);
      }
      if (!opts.str("report-json").empty()) {
        std::FILE* f = std::fopen(opts.str("report-json").c_str(), "w");
        MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("report-json"));
        obs::write_report_json(f, report, &registry, timeseries.get());
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("report: %s\n", opts.str("report-json").c_str());
      }
    }
    if (!opts.str("timeseries-out").empty()) {
      std::FILE* f = std::fopen(opts.str("timeseries-out").c_str(), "w");
      MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("timeseries-out"));
      timeseries->write_jsonl(f);
      std::fclose(f);
      std::printf("timeseries: %s\n", opts.str("timeseries-out").c_str());
    }
    if (!opts.str("metrics-out").empty()) {
      std::FILE* f = std::fopen(opts.str("metrics-out").c_str(), "w");
      MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("metrics-out"));
      registry.write_json(f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("metrics: %s\n", opts.str("metrics-out").c_str());
    }
    return 0;
  } catch (const fault::JobKillSignal& e) {
    MRBIO_LOG(Warn, "mrblast_search: job killed: ", e.what());
    return 3;
  } catch (const std::exception& e) {
    // A kill can surface as a secondary error (e.g. the sim engine reports
    // the surviving ranks' deadlock before the kill signal itself).
    if (injector != nullptr && injector->stats().kills_fired > 0) {
      MRBIO_LOG(Warn, "mrblast_search: job killed: ", e.what(),
                " (restart with --resume to continue)");
      return 3;
    }
    MRBIO_LOG(ErrorLevel, "mrblast_search: ", e.what());
    return 1;
  }
}
