// mrsom_train: the MR-MPI batch SOM command-line driver. Trains a map on
// a raw float matrix (memory-mapped, the paper's input format) or on the
// tetranucleotide composition of a FASTA file, on either the simulated
// cluster (--backend sim) or real threads (--backend native). The default
// Chunk map style assigns blocks to ranks deterministically, so the
// trained codebook is byte-identical across backends.
//
//   mrsom_train --matrix data.raw --dim 256 [--rows 50 --cols 50] ...
//   mrsom_train --fasta frags.fa --tetra [--backend sim|native] ...
//
// Outputs: <out>.cb (codebook), <out>_umatrix.pgm, and quality metrics.
// Exit codes: 0 success, 1 error, 3 job killed by a kill: fault (restart
// with --resume to continue from the last checkpointed epoch).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "blast/composition.hpp"
#include "ckpt/ckpt.hpp"
#include "blast/sequence.hpp"
#include "common/image.hpp"
#include "common/log.hpp"
#include "common/mmap_file.hpp"
#include "common/options.hpp"
#include "fault/detector.hpp"
#include "fault/fault.hpp"
#include "mrsom/mrsom.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "rt/backend.hpp"
#include "simd/simd.hpp"
#include "trace/trace.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  Options opts("mrsom_train: parallel batch SOM training");
  opts.add("matrix", "", "raw float32 row-major matrix file (use with --dim)");
  opts.add("dim", "0", "columns of the raw matrix");
  opts.add("fasta", "", "alternative input: FASTA file, one vector per sequence");
  opts.add_flag("tetra", "with --fasta: use tetranucleotide (256-D) composition");
  opts.add("rows", "50", "SOM grid rows");
  opts.add("cols", "50", "SOM grid columns");
  opts.add("epochs", "10", "training epochs");
  opts.add("block", "40", "input vectors per work unit");
  opts.add("backend", "sim", "runtime backend: sim (discrete-event) or native (threads)");
  opts.add("ranks", "0", "MPI ranks; 0 = backend default (sim: 8, native: hardware threads)");
  opts.add("style", "chunk", "map style: chunk (deterministic) or master (load-balanced)");
  opts.add("scheduler", "auto",
           "map scheduler: auto|chunk|stride|master|master-ft|steal "
           "(auto follows --style; master runs as steal on native)");
  opts.add_flag("deterministic",
                "with a dynamic scheduler: schedule-independent reduction, so "
                "the codebook bytes match a fault-tolerant (--faults) run");
  opts.add("init", "pca", "codebook initialization: pca or random");
  opts.add("seed", "2011", "random seed");
  opts.add("out", "mrsom", "output prefix");
  opts.add("planes", "0", "write the first N component planes as PGM images");
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
                         "requires --style master, enables the fault-tolerant scheduler");
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
  opts.add_flag("resume", "continue from the last checkpointed epoch in --checkpoint-dir");
  opts.add("simd", "auto",
           "SIMD level for the BMU/accumulator kernels: scalar|sse|avx2|auto "
           "(auto = best this CPU supports; results are bit-identical "
           "across levels)");
  opts.add("log", "", "log level: debug/info/warn/error/off (default $MRBIO_LOG or warn)");
  std::unique_ptr<fault::Injector> injector;
  try {
    if (!opts.parse(argc, argv)) return 0;
    if (!opts.str("log").empty()) set_log_level(parse_log_level(opts.str("log")));
    simd::set_isa(simd::parse_isa(opts.str("simd")));
    MRBIO_LOG(Info, "simd level: ", simd::isa_name(simd::active_isa()));
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
    MRBIO_REQUIRE(opts.str("matrix").empty() != opts.str("fasta").empty(),
                  "provide exactly one of --matrix or --fasta\n", opts.usage());

    Matrix data;
    MmapFile mapped;
    MatrixView view;
    if (!opts.str("matrix").empty()) {
      const auto dim = static_cast<std::size_t>(opts.integer("dim"));
      MRBIO_REQUIRE(dim > 0, "--dim is required with --matrix");
      mapped = MmapFile(opts.str("matrix"));
      view = mapped.as_matrix(dim);
    } else {
      MRBIO_REQUIRE(opts.flag("tetra"), "--fasta currently requires --tetra");
      const auto seqs = blast::read_fasta_file(opts.str("fasta"), blast::SeqType::Dna);
      MRBIO_REQUIRE(!seqs.empty(), "no sequences in ", opts.str("fasta"));
      data = Matrix(seqs.size(), blast::kmer_dims(4));
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        const auto freqs = blast::tetranucleotide_frequencies(seqs[i].data);
        std::copy(freqs.begin(), freqs.end(), data.row(i).begin());
      }
      view = data.view();
    }
    std::printf("training on %zu vectors of dimension %zu\n", view.rows(), view.cols());

    som::Codebook initial(
        som::SomGrid{static_cast<std::size_t>(opts.integer("rows")),
                     static_cast<std::size_t>(opts.integer("cols"))},
        view.cols());
    if (opts.str("init") == "pca") {
      initial.init_pca(view);
    } else {
      Rng rng(static_cast<std::uint64_t>(opts.integer("seed")));
      initial.init_random(rng);
    }

    mrsom::ParallelSomConfig config;
    config.params.epochs = static_cast<std::size_t>(opts.integer("epochs"));
    config.block_vectors = static_cast<std::size_t>(opts.integer("block"));
    config.on_epoch = [](std::size_t epoch, double sigma, double qerr) {
      std::printf("epoch %3zu  sigma %7.3f  qerr %.6f\n", epoch, sigma, qerr);
    };
    // Chunk assigns blocks to ranks by index, making the floating-point
    // accumulation order — and therefore the codebook bytes — a pure
    // function of the input, identical on both backends. MasterWorker
    // load-balances but lets native thread timing pick the partition.
    MRBIO_REQUIRE(opts.str("style") == "chunk" || opts.str("style") == "master",
                  "--style must be chunk or master");
    config.map_style = opts.str("style") == "chunk" ? mrmpi::MapStyle::Chunk
                                                    : mrmpi::MapStyle::MasterWorker;
    config.scheduler = sched::parse_policy(opts.str("scheduler"));
    config.deterministic_reduce = opts.flag("deterministic");
    // The policy the run will actually use, for fault gating below.
    const bool remote_sched =
        sched::is_remote(config.scheduler) ||
        (config.scheduler == sched::Policy::Auto &&
         config.map_style == mrmpi::MapStyle::MasterWorker);

    rt::LaunchConfig lc;
    lc.backend = rt::backend_from_name(opts.str("backend"));
    lc.nranks = opts.integer("ranks") > 0 ? static_cast<int>(opts.integer("ranks"))
                                          : rt::default_ranks(lc.backend);
    if (!opts.str("faults").empty()) {
      const std::string& spec = opts.str("faults");
      fault::FaultPlan plan = std::filesystem::exists(spec)
                                  ? fault::FaultPlan::from_file(spec)
                                  : fault::FaultPlan::parse(spec);
      // Crash/message faults need a fault-tolerant scheduling protocol
      // (the master ledger, or steal backed by it); kill/corrupt-only
      // plans exercise checkpoint/restart and run on whichever scheduler
      // --style/--scheduler selects.
      const bool needs_ft = plan.requires_ft();
      MRBIO_REQUIRE(!needs_ft || remote_sched,
                    "crash/message faults require --style master or "
                    "--scheduler master/master-ft/steal (recovery needs a "
                    "remote scheduling protocol)");
      injector = std::make_unique<fault::Injector>(std::move(plan));
      lc.injector = injector.get();
      if (needs_ft) {
        config.ft.enabled = true;  // forces the deterministic KV reduce path
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
    // Fingerprint: a checkpoint dir is bound to one training configuration
    // and one block record format; resuming with different inputs,
    // hyper-parameters or map-log records is rejected.
    ckpt::CheckpointConfig ckpt_config;
    ckpt_config.dir = opts.str("checkpoint-dir");
    ckpt_config.interval = opts.real("checkpoint-interval");
    ckpt_config.resume = opts.flag("resume");
    MRBIO_REQUIRE(!ckpt_config.resume || !ckpt_config.dir.empty(),
                  "--resume requires --checkpoint-dir");
    ckpt::Checkpointer checkpointer(ckpt_config, injector.get());
    if (checkpointer.enabled()) {
      std::ostringstream fp;
      fp << "mrsom input=" << (opts.str("matrix").empty() ? opts.str("fasta")
                                                          : opts.str("matrix"))
         << " rows=" << view.rows() << " dim=" << view.cols()
         << " grid=" << opts.integer("rows") << 'x' << opts.integer("cols")
         << " epochs=" << opts.integer("epochs") << " block=" << opts.integer("block")
         << " ranks=" << lc.nranks << " style=" << opts.str("style")
         << " scheduler=" << sched::policy_name(config.scheduler)
         << " deterministic=" << config.deterministic_reduce
         << " init=" << opts.str("init") << " seed=" << opts.integer("seed")
         << " records=" << mrsom::kBlockRecordFormat;
      checkpointer.open(fp.str());
      config.checkpointer = &checkpointer;
      lc.checkpointing = true;
    }
    // --report implies a Full-level recorder and a metrics registry; both
    // only read the active backend's clock, so measured times are unchanged.
    const bool want_report = opts.flag("report") || !opts.str("report-json").empty();
    std::unique_ptr<trace::Recorder> recorder;
    if (!opts.str("trace").empty() || want_report) {
      const bool full = opts.flag("trace-full") || want_report;
      recorder = std::make_unique<trace::Recorder>(
          lc.nranks, full ? trace::Level::Full : trace::Level::Phases);
      lc.recorder = recorder.get();
    }
    obs::Registry registry;
    if (want_report || !opts.str("metrics-out").empty()) lc.metrics = &registry;
    std::unique_ptr<obs::TimeSeries> timeseries;
    if (!opts.str("timeseries-out").empty() || want_report) {
      timeseries = std::make_unique<obs::TimeSeries>(lc.nranks);
      lc.timeseries = timeseries.get();
    }
    lc.eventlog = eventlog.get();
    som::Codebook cb;
    const rt::LaunchResult run = rt::launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      som::Codebook trained = mrsom::train_som_mr(comm, view, initial, config);
      if (rank.rank() == 0) cb = std::move(trained);
    });
    std::printf("trained on %d %s ranks in %.3f %s seconds\n", lc.nranks,
                rt::backend_name(lc.backend), run.elapsed,
                lc.backend == rt::Backend::Sim ? "virtual" : "wall-clock");
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
    }
    if (checkpointer.enabled()) {
      const ckpt::CheckpointStats cs = checkpointer.stats();
      std::printf("checkpoint: %llu records (%llu bytes) written, "
                  "%llu records (%llu bytes) replayed, %llu corrupt dropped, "
                  "%llu snapshots\n",
                  static_cast<unsigned long long>(cs.records_written),
                  static_cast<unsigned long long>(cs.bytes_written),
                  static_cast<unsigned long long>(cs.records_replayed),
                  static_cast<unsigned long long>(cs.bytes_replayed),
                  static_cast<unsigned long long>(cs.corrupt_records),
                  static_cast<unsigned long long>(cs.snapshots_saved));
      checkpointer.cleanup_on_success();
    }

    const std::string prefix = opts.str("out");
    som::save_codebook(prefix + ".cb", cb);
    write_pgm(prefix + "_umatrix.pgm", som::u_matrix(cb).view());
    const auto planes = std::min<std::size_t>(
        static_cast<std::size_t>(opts.integer("planes")), cb.dim());
    for (std::size_t d = 0; d < planes; ++d) {
      write_pgm(prefix + "_plane" + std::to_string(d) + ".pgm",
                som::component_plane(cb, d).view());
    }
    std::printf("codebook: %s.cb   u-matrix: %s_umatrix.pgm\n", prefix.c_str(),
                prefix.c_str());
    std::printf("quantization error %.6f   topographic error %.4f\n",
                som::quantization_error(cb, view), som::topographic_error(cb, view));
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
    MRBIO_LOG(Warn, "mrsom_train: job killed: ", e.what());
    return 3;
  } catch (const std::exception& e) {
    // A kill can surface as a secondary error (e.g. the sim engine reports
    // the surviving ranks' deadlock before the kill signal itself).
    if (injector != nullptr && injector->stats().kills_fired > 0) {
      MRBIO_LOG(Warn, "mrsom_train: job killed: ", e.what(),
                " (restart with --resume to continue)");
      return 3;
    }
    MRBIO_LOG(ErrorLevel, "mrsom_train: ", e.what());
    return 1;
  }
}
