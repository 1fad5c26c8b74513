// mrgraph_build: all-vs-all similarity-graph driver and the acceptance
// benchmark for the communication-efficient shuffle. Compares every
// sequence against every other (seed-and-extend, ungapped) and builds the
// edge list with one MapReduce cycle whose collate() can run in any of
// the shuffle modes:
//
//   mrgraph_build --nseq 96 --family 8 --backend sim --report
//   mrgraph_build --fasta frags.fa --combiner --exchange tree --radix 4
//
// The printed edge checksum is identical across backends, rank counts and
// shuffle modes; the shuffle counters (wire bytes, combiner savings,
// stages, compression ratio) quantify what each mode changes.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "blast/sequence.hpp"
#include "ckpt/ckpt.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "fault/detector.hpp"
#include "fault/fault.hpp"
#include "mrgraph/mrgraph.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "rt/backend.hpp"
#include "simd/simd.hpp"
#include "trace/trace.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  Options opts("mrgraph_build: all-vs-all similarity graph over MapReduce");
  opts.add("fasta", "", "input FASTA file (DNA); omit for a synthetic family set");
  opts.add("nseq", "96", "synthetic input: total sequences");
  opts.add("family", "8", "synthetic input: sequences per homologous family");
  opts.add("seqlen", "200", "synthetic input: residues per sequence");
  opts.add("mutate", "0.05", "synthetic input: per-residue substitution rate");
  opts.add("seed", "42", "synthetic input: random seed");
  opts.add("block", "16", "sequences per block (one task = one block pair)");
  opts.add("word", "8", "seed word length (exact match)");
  opts.add("min-score", "24", "minimum ungapped score for an edge");
  opts.add("xdrop", "20", "X-drop cutoff of the extension");
  opts.add("backend", "sim", "runtime backend: sim or native");
  opts.add("ranks", "0", "ranks; 0 = backend default");
  opts.add("style", "chunk", "map style: chunk or master");
  opts.add("scheduler", "auto",
           "map scheduler: auto|chunk|stride|master|master-ft|steal "
           "(auto follows --style; master runs as steal on native)");
  opts.add_flag("combiner", "pre-aggregate same-key pairs per destination");
  opts.add("exchange", "flat", "exchange algorithm: flat or tree");
  opts.add("radix", "2", "tree exchange radix (>= 2)");
  opts.add_flag("compress", "varint/RLE-compress shuffle payloads and spill pages");
  opts.add_flag("overlap-spill", "overlap post-exchange spill I/O with the exchange");
  opts.add("compute-cell", "0", "virtual seconds per alignment cell (sim timeline)");
  opts.add("memsize", "0", "KV memory budget in bytes (0 = default)");
  opts.add_flag("page-to-disk", "page KV stores to spill files");
  opts.add("out-dir", "", "write per-rank edge files here (empty = none)");
  opts.add("trace", "", "write a Chrome-tracing JSON timeline to this path");
  opts.add_flag("report", "print a critical-path / idle-time performance report");
  opts.add("report-json", "", "write the performance report as JSON to this path");
  opts.add("timeseries-out", "",
           "write sampled per-rank counter time series as JSONL to this path");
  opts.add("metrics-out", "", "write the raw metrics registry as JSON to this path");
  opts.add("log-json", "",
           "also write every log line as a structured JSONL event to this path");
  opts.add("faults", "", "fault plan: spec/JSON string, or a path to a plan file; "
                         "crash/drop plans enable the fault-tolerant scheduler");
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
  opts.add_flag("resume", "continue from the checkpoint in --checkpoint-dir");
  opts.add("simd", "auto",
           "SIMD level for the extension kernels: scalar|sse|avx2|auto "
           "(auto = best this CPU supports; results are bit-identical "
           "across levels)");
  opts.add("log", "", "log level: debug/info/warn/error/off");
  std::unique_ptr<fault::Injector> injector;
  try {
    if (!opts.parse(argc, argv)) return 0;
    if (!opts.str("log").empty()) set_log_level(parse_log_level(opts.str("log")));
    simd::set_isa(simd::parse_isa(opts.str("simd")));
    MRBIO_LOG(Info, "simd level: ", simd::isa_name(simd::active_isa()));
    // Install the event-log sink before anything that can emit MRBIO_LOG
    // lines (fault-plan parsing), so --log-json captures the whole run,
    // not just the launch.
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

    mrgraph::GraphConfig config;
    if (!opts.str("fasta").empty()) {
      config.sequences = blast::read_fasta_file(opts.str("fasta"), blast::SeqType::Dna);
    } else {
      // Families of mutated copies of a common ancestor: guaranteed edge
      // structure (dense within a family, none across), deterministic in
      // the seed.
      Rng rng(static_cast<std::uint64_t>(opts.integer("seed")));
      const auto nseq = static_cast<std::size_t>(opts.integer("nseq"));
      const auto family = static_cast<std::size_t>(opts.integer("family"));
      const auto seqlen = static_cast<std::size_t>(opts.integer("seqlen"));
      blast::Sequence ancestor;
      for (std::size_t i = 0; i < nseq; ++i) {
        if (family == 0 || i % family == 0) {
          ancestor = blast::random_sequence(rng, "f" + std::to_string(i), seqlen,
                                            blast::SeqType::Dna);
        }
        config.sequences.push_back(blast::mutate(rng, ancestor,
                                                 "s" + std::to_string(i),
                                                 opts.real("mutate"),
                                                 blast::SeqType::Dna));
      }
    }
    config.block_size = static_cast<std::size_t>(opts.integer("block"));
    config.word_len = static_cast<std::size_t>(opts.integer("word"));
    config.min_score = static_cast<int>(opts.integer("min-score"));
    config.xdrop = static_cast<int>(opts.integer("xdrop"));
    config.output_dir = opts.str("out-dir");
    config.virtual_seconds_per_cell = opts.real("compute-cell");
    config.memsize_bytes = static_cast<std::uint64_t>(opts.integer("memsize"));
    config.page_to_disk = opts.flag("page-to-disk");
    MRBIO_REQUIRE(opts.str("style") == "chunk" || opts.str("style") == "master",
                  "--style must be chunk or master");
    config.map_style = opts.str("style") == "chunk" ? mrmpi::MapStyle::Chunk
                                                    : mrmpi::MapStyle::MasterWorker;
    config.scheduler = sched::parse_policy(opts.str("scheduler"));
    config.shuffle.combiner = opts.flag("combiner");
    MRBIO_REQUIRE(opts.str("exchange") == "flat" || opts.str("exchange") == "tree",
                  "--exchange must be flat or tree");
    config.shuffle.exchange = opts.str("exchange") == "tree"
                                  ? mrmpi::ExchangeMode::Tree
                                  : mrmpi::ExchangeMode::Flat;
    config.shuffle.tree_radix = static_cast<int>(opts.integer("radix"));
    config.shuffle.compress = opts.flag("compress");
    config.shuffle.overlap_spill = opts.flag("overlap-spill");

    rt::LaunchConfig lc;
    lc.backend = rt::backend_from_name(opts.str("backend"));
    lc.nranks = opts.integer("ranks") > 0 ? static_cast<int>(opts.integer("ranks"))
                                          : rt::default_ranks(lc.backend);
    if (!opts.str("faults").empty()) {
      const std::string& spec = opts.str("faults");
      fault::FaultPlan plan = std::filesystem::exists(spec)
                                  ? fault::FaultPlan::from_file(spec)
                                  : fault::FaultPlan::parse(spec);
      // Crash/drop faults need a fault-tolerant scheduling protocol (the
      // master ledger, or steal backed by the sharded commit ledger) to
      // make progress; dup/delay/slow plans only shape the timeline and
      // run on any scheduler — except dup under plain steal, where the
      // ledger is what absorbs the duplicated claims. kill/corrupt plans
      // exercise checkpoint/restart and need --checkpoint-dir (validated
      // at launch).
      bool needs_ft = !plan.crashes.empty();
      for (const fault::MessageFault& m : plan.messages) {
        needs_ft = needs_ft || m.kind == fault::MessageFault::Kind::Drop ||
                   (config.scheduler == sched::Policy::Steal &&
                    m.kind == fault::MessageFault::Kind::Duplicate);
      }
      const bool remote_sched =
          sched::is_remote(config.scheduler) ||
          (config.scheduler == sched::Policy::Auto &&
           config.map_style == mrmpi::MapStyle::MasterWorker);
      MRBIO_REQUIRE(!needs_ft || remote_sched,
                    "crash/drop faults require --style master or --scheduler "
                    "master/master-ft/steal (recovery needs a remote "
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
    // Fingerprint: a checkpoint dir is bound to one graph configuration;
    // resuming with different inputs or cut-offs is rejected.
    ckpt::CheckpointConfig ckpt_config;
    ckpt_config.dir = opts.str("checkpoint-dir");
    ckpt_config.interval = opts.real("checkpoint-interval");
    ckpt_config.resume = opts.flag("resume");
    MRBIO_REQUIRE(!ckpt_config.resume || !ckpt_config.dir.empty(),
                  "--resume requires --checkpoint-dir");
    ckpt::Checkpointer checkpointer(ckpt_config, injector.get());
    if (checkpointer.enabled()) {
      std::ostringstream fp;
      fp << "mrgraph input=" << (opts.str("fasta").empty() ? "synthetic" : opts.str("fasta"))
         << " nseq=" << config.sequences.size() << " seed=" << opts.integer("seed")
         << " mutate=" << opts.real("mutate") << " block=" << config.block_size
         << " word=" << config.word_len << " min-score=" << config.min_score
         << " xdrop=" << config.xdrop << " ranks=" << lc.nranks
         << " style=" << opts.str("style")
         << " scheduler=" << sched::policy_name(config.scheduler);
      checkpointer.open(fp.str());
      config.checkpointer = &checkpointer;
      lc.checkpointing = true;
    }
    const bool want_report = opts.flag("report") || !opts.str("report-json").empty();
    std::unique_ptr<trace::Recorder> recorder;
    if (!opts.str("trace").empty() || want_report) {
      const bool full = want_report;
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

    mrgraph::GraphStats stats;
    const rt::LaunchResult run = rt::launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      mrgraph::GraphStats local = mrgraph::build_graph_mr(comm, config);
      if (rank.rank() == 0) stats = std::move(local);
    });

    std::printf("sequences %zu  blocks of %zu  ranks %d (%s)\n",
                config.sequences.size(), config.block_size, lc.nranks,
                rt::backend_name(lc.backend));
    std::printf("pairs %llu  vertices %llu  edges %llu  checksum %016llx\n",
                static_cast<unsigned long long>(stats.pairs_compared),
                static_cast<unsigned long long>(stats.vertices),
                static_cast<unsigned long long>(stats.edges),
                static_cast<unsigned long long>(stats.edge_checksum));
    std::printf("shuffle: wire %llu nominal bytes, combiner saved %llu, %llu stages\n",
                static_cast<unsigned long long>(stats.aggregate_bytes_sent),
                static_cast<unsigned long long>(stats.shuffle_combined_bytes),
                static_cast<unsigned long long>(stats.shuffle_stages));
    std::printf("elapsed %.6f %s seconds\n", run.elapsed,
                lc.backend == rt::Backend::Sim ? "virtual" : "wall-clock");

    if (recorder) {
      if (!opts.str("trace").empty()) {
        trace::write_chrome_trace(opts.str("trace"), *recorder);
        std::printf("trace written to %s\n", opts.str("trace").c_str());
      }
      if (want_report) {
        const obs::Report report = obs::analyze(*recorder);
        if (opts.flag("report")) obs::print_report(stdout, report);
        if (!opts.str("report-json").empty()) {
          std::FILE* f = std::fopen(opts.str("report-json").c_str(), "w");
          MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("report-json"));
          obs::write_report_json(f, report, &registry, timeseries.get());
          std::fclose(f);
          std::printf("report JSON written to %s\n", opts.str("report-json").c_str());
        }
      }
    }
    if (!opts.str("timeseries-out").empty()) {
      std::FILE* f = std::fopen(opts.str("timeseries-out").c_str(), "w");
      MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("timeseries-out"));
      timeseries->write_jsonl(f);
      std::fclose(f);
      std::printf("timeseries written to %s\n", opts.str("timeseries-out").c_str());
    }
    if (!opts.str("metrics-out").empty()) {
      std::FILE* f = std::fopen(opts.str("metrics-out").c_str(), "w");
      MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("metrics-out"));
      registry.write_json(f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("metrics written to %s\n", opts.str("metrics-out").c_str());
    }
    return 0;
  } catch (const fault::JobKillSignal& e) {
    MRBIO_LOG(Warn, "mrgraph_build: job killed: ", e.what());
    return 3;
  } catch (const Error& e) {
    // A kill can surface as a secondary error (e.g. the sim engine reports
    // the surviving ranks' deadlock before the kill signal itself).
    if (injector != nullptr && injector->stats().kills_fired > 0) {
      MRBIO_LOG(Warn, "mrgraph_build: job killed: ", e.what(),
                " (restart with --resume to continue)");
      return 3;
    }
    std::fprintf(stderr, "mrgraph_build: %s\n", e.what());
    return 1;
  }
}
