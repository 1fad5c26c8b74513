#include "mrblast/mrblast.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "ckpt/ckpt.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace mrbio::mrblast {

namespace {

/// Rank-local cache of the most recently used DB partition, reproducing
/// the paper's "DB object is cached between map() invocations on a given
/// rank, and only re-initialized if the different DB partition is
/// required".
struct PartitionCache {
  std::int64_t current = -1;
  std::shared_ptr<const blast::DbVolume> volume;
  std::uint64_t loads = 0;

  const blast::DbVolume& get(const std::vector<std::string>& paths, std::uint64_t p) {
    if (current != static_cast<std::int64_t>(p)) {
      volume = std::make_shared<blast::DbVolume>(
          blast::DbVolume::load(paths.at(static_cast<std::size_t>(p))));
      current = static_cast<std::int64_t>(p);
      ++loads;
    }
    return *volume;
  }
};

/// Bytewise-sorted copy of a group's value spans. Grouping preserves
/// emission order, which on the native backend depends on task-assignment
/// timing; reduces that must produce backend-identical output iterate
/// values in this canonical order instead.
std::vector<std::span<const std::byte>> canonicalize_values(const mrmpi::KmvGroup& group) {
  std::vector<std::span<const std::byte>> values(group.values.begin(), group.values.end());
  std::sort(values.begin(), values.end(),
            [](std::span<const std::byte> a, std::span<const std::byte> b) {
              return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                  b.end());
            });
  return values;
}

}  // namespace

RealRunResult run_blast_mr(mpi::Comm& comm, const RealRunConfig& config) {
  MRBIO_REQUIRE(!config.partition_paths.empty(), "no database partitions");
  const bool indexed_input = !config.query_fasta.empty();
  MRBIO_REQUIRE(config.query_blocks.empty() || !indexed_input,
                "provide either query_blocks or query_fasta, not both");

  // In indexed mode each rank builds its own offset index (the paper's
  // "index of sequence offsets in the input FASTA file") and fetches only
  // the block a work unit names.
  std::unique_ptr<blast::FastaIndex> index;
  std::vector<std::size_t> block_starts;   // first record of each block
  std::vector<std::size_t> block_counts;   // records in each block, clamped
  if (indexed_input) {
    MRBIO_REQUIRE(!config.query_block_sizes.empty(),
                  "indexed-FASTA input needs query_block_sizes");
    index = std::make_unique<blast::FastaIndex>(config.query_fasta, config.options.type);
    // The schedule must start every block inside the index and cover every
    // record; only the final block may nominally over-run, and its count is
    // clamped so read_range never walks past the end.
    std::size_t cursor = 0;
    for (const std::uint64_t b : config.query_block_sizes) {
      MRBIO_REQUIRE(cursor < index->num_records(), "block schedule overruns the index: a block starts at record ",
                    cursor, " but the FASTA has only ", index->num_records(), " records");
      block_starts.push_back(cursor);
      block_counts.push_back(static_cast<std::size_t>(
          std::min<std::uint64_t>(b, index->num_records() - cursor)));
      cursor += static_cast<std::size_t>(b);
    }
    MRBIO_REQUIRE(cursor >= index->num_records(), "block schedule covers only ", cursor,
                  " of ", index->num_records(), " records");
  }
  const std::uint64_t nblocks =
      indexed_input ? config.query_block_sizes.size() : config.query_blocks.size();
  const std::uint64_t nparts = config.partition_paths.size();

  auto load_block = [&](std::uint64_t block) -> std::vector<blast::Sequence> {
    if (indexed_input) {
      return index->read_range(block_starts[static_cast<std::size_t>(block)],
                               block_counts[static_cast<std::size_t>(block)]);
    }
    return config.query_blocks[static_cast<std::size_t>(block)];
  };

  // Whole-database statistics for the partition searches, as in the paper.
  blast::SearchOptions options = config.options;
  if (options.effective_db_length == 0) {
    std::uint64_t total_len = 0;
    std::uint64_t total_seqs = 0;
    for (const auto& path : config.partition_paths) {
      const auto vol = blast::DbVolume::load(path);
      total_len += vol.residues();
      total_seqs += vol.num_seqs();
    }
    options.effective_db_length = total_len;
    options.effective_db_seqs = total_seqs;
  }

  RealRunResult result;
  PartitionCache cache;
  std::ofstream out;

  mrmpi::MapReduceConfig mr_config;
  mr_config.map_style = config.map_style;
  mr_config.scheduler = config.scheduler;
  mr_config.ft = config.ft;
  if (config.memsize_bytes != 0) mr_config.memsize_bytes = config.memsize_bytes;
  if (config.page_bytes != 0) mr_config.page_bytes = config.page_bytes;
  mr_config.page_to_disk = config.page_to_disk;
  ckpt::Checkpointer* cp = config.checkpointer;
  const bool ckpt_on = cp != nullptr && cp->enabled();
  mr_config.checkpointer = ckpt_on ? cp : nullptr;
  mrmpi::MapReduce mr(comm, mr_config);

  const std::size_t blocks_per_iter =
      config.blocks_per_iteration == 0 ? nblocks : config.blocks_per_iteration;

  // ---- resume handshake ----
  // The newest intact ledger record holds, per rank, the committed
  // hit-file size and cumulative HSP count at the end of its cycle. Each
  // rank checks its own file against the record and the ranks agree (by
  // all-reduce) whether to continue from the record — truncating each hit
  // file to the committed prefix — or, if anything is off, to degrade to
  // a fresh run with a warning. Uncommitted bytes from the killed run's
  // last open cycle are cut off by the truncation; its tasks re-run.
  const std::string hit_path =
      config.output_dir + "/hits." + std::to_string(comm.rank()) + ".tsv";
  std::uint64_t first_cycle = 0;
  bool append_output = false;
  if (ckpt_on) {
    std::uint64_t rec_cycle = 0;
    std::vector<std::uint64_t> sizes;
    std::vector<std::uint64_t> hsps;
    bool have = false;
    const auto& records = cp->ledger_records();
    if (cp->resuming() && !records.empty()) {
      try {
        ByteReader r(records.back());
        rec_cycle = r.get<std::uint64_t>();
        const auto np = r.get<std::uint64_t>();
        if (np == static_cast<std::uint64_t>(comm.size())) {
          for (std::uint64_t i = 0; i < np; ++i) {
            sizes.push_back(r.get<std::uint64_t>());
            hsps.push_back(r.get<std::uint64_t>());
          }
          have = r.done();
        }
      } catch (const Error&) {
        have = false;
      }
    }
    std::uint64_t ok = have ? 1 : 0;
    const auto rank_idx = static_cast<std::size_t>(comm.rank());
    if (have && sizes[rank_idx] > 0) {
      std::error_code ec;
      const auto sz = std::filesystem::file_size(hit_path, ec);
      if (ec || sz < sizes[rank_idx]) ok = 0;
    }
    ok = comm.allreduce_scalar(ok, mpi::ReduceOp::Min);
    if (ok == 1) {
      first_cycle = rec_cycle + 1;
      result.total_hsps = hsps[rank_idx];  // rank-local; summed at the end
      if (sizes[rank_idx] > 0) {
        std::filesystem::resize_file(hit_path, sizes[rank_idx]);
        append_output = true;
        result.output_file = hit_path;
      }
      if (comm.rank() == 0) {
        MRBIO_LOG(Info, "checkpoint: resuming after cycle ", rec_cycle, " (",
                  first_cycle * blocks_per_iter, " of ", nblocks,
                  " query blocks already committed)");
      }
    } else {
      std::error_code ec;
      std::filesystem::remove(hit_path, ec);
      if (comm.rank() == 0 && cp->resuming()) {
        if (records.empty()) {
          MRBIO_LOG(Info,
                    "checkpoint: no committed cycle yet; starting from the "
                    "first block (map-log replay still skips finished tasks)");
        } else {
          MRBIO_LOG(Warn,
                    "checkpoint: unusable cycle record (corrupt ledger or "
                    "missing hit files); re-running from the first block");
        }
      }
    }
  }

  std::uint64_t cycle_idx = 0;
  for (std::uint64_t first_block = 0; first_block < nblocks;
       first_block += blocks_per_iter, ++cycle_idx) {
    if (ckpt_on && cycle_idx < first_cycle) continue;  // committed in a prior run
    if (ckpt_on) cp->begin_cycle(comm.rank(), cycle_idx);
    const std::uint64_t iter_blocks = std::min<std::uint64_t>(blocks_per_iter,
                                                              nblocks - first_block);
    const std::uint64_t units = iter_blocks * nparts;

    const auto map_fn = [&](std::uint64_t unit, mrmpi::KeyValue& kv) {
      const std::uint64_t block = first_block + unit / nparts;
      const std::uint64_t part = unit % nparts;
      trace::Recorder* rec = comm.tracer();
      const bool fresh_load = cache.current != static_cast<std::int64_t>(part);
      const double t_load = comm.now();
      const blast::DbVolume& vol = cache.get(config.partition_paths, part);
      if (rec != nullptr && fresh_load) {
        rec->add(comm.rank(), trace::Category::Io, "db_load", t_load, comm.now(), 0,
                 vol.residues());
      }
      obs::Registry* reg = comm.metrics();
      if (reg != nullptr && fresh_load) {
        reg->counter("blast.db_loads").inc();
        reg->histogram("blast.db_load_seconds").observe(comm.now() - t_load);
      }
      // The searcher is lightweight relative to the volume; constructing it
      // per unit mirrors re-initializing the query object per map() call.
      auto shared_vol = cache.volume;
      blast::BlastSearcher searcher(shared_vol, options);
      const double t_search = comm.now();
      const auto& block_queries = load_block(block);
      const auto results = searcher.search(block_queries);
      if (config.virtual_seconds_per_cell > 0.0) {
        std::uint64_t query_residues = 0;
        for (const auto& q : block_queries) query_residues += q.length();
        comm.compute(config.virtual_seconds_per_cell *
                     static_cast<double>(query_residues) *
                     static_cast<double>(vol.residues()));
      }
      if (rec != nullptr) {
        rec->add(comm.rank(), trace::Category::App, "search", t_search, comm.now());
      }
      if (reg != nullptr) {
        reg->histogram("blast.search_seconds").observe(comm.now() - t_search);
        const blast::SearchStats& st = searcher.last_stats();
        reg->counter("blast.word_hits").inc(st.word_hits);
        reg->counter("blast.ungapped_extensions").inc(st.ungapped_extensions);
        reg->counter("blast.gapped_extensions").inc(st.gapped_extensions);
        reg->counter("blast.hsps_reported").inc(st.hsps_reported);
      }
      for (const auto& qr : results) {
        for (const auto& hsp : qr.hsps) {
          ByteWriter w;
          hsp.serialize(w);
          const auto payload = w.take();
          kv.add(std::as_bytes(std::span(qr.query_id.data(), qr.query_id.size())),
                 payload);
        }
      }
      (void)vol;
    };
    const bool master_sched =
        config.scheduler == sched::Policy::Master ||
        config.scheduler == sched::Policy::MasterFt ||
        (config.scheduler == sched::Policy::Auto &&
         config.map_style == mrmpi::MapStyle::MasterWorker);
    if (config.locality_aware && master_sched) {
      mr.map_locality(units, [&](std::uint64_t unit) { return unit % nparts; }, map_fn);
    } else {
      mr.map(units, map_fn);
    }
    // Every rank counts: steal-ft records a failure on its shard's owner.
    result.failed_tasks += mr.failed_tasks().size();

    // collate(), with a key sort in between: master-worker scheduling on the
    // native backend assigns tasks in arrival order, so aggregated pairs
    // land in backend-dependent order. Sorting keys before grouping makes
    // group order — and therefore output-file line order — identical on
    // every backend; canonicalize_values does the same within a group.
    mr.aggregate();
    mr.sort_keys();
    mr.convert();

    mr.reduce([&](const mrmpi::KmvGroup& group, mrmpi::KeyValue&) {
      const std::string query_id(reinterpret_cast<const char*>(group.key.data()),
                                 group.key.size());
      std::vector<blast::Hsp> hsps;
      hsps.reserve(group.values.size());
      for (const auto& value : canonicalize_values(group)) {
        ByteReader r(value);
        hsps.push_back(blast::Hsp::deserialize(r));
      }
      blast::sort_and_truncate(hsps, options.max_hits_per_query);
      if (!out.is_open()) {
        std::filesystem::create_directories(config.output_dir);
        result.output_file = hit_path;
        // Truncate on the first open of this run: appending would silently
        // concatenate stale hits from a previous run into the same dir.
        // Exception: a resumed run continues the committed prefix the
        // handshake above truncated the file back to.
        out.open(result.output_file, append_output ? std::ios::app : std::ios::trunc);
        MRBIO_REQUIRE(out.good(), "cannot open output file ", result.output_file);
      }
      for (const auto& hsp : hsps) {
        out << blast::to_tabular(query_id, hsp) << "\n";
      }
      result.total_hsps += hsps.size();
    });

    // ---- cycle commit ----
    // Flush the hit files, gather each rank's (file size, cumulative HSPs)
    // to rank 0 and append one ledger record. Only after the record is
    // durable is the cycle's map log disposable: a kill between these
    // steps re-runs the cycle on resume, and the handshake's truncation
    // discards whatever the killed cycle had already written to the files.
    if (ckpt_on) {
      if (out.is_open()) out.flush();
      std::uint64_t my_size = 0;
      {
        std::error_code ec;
        const auto sz = std::filesystem::file_size(hit_path, ec);
        if (!ec) my_size = sz;
      }
      ByteWriter w;
      w.put<std::uint64_t>(my_size);
      w.put<std::uint64_t>(result.total_hsps);
      const auto all = comm.gather_bytes(w.take(), 0);
      if (comm.rank() == 0) {
        const double t0 = comm.now();
        ByteWriter lw;
        lw.put<std::uint64_t>(cycle_idx);
        lw.put<std::uint64_t>(static_cast<std::uint64_t>(comm.size()));
        for (const auto& buf : all) {
          ByteReader r(buf);
          lw.put<std::uint64_t>(r.get<std::uint64_t>());
          lw.put<std::uint64_t>(r.get<std::uint64_t>());
        }
        const auto payload = lw.take();
        cp->append_cycle_record(payload);
        comm.compute(static_cast<double>(payload.size()) * cp->config().byte_seconds);
        if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
          rec->add(comm.rank(), trace::Category::Io, "ckpt_write", t0, comm.now(), 1,
                   payload.size());
        }
      }
      cp->remove_map_log(comm.rank(), cycle_idx);
    }
  }
  if (out.is_open()) out.flush();

  result.total_hsps = comm.allreduce_scalar(result.total_hsps, mpi::ReduceOp::Sum);
  result.failed_tasks = comm.allreduce_scalar(result.failed_tasks, mpi::ReduceOp::Sum);
  result.local_map_tasks = mr.stats().map_tasks_run;
  result.db_loads = cache.loads;
  return result;
}

BlastxRunResult run_blastx_mr(mpi::Comm& comm, const BlastxRunConfig& config) {
  MRBIO_REQUIRE(!config.partition_paths.empty(), "no database partitions");
  MRBIO_REQUIRE(config.options.type == blast::SeqType::Protein,
                "blastx needs protein search options");
  const std::uint64_t nblocks = config.query_blocks.size();
  const std::uint64_t nparts = config.partition_paths.size();

  // Whole-database statistics, as in the nucleotide driver.
  blast::SearchOptions options = config.options;
  if (options.effective_db_length == 0) {
    std::uint64_t total_len = 0;
    std::uint64_t total_seqs = 0;
    for (const auto& path : config.partition_paths) {
      const auto vol = blast::DbVolume::load(path);
      total_len += vol.residues();
      total_seqs += vol.num_seqs();
    }
    options.effective_db_length = total_len;
    options.effective_db_seqs = total_seqs;
  }

  BlastxRunResult result;
  PartitionCache cache;
  std::ofstream out;

  mrmpi::MapReduceConfig mr_config;
  mr_config.map_style = config.map_style;
  mr_config.scheduler = config.scheduler;
  mr_config.ft = config.ft;
  mrmpi::MapReduce mr(comm, mr_config);

  mr.map(nblocks * nparts, [&](std::uint64_t unit, mrmpi::KeyValue& kv) {
    const std::uint64_t block = unit / nparts;
    const std::uint64_t part = unit % nparts;
    trace::Recorder* rec = comm.tracer();
    const bool fresh_load = cache.current != static_cast<std::int64_t>(part);
    const double t_load = comm.now();
    cache.get(config.partition_paths, part);
    if (rec != nullptr && fresh_load) {
      rec->add(comm.rank(), trace::Category::Io, "db_load", t_load, comm.now(), 0,
               cache.volume->residues());
    }
    obs::Registry* reg = comm.metrics();
    if (reg != nullptr && fresh_load) {
      reg->counter("blast.db_loads").inc();
      reg->histogram("blast.db_load_seconds").observe(comm.now() - t_load);
    }
    const double t_search = comm.now();
    const auto results = blast::blastx_search(
        cache.volume, config.query_blocks[static_cast<std::size_t>(block)], options);
    if (rec != nullptr) {
      rec->add(comm.rank(), trace::Category::App, "search", t_search, comm.now());
    }
    if (reg != nullptr) {
      reg->histogram("blast.search_seconds").observe(comm.now() - t_search);
    }
    for (const auto& qr : results) {
      for (const auto& bx : qr.hsps) {
        ByteWriter w;
        w.put<std::int32_t>(bx.frame);
        w.put(bx.q_dna_start);
        w.put(bx.q_dna_end);
        bx.protein.serialize(w);
        const auto payload = w.take();
        kv.add(std::as_bytes(std::span(qr.query_id.data(), qr.query_id.size())), payload);
      }
    }
  });

  result.failed_tasks = mr.failed_tasks().size();

  // As in run_blast_mr: sorted keys + canonical value order make the
  // output independent of the backend's task-assignment order.
  mr.aggregate();
  mr.sort_keys();
  mr.convert();

  mr.reduce([&](const mrmpi::KmvGroup& group, mrmpi::KeyValue&) {
    const std::string query_id(reinterpret_cast<const char*>(group.key.data()),
                               group.key.size());
    std::vector<blast::BlastxHsp> hsps;
    hsps.reserve(group.values.size());
    for (const auto& value : canonicalize_values(group)) {
      ByteReader r(value);
      blast::BlastxHsp bx;
      bx.frame = r.get<std::int32_t>();
      bx.q_dna_start = r.get<std::uint64_t>();
      bx.q_dna_end = r.get<std::uint64_t>();
      bx.protein = blast::Hsp::deserialize(r);
      hsps.push_back(std::move(bx));
    }
    std::sort(hsps.begin(), hsps.end(), [](const auto& a, const auto& b) {
      return blast::hsp_better(a.protein, b.protein);
    });
    if (options.max_hits_per_query > 0 && hsps.size() > options.max_hits_per_query) {
      hsps.resize(options.max_hits_per_query);
    }
    if (!out.is_open()) {
      std::filesystem::create_directories(config.output_dir);
      result.output_file =
          config.output_dir + "/blastx." + std::to_string(comm.rank()) + ".tsv";
      // Truncate on the first open of this run (see run_blast_mr).
      out.open(result.output_file, std::ios::trunc);
      MRBIO_REQUIRE(out.good(), "cannot open output file ", result.output_file);
    }
    for (const auto& bx : hsps) {
      out << query_id << '\t' << bx.frame << '\t' << bx.q_dna_start << '\t' << bx.q_dna_end
          << '\t' << blast::to_tabular(query_id, bx.protein) << "\n";
    }
    result.total_hsps += hsps.size();
  });
  if (out.is_open()) out.flush();

  result.total_hsps = comm.allreduce_scalar(result.total_hsps, mpi::ReduceOp::Sum);
  result.failed_tasks = comm.allreduce_scalar(result.failed_tasks, mpi::ReduceOp::Sum);
  return result;
}

SimRunStats run_blast_sim(mpi::Comm& comm, const SimRunConfig& config) {
  const workload::BlastWorkload wl(config.workload);
  const std::uint64_t nblocks = wl.num_blocks();
  const std::uint64_t nparts = config.workload.db_partitions;

  SimRunStats stats;
  std::int64_t current_partition = -1;

  mrmpi::MapReduceConfig mr_config;
  mr_config.map_style = config.map_style;
  mr_config.scheduler = config.scheduler;
  mr_config.ft = config.ft;
  mrmpi::MapReduce mr(comm, mr_config);

  const std::size_t blocks_per_iter =
      config.blocks_per_iteration == 0 ? nblocks : config.blocks_per_iteration;

  for (std::uint64_t first_block = 0; first_block < nblocks;
       first_block += blocks_per_iter) {
    const std::uint64_t iter_blocks = std::min<std::uint64_t>(blocks_per_iter,
                                                              nblocks - first_block);
    const std::uint64_t units = iter_blocks * nparts;

    const auto map_fn = [&](std::uint64_t iter_unit, mrmpi::KeyValue& kv) {
      const std::uint64_t unit = first_block * nparts + iter_unit;
      const std::uint64_t part = wl.partition_of(unit);
      trace::Recorder* rec = comm.tracer();
      // Partition switch: pay the (cold or warm) load, which is I/O, not
      // useful compute.
      obs::Registry* reg = comm.metrics();
      if (current_partition != static_cast<std::int64_t>(part)) {
        const double t_load = comm.now();
        const double load = wl.load_seconds(unit, comm.rank(), comm.size());
        comm.compute(load);
        stats.load_seconds += load;
        current_partition = static_cast<std::int64_t>(part);
        ++stats.db_loads;
        if (rec != nullptr) {
          rec->add(comm.rank(), trace::Category::Io, "db_load", t_load, comm.now());
        }
        if (reg != nullptr) {
          reg->counter("blast.db_loads").inc();
          reg->histogram("blast.db_load_seconds").observe(comm.now() - t_load);
        }
      }
      const double cost = wl.unit_compute_seconds(unit);
      const double t0 = comm.now();
      comm.compute(cost);
      stats.compute_seconds += cost;
      if (config.tracker != nullptr) config.tracker->add(comm.rank(), t0, comm.now());
      // The App span covers exactly the tracker's interval, so trace-based
      // utilization reproduces the legacy Fig. 5 numbers.
      if (rec != nullptr) {
        rec->add(comm.rank(), trace::Category::App, "search", t0, comm.now());
      }
      if (reg != nullptr) {
        reg->histogram("blast.search_seconds").observe(comm.now() - t0);
      }

      // One token KV per work unit keyed by query block; its nominal size
      // is the real hit payload the unit would have produced.
      const std::string key = "block" + std::to_string(wl.block_of(unit));
      kv.add(std::as_bytes(std::span(key.data(), key.size())), {},
             wl.unit_hit_bytes(unit));
    };
    const bool master_sched =
        config.scheduler == sched::Policy::Master ||
        config.scheduler == sched::Policy::MasterFt ||
        (config.scheduler == sched::Policy::Auto &&
         config.map_style == mrmpi::MapStyle::MasterWorker);
    if (config.locality_aware && master_sched) {
      mr.map_locality(
          units, [&](std::uint64_t iter_unit) { return iter_unit % nparts; }, map_fn);
    } else {
      mr.map(units, map_fn);
    }
    stats.failed_tasks += mr.failed_tasks().size();

    mr.collate();

    mr.reduce([&](const mrmpi::KmvGroup& group, mrmpi::KeyValue&) {
      const std::uint64_t hits = group.nominal_bytes / config.workload.bytes_per_hit;
      stats.total_hits += hits;
      comm.compute(static_cast<double>(hits) * config.reduce_seconds_per_hit);
    });
  }

  // Reduce every field so all ranks return job-wide statistics; before this
  // the per-rank seconds/loads were rank-local and benches reported one
  // rank's I/O as if it were the whole job's. All fields ride one combined
  // allreduce whose nominal message sizes match the original hit-count
  // allreduce_scalar (16-byte reduce / 8-byte bcast messages), so the
  // richer statistics do not perturb the modeled virtual times.
  stats.max_rank_compute_seconds = stats.compute_seconds;
  stats.max_rank_load_seconds = stats.load_seconds;
  comm.allreduce_custom(
      stats,
      [](SimRunStats& a, const SimRunStats& b) {
        a.total_hits += b.total_hits;
        a.db_loads += b.db_loads;
        a.compute_seconds += b.compute_seconds;
        a.load_seconds += b.load_seconds;
        a.failed_tasks += b.failed_tasks;
        a.max_rank_compute_seconds =
            std::max(a.max_rank_compute_seconds, b.max_rank_compute_seconds);
        a.max_rank_load_seconds =
            std::max(a.max_rank_load_seconds, b.max_rank_load_seconds);
      },
      /*nominal_reduce_bytes=*/16, /*nominal_bcast_bytes=*/8);
  return stats;
}

}  // namespace mrbio::mrblast
