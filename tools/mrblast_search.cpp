// mrblast_search: the MR-MPI BLAST command-line driver. Searches a query
// FASTA against a formatted database on a cluster of MPI ranks — either
// the discrete-event simulator (--backend sim, virtual time) or real
// preemptive threads (--backend native, wall-clock time) — writing
// per-rank tabular hit files exactly as the paper's application does.
// The hit files are byte-identical across backends.
//
//   mrblast_search --query q.fa --db mydb.mal --out results/ [--type prot]
//                  [--evalue 10] [--block 1000] [--tapered] [--locality] ...
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "driver.hpp"
#include "mrblast/mrblast.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  driver::Driver d("mrblast_search", "parallel BLAST over a simulated MPI cluster");
  Options& opts = d.options();
  opts.add("query", "", "query FASTA file (required)");
  opts.add("db", "", "database alias file from mrformatdb, <base>.mal (required)");
  opts.add("out", "mrblast_out", "output directory for per-rank hit files");
  opts.add("type", "nucl", "search type: nucl or prot");
  opts.add("evalue", "10", "E-value cutoff");
  opts.add("max-hits", "500", "max hits kept per query (0 = unlimited)");
  opts.add("block", "1000", "queries per block");
  opts.add("blocks-per-iter", "0",
           "query blocks per MapReduce iteration (0 = all in one); each "
           "iteration is one checkpoint cycle, so smaller values commit "
           "progress more often");
  opts.add_flag("tapered", "use a tapered block schedule (Section V dynamic chunking)");
  opts.add_flag("locality", "use the location-aware scheduler");
  opts.add_flag("no-filter", "disable low-complexity filtering");
  opts.add_flag("exclude-self", "drop hits of shredded fragments on their parent");
  opts.add_flag("trace-full", "with --trace: also record per-message/compute events");
  opts.add("virtual-rate", "auto",
           "sim backend: virtual seconds charged per alignment cell "
           "(query x partition residues), so the virtual timeline reflects "
           "search work and time-triggered faults can fire; 0 disables, "
           "auto = the measured per-cell kernel constant");
  return d.run(argc, argv, [&] {
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
    // The fingerprint ties a checkpoint dir to one run configuration:
    // resuming after changing the inputs or the block schedule would
    // splice incompatible partial outputs, so open() rejects a mismatch.
    std::ostringstream fp;
    fp << "mrblast query=" << opts.str("query") << " db=" << opts.str("db")
       << " ranks=" << d.ranks() << " evalue=" << opts.real("evalue")
       << " max-hits=" << opts.integer("max-hits")
       << " filter=" << config.options.filter_low_complexity
       << " exclude-self=" << config.options.exclude_self_hits
       << " locality=" << config.locality_aware
       << " scheduler=" << sched::policy_name(config.scheduler)
       << " blocks-per-iter=" << config.blocks_per_iteration << " blocks=";
    for (const auto b : config.query_block_sizes) fp << b << ',';
    config.checkpointer = d.prepare(config.scheduler, config.map_style, config.ft, fp.str());
    if (!d.resuming()) std::filesystem::remove_all(config.output_dir);

    std::uint64_t total = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> files(static_cast<std::size_t>(d.ranks()));
    const rt::LaunchResult run = d.launch(
        [&](rt::Rank& rank) {
          mpi::Comm comm(rank);
          const auto result = mrblast::run_blast_mr(comm, config);
          files[static_cast<std::size_t>(rank.rank())] = result.output_file;
          if (rank.rank() == 0) {
            total = result.total_hsps;
            failed = result.failed_tasks;
          }
        },
        opts.flag("trace-full"));

    std::printf("searched %zu queries (%zu blocks) x %zu partitions on %d %s ranks\n",
                index.num_records(), config.query_block_sizes.size(),
                db.volume_paths.size(), d.ranks(), rt::backend_name(d.backend()));
    std::printf("%llu HSPs in %.3f %s seconds; output files:\n",
                static_cast<unsigned long long>(total), run.elapsed, d.clock());
    for (const auto& f : files) {
      if (!f.empty()) std::printf("  %s\n", f.c_str());
    }
    d.finish(failed);
  });
}
