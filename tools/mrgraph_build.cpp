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

#include "blast/sequence.hpp"
#include "common/rng.hpp"
#include "driver.hpp"
#include "mrgraph/mrgraph.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  driver::Driver d("mrgraph_build", "all-vs-all similarity graph over MapReduce");
  Options& opts = d.options();
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
  opts.add("style", "chunk", "map style: chunk or master");
  opts.add_flag("combiner", "pre-aggregate same-key pairs per destination");
  opts.add("exchange", "flat", "exchange algorithm: flat or tree");
  opts.add("radix", "2", "tree exchange radix (>= 2)");
  opts.add_flag("compress", "varint/RLE-compress shuffle payloads and spill pages");
  opts.add_flag("overlap-spill", "overlap post-exchange spill I/O with the exchange");
  opts.add("compute-cell", "0", "virtual seconds per alignment cell (sim timeline)");
  opts.add("memsize", "0", "KV memory budget in bytes (0 = default)");
  opts.add_flag("page-to-disk", "page KV stores to spill files");
  opts.add("out-dir", "", "write per-rank edge files here (empty = none)");
  return d.run(argc, argv, [&] {
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
          ancestor = blast::random_sequence(rng, format_msg("f", i), seqlen,
                                            blast::SeqType::Dna);
        }
        config.sequences.push_back(blast::mutate(rng, ancestor, format_msg("s", i),
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

    // Fingerprint: a checkpoint dir is bound to one graph configuration;
    // resuming with different inputs or cut-offs is rejected.
    const std::string fp = format_msg(
        "mrgraph input=", opts.str("fasta").empty() ? "synthetic" : opts.str("fasta"),
        " nseq=", config.sequences.size(), " seed=", opts.integer("seed"),
        " mutate=", opts.real("mutate"), " block=", config.block_size,
        " word=", config.word_len, " min-score=", config.min_score,
        " xdrop=", config.xdrop, " ranks=", d.ranks(), " style=", opts.str("style"),
        " scheduler=", sched::policy_name(config.scheduler));
    config.checkpointer = d.prepare(config.scheduler, config.map_style, config.ft, fp);

    mrgraph::GraphStats stats;
    const rt::LaunchResult run = d.launch([&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      mrgraph::GraphStats local = mrgraph::build_graph_mr(comm, config);
      if (rank.rank() == 0) stats = std::move(local);
    });

    std::printf("sequences %zu  blocks of %zu  ranks %d (%s)\n",
                config.sequences.size(), config.block_size, d.ranks(),
                rt::backend_name(d.backend()));
    std::printf("pairs %llu  vertices %llu  edges %llu  checksum %016llx\n",
                static_cast<unsigned long long>(stats.pairs_compared),
                static_cast<unsigned long long>(stats.vertices),
                static_cast<unsigned long long>(stats.edges),
                static_cast<unsigned long long>(stats.edge_checksum));
    std::printf("shuffle: wire %llu nominal bytes, combiner saved %llu, %llu stages\n",
                static_cast<unsigned long long>(stats.aggregate_bytes_sent),
                static_cast<unsigned long long>(stats.shuffle_combined_bytes),
                static_cast<unsigned long long>(stats.shuffle_stages));
    std::printf("elapsed %.6f %s seconds\n", run.elapsed, d.clock());
    d.finish();
  });
}
