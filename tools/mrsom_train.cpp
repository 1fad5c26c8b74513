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
#include <cstdio>

#include "blast/composition.hpp"
#include "blast/sequence.hpp"
#include "common/image.hpp"
#include "common/mmap_file.hpp"
#include "driver.hpp"
#include "mrsom/mrsom.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  driver::Driver d("mrsom_train", "parallel batch SOM training");
  Options& opts = d.options();
  opts.add("matrix", "", "raw float32 row-major matrix file (use with --dim)");
  opts.add("dim", "0", "columns of the raw matrix");
  opts.add("fasta", "", "alternative input: FASTA file, one vector per sequence");
  opts.add_flag("tetra", "with --fasta: use tetranucleotide (256-D) composition");
  opts.add("rows", "50", "SOM grid rows");
  opts.add("cols", "50", "SOM grid columns");
  opts.add("epochs", "10", "training epochs");
  opts.add("block", "40", "input vectors per work unit");
  opts.add("style", "chunk", "map style: chunk (deterministic) or master (load-balanced)");
  opts.add_flag("deterministic",
                "with a dynamic scheduler: schedule-independent reduction, so "
                "the codebook bytes match a fault-tolerant (--faults) run");
  opts.add("init", "pca", "codebook initialization: pca or random");
  opts.add("seed", "2011", "random seed");
  opts.add("out", "mrsom", "output prefix");
  opts.add("planes", "0", "write the first N component planes as PGM images");
  opts.add_flag("trace-full", "with --trace: also record per-message/compute events");
  return d.run(argc, argv, [&] {
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
    // Fingerprint: a checkpoint dir is bound to one training configuration
    // and one block record format; resuming with different inputs,
    // hyper-parameters or map-log records is rejected.
    const std::string fp = format_msg(
        "mrsom input=", opts.str("matrix").empty() ? opts.str("fasta") : opts.str("matrix"),
        " rows=", view.rows(), " dim=", view.cols(),
        " grid=", opts.integer("rows"), 'x', opts.integer("cols"),
        " epochs=", opts.integer("epochs"), " block=", opts.integer("block"),
        " ranks=", d.ranks(), " style=", opts.str("style"),
        " scheduler=", sched::policy_name(config.scheduler),
        " deterministic=", config.deterministic_reduce,
        " init=", opts.str("init"), " seed=", opts.integer("seed"),
        " records=", mrsom::kBlockRecordFormat);
    // ft.enabled also forces the deterministic KV reduce path.
    config.checkpointer = d.prepare(config.scheduler, config.map_style, config.ft, fp);

    som::Codebook cb;
    const rt::LaunchResult run = d.launch(
        [&](rt::Rank& rank) {
          mpi::Comm comm(rank);
          som::Codebook trained = mrsom::train_som_mr(comm, view, initial, config);
          if (rank.rank() == 0) cb = std::move(trained);
        },
        opts.flag("trace-full"));
    std::printf("trained on %d %s ranks in %.3f %s seconds\n", d.ranks(),
                rt::backend_name(d.backend()), run.elapsed, d.clock());

    const std::string prefix = opts.str("out");
    som::save_codebook(prefix + ".cb", cb);
    write_pgm(prefix + "_umatrix.pgm", som::u_matrix(cb).view());
    const auto planes = std::min<std::size_t>(
        static_cast<std::size_t>(opts.integer("planes")), cb.dim());
    for (std::size_t p = 0; p < planes; ++p) {
      write_pgm(prefix + "_plane" + std::to_string(p) + ".pgm",
                som::component_plane(cb, p).view());
    }
    std::printf("codebook: %s.cb   u-matrix: %s_umatrix.pgm\n", prefix.c_str(),
                prefix.c_str());
    std::printf("quantization error %.6f   topographic error %.4f\n",
                som::quantization_error(cb, view), som::topographic_error(cb, view));
    d.finish();
  });
}
