#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>

#include "blast/alphabet.hpp"
#include "blast/dbformat.hpp"
#include "blast/fasta_index.hpp"
#include "blast/filter.hpp"
#include "blast/lookup.hpp"
#include "blast/search.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "mrblast/mrblast.hpp"
#include "mrgraph/mrgraph.hpp"
#include "mrsom/mrsom.hpp"
#include "som/som.hpp"

namespace perfbench {
namespace {

using namespace mrbio;
namespace fs = std::filesystem;

/// FNV-1a; summed over lines or records it gives an order-independent digest.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  MRBIO_REQUIRE(out.good(), "cannot reset the peak RSS through /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw Error("no VmHWM line in /proc/self/status");
}

/// Runs `body` on every rank through rt::launch and stores in `out` the
/// launch result and what that call alone took: wall time, CPU time, page
/// faults and peak RSS.
void measured_launch(const rt::LaunchConfig& lc, const std::function<void(rt::Rank&)>& body,
                     LaunchOutput& out) {
  reset_peak_rss();
  const Usage u0 = usage_now();
  const auto t0 = SteadyClock::now();
  out.launch = rt::launch(lc, body);
  out.wall_s = seconds_since(t0);
  const Usage u1 = usage_now();
  out.peak_rss_mb = peak_rss_mb();
  out.usage = {u1.cpu_s - u0.cpu_s, u1.sys_s - u0.sys_s, u1.minor_faults - u0.minor_faults};
}

// ---------------------------------------------------------------------------
// BLAST: random genomes formatted into DB volumes, searched with reads
// shredded from a subset of them.

constexpr std::size_t kGenomes = 40;
constexpr std::size_t kGenomeLen = 20'000;
constexpr std::uint64_t kVolumeResidues = 100'000;  ///< 8 DB partitions
constexpr std::size_t kReadLen = 300;
constexpr std::size_t kReadOverlap = 100;

struct BlastShape {
  std::size_t query_genomes = kGenomes;  ///< genomes shredded into reads
  std::size_t read_stride = 1;           ///< keep every n-th read
  std::uint64_t block = 200;             ///< reads per query block
  sched::Policy scheduler = sched::Policy::Auto;
  bool fault_tolerant = false;           ///< ft ledger + checkpoint dir
  std::size_t blocks_per_iteration = 0;
};

/// The seeding view of a query block, built as BlastSearcher::search
/// builds it: sentinel-separated masked plus and minus strands.
std::vector<std::uint8_t> masked_concat(const std::vector<blast::Sequence>& queries,
                                        const blast::SearchOptions& options) {
  std::vector<std::uint8_t> concat{blast::kSentinel};
  for (const auto& q : queries) {
    std::vector<std::uint8_t> masked = q.data;
    if (options.filter_low_complexity) {
      masked = blast::apply_mask(q.data, blast::dust_mask(q.data), blast::SeqType::Dna);
    }
    concat.insert(concat.end(), masked.begin(), masked.end());
    concat.push_back(blast::kSentinel);
    if (options.both_strands) {
      const auto rev = blast::reverse_complement(masked);
      concat.insert(concat.end(), rev.begin(), rev.end());
      concat.push_back(blast::kSentinel);
    }
  }
  return concat;
}

/// Order-independent digest of every hit line under `dir`.
std::uint64_t hit_digest(const fs::path& dir) {
  std::uint64_t digest = 0;
  if (!fs::exists(dir)) return digest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) digest += fnv1a(line);
  }
  return digest;
}

class BlastWorkload final : public Workload {
 public:
  explicit BlastWorkload(BlastShape shape) : shape_(shape) {}

  void setup(const fs::path& dir, std::uint64_t seed) override {
    dir_ = dir;
    Rng rng(seed);
    std::vector<blast::Sequence> genomes;
    for (std::size_t i = 0; i < kGenomes; ++i) {
      genomes.push_back(
          blast::random_sequence(rng, format_msg("g", i), kGenomeLen, blast::SeqType::Dna));
    }
    const blast::DbInfo db = blast::build_db(genomes, (dir / "db").string(),
                                             blast::SeqType::Dna, kVolumeResidues);
    genomes.resize(shape_.query_genomes);
    auto fragments = blast::shred(genomes, kReadLen, kReadOverlap);
    std::vector<blast::Sequence> reads;
    for (std::size_t i = 0; i < fragments.size(); i += shape_.read_stride) {
      reads.push_back(std::move(fragments[i]));
    }
    const std::string query_path = (dir / "reads.fa").string();
    blast::write_fasta_file(query_path, reads, blast::SeqType::Dna);
    const blast::FastaIndex index(query_path, blast::SeqType::Dna);

    config_ = mrblast::RealRunConfig{};
    config_.partition_paths = db.volume_paths;
    config_.query_fasta = query_path;
    for (std::size_t done = 0; done < index.num_records(); done += shape_.block) {
      config_.query_block_sizes.push_back(
          std::min<std::uint64_t>(shape_.block, index.num_records() - done));
    }
    config_.output_dir = (dir / "hits").string();
    config_.scheduler = shape_.scheduler;
    config_.ft.enabled = shape_.fault_tolerant;
    config_.blocks_per_iteration = shape_.blocks_per_iteration;
  }

  void reference(Metrics* layers) override {
    const blast::FastaIndex index(config_.query_fasta, blast::SeqType::Dna);
    // Whole-database statistics, as run_blast_mr derives them.
    blast::SearchOptions options = config_.options;
    std::vector<std::shared_ptr<const blast::DbVolume>> volumes;
    double db_load_s = 0.0;
    for (const auto& path : config_.partition_paths) {
      const auto t0 = SteadyClock::now();
      volumes.push_back(std::make_shared<blast::DbVolume>(blast::DbVolume::load(path)));
      db_load_s += seconds_since(t0);
      options.effective_db_length += volumes.back()->residues();
      options.effective_db_seqs += volumes.back()->num_seqs();
    }

    std::map<std::string, std::vector<std::string>> hits;  // query id -> serialized HSPs
    blast::SearchStats totals;
    double lookup_s = 0.0;
    double search_s = 0.0;
    double modeled_s = 0.0;
    std::uint64_t first = 0;
    for (const std::uint64_t count : config_.query_block_sizes) {
      const auto queries = index.read_range(first, count);
      first += count;
      std::uint64_t query_residues = 0;
      for (const auto& q : queries) query_residues += q.length();
      const auto concat = layers != nullptr ? masked_concat(queries, options)
                                            : std::vector<std::uint8_t>{};
      for (const auto& volume : volumes) {
        if (layers != nullptr) {
          const auto t0 = SteadyClock::now();
          const blast::NucLookup lookup(concat, options.word_size);
          lookup_s += seconds_since(t0);
        }
        const blast::BlastSearcher searcher(volume, options);
        const auto t0 = SteadyClock::now();
        const auto results = searcher.search(queries);
        search_s += seconds_since(t0);
        modeled_s += mrblast::kDefaultVirtualSecondsPerCell *
                     static_cast<double>(query_residues) *
                     static_cast<double>(volume->residues());
        const blast::SearchStats& st = searcher.last_stats();
        totals.word_hits += st.word_hits;
        totals.ungapped_extensions += st.ungapped_extensions;
        totals.gapped_extensions += st.gapped_extensions;
        totals.hsps_reported += st.hsps_reported;
        for (const auto& qr : results) {
          for (const auto& hsp : qr.hsps) {
            ByteWriter w;
            hsp.serialize(w);
            const auto bytes = w.bytes();
            hits[qr.query_id].emplace_back(reinterpret_cast<const char*>(bytes.data()),
                                           bytes.size());
          }
        }
      }
    }

    // run_blast_mr's reduce: values in bytewise order, then the top-K cut.
    reference_digest_ = 0;
    for (auto& [query_id, values] : hits) {
      std::sort(values.begin(), values.end());
      std::vector<blast::Hsp> hsps;
      for (const auto& value : values) {
        ByteReader r(std::as_bytes(std::span(value.data(), value.size())));
        hsps.push_back(blast::Hsp::deserialize(r));
      }
      blast::sort_and_truncate(hsps, options.max_hits_per_query);
      for (const auto& hsp : hsps) reference_digest_ += fnv1a(blast::to_tabular(query_id, hsp));
    }

    if (layers == nullptr) return;
    Metrics& m = *layers;
    m["blast.lookup_build_s"] = lookup_s;
    m["blast.search_s"] = search_s;
    m["blast.db_load_s"] = db_load_s;
    m["blast.word_hits"] = static_cast<double>(totals.word_hits);
    m["blast.ungapped_extensions"] = static_cast<double>(totals.ungapped_extensions);
    m["blast.gapped_extensions"] = static_cast<double>(totals.gapped_extensions);
    m["blast.hsps_reported"] = static_cast<double>(totals.hsps_reported);
    m["blast.gapped_yield"] = ratio(static_cast<double>(totals.hsps_reported),
                                    static_cast<double>(totals.gapped_extensions));
    m["blast.model_ratio"] = ratio(search_s, modeled_s);
  }

  LaunchOutput launch(const rt::LaunchConfig& lc) override {
    fs::remove_all(config_.output_dir);
    rt::LaunchConfig run = lc;
    mrblast::RealRunConfig config = config_;
    std::unique_ptr<ckpt::Checkpointer> checkpointer;
    if (shape_.fault_tolerant) {
      ckpt::CheckpointConfig cc;
      cc.dir = (dir_ / "ckpt").string();
      fs::remove_all(cc.dir);
      checkpointer = std::make_unique<ckpt::Checkpointer>(cc);
      checkpointer->open("perfbench blast");
      config.checkpointer = checkpointer.get();
      run.checkpointing = true;
    }
    LaunchOutput out;
    std::uint64_t failed = 0;
    measured_launch(run, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      const auto result = mrblast::run_blast_mr(comm, config);
      if (rank.rank() == 0) failed = result.failed_tasks;
    }, out);
    out.failed_tasks = failed;
    if (checkpointer) {
      out.ckpt = checkpointer->stats();
      checkpointer->cleanup_on_success();
    }
    out.digest = hit_digest(config_.output_dir);
    out.matches_reference = out.digest == reference_digest_;
    return out;
  }

 private:
  BlastShape shape_;
  fs::path dir_;
  mrblast::RealRunConfig config_;
  std::uint64_t reference_digest_ = 0;
};

// ---------------------------------------------------------------------------
// Batch SOM on uniform random vectors.

/// The parallel reduction sums per-rank accumulators in another order than
/// the serial replay. The last-bit differences flip near-tied BMUs, so the
/// codebooks diverge over the epochs; the check against the serial
/// reference is therefore on map quality: the quantization error must agree
/// within this relative tolerance.
constexpr double kSomQeTolerance = 0.01;

class SomWorkload final : public Workload {
 public:
  void setup(const fs::path&, std::uint64_t seed) override {
    Rng rng(seed);
    data_ = Matrix(kVectors, kDim);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_.data()[i] = static_cast<float>(rng.uniform());
    }
    som::SomGrid grid;
    grid.rows = kGridSide;
    grid.cols = kGridSide;
    initial_ = som::Codebook(grid, kDim);
    initial_.init_random(rng);
    config_ = mrsom::ParallelSomConfig{};
    config_.params.epochs = kEpochs;
    config_.block_vectors = kBlock;
    // Static contiguous blocks: each rank accumulates the same vectors in
    // the same order on every launch, so the codebook is byte-identical.
    config_.map_style = mrmpi::MapStyle::Chunk;
  }

  void reference(Metrics* layers) override {
    som::Codebook cb = initial_;
    const som::SomGrid& grid = cb.grid();
    double bmu_s = 0.0;
    double add_s = 0.0;
    double apply_s = 0.0;
    for (std::size_t epoch = 0; epoch < config_.params.epochs; ++epoch) {
      const double sigma = som::sigma_at(config_.params, grid, epoch);
      som::BatchAccumulator acc(grid, cb.dim());
      for (std::size_t r = 0; r < data_.rows(); ++r) {
        const auto x = data_.row(r);
        if (layers != nullptr) {
          const auto t0 = SteadyClock::now();
          som::find_bmu(cb, x);
          bmu_s += seconds_since(t0);
        }
        const auto t0 = SteadyClock::now();
        acc.add(cb, x, sigma, config_.params.kernel);
        add_s += seconds_since(t0);
      }
      const auto t0 = SteadyClock::now();
      acc.apply(cb);
      apply_s += seconds_since(t0);
    }
    reference_qe_ = som::quantization_error(cb, data_.view());
    if (layers == nullptr) return;
    (*layers)["som.bmu_s"] = bmu_s;
    (*layers)["som.add_s"] = add_s;
    (*layers)["som.apply_s"] = apply_s;
  }

  LaunchOutput launch(const rt::LaunchConfig& lc) override {
    som::Codebook trained;
    LaunchOutput out;
    measured_launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      som::Codebook cb = mrsom::train_som_mr(comm, data_.view(), initial_, config_);
      if (rank.rank() == 0) trained = std::move(cb);
    }, out);
    const Matrix& w = trained.weights();
    out.digest = fnv1a({reinterpret_cast<const char*>(w.data()), w.size() * sizeof(float)});
    // The first launch's codebook passes on map quality; every later launch
    // must reproduce its bytes.
    if (!first_digest_) {
      first_digest_ = out.digest;
      const double qe = som::quantization_error(trained, data_.view());
      first_ok_ = std::fabs(qe - reference_qe_) <= kSomQeTolerance * reference_qe_;
    }
    out.matches_reference = first_ok_ && out.digest == *first_digest_;
    return out;
  }

 private:
  static constexpr std::size_t kVectors = 10'240;
  static constexpr std::size_t kDim = 64;
  static constexpr std::size_t kGridSide = 30;
  static constexpr std::size_t kEpochs = 5;
  static constexpr std::size_t kBlock = 40;

  Matrix data_;
  som::Codebook initial_;
  double reference_qe_ = 0.0;
  std::optional<std::uint64_t> first_digest_;  ///< codebook of the first launch
  bool first_ok_ = false;                      ///< its quality check passed
  mrsom::ParallelSomConfig config_;
};

// ---------------------------------------------------------------------------
// All-pairs similarity graph over one family of identical sequences: every
// pair is an edge, so the map emits far more than it computes.

class GraphWorkload final : public Workload {
 public:
  void setup(const fs::path&, std::uint64_t seed) override {
    Rng rng(seed);
    const blast::Sequence ancestor =
        blast::random_sequence(rng, "f0", kLength, blast::SeqType::Dna);
    config_ = mrgraph::GraphConfig{};
    for (std::size_t i = 0; i < kSequences; ++i) {
      blast::Sequence copy = ancestor;
      copy.id = format_msg("s", i);
      config_.sequences.push_back(std::move(copy));
    }
    config_.block_size = kBlock;
    config_.shuffle.combiner = true;
    config_.shuffle.compress = true;
  }

  /// The serial reference is the same job on a single native rank: the
  /// edge checksum is independent of the rank count.
  void reference(Metrics*) override {
    rt::LaunchConfig lc;
    lc.backend = rt::Backend::Native;
    lc.nranks = 1;
    reference_checksum_ = run(lc).digest;
  }

  LaunchOutput launch(const rt::LaunchConfig& lc) override {
    LaunchOutput out = run(lc);
    out.matches_reference = out.digest == reference_checksum_;
    return out;
  }

 private:
  LaunchOutput run(const rt::LaunchConfig& lc) {
    LaunchOutput out;
    measured_launch(lc, [&](rt::Rank& rank) {
      mpi::Comm comm(rank);
      const mrgraph::GraphStats stats = mrgraph::build_graph_mr(comm, config_);
      if (rank.rank() == 0) out.digest = stats.edge_checksum;
    }, out);
    return out;
  }

  static constexpr std::size_t kSequences = 1'024;
  static constexpr std::size_t kLength = 24;
  static constexpr std::size_t kBlock = 64;

  mrgraph::GraphConfig config_;
  std::uint64_t reference_checksum_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "blast_coarse") {
    BlastShape shape;
    shape.query_genomes = 10;
    return std::make_unique<BlastWorkload>(shape);
  }
  if (name == "blast_fine_ft") {
    BlastShape shape;
    shape.query_genomes = 24;
    shape.read_stride = 16;
    shape.block = 25;
    shape.scheduler = sched::Policy::Steal;
    shape.fault_tolerant = true;
    shape.blocks_per_iteration = 2;
    return std::make_unique<BlastWorkload>(shape);
  }
  if (name == "som_batch") return std::make_unique<SomWorkload>();
  if (name == "graph_shuffle") return std::make_unique<GraphWorkload>();
  throw InputError("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
