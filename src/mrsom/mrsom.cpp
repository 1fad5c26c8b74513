#include "mrsom/mrsom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "ckpt/ckpt.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace mrbio::mrsom {

namespace {

/// Big-endian block id, so a lexicographic key sort is a numeric sort.
std::array<std::byte, 8> block_key(std::uint64_t block) {
  std::array<std::byte, 8> key;
  for (std::size_t i = 0; i < 8; ++i) {
    key[i] = static_cast<std::byte>((block >> (56 - 8 * i)) & 0xff);
  }
  return key;
}

std::uint64_t block_of_key(std::span<const std::byte> key) {
  std::uint64_t block = 0;
  for (const std::byte b : key) block = (block << 8) | static_cast<std::uint64_t>(b);
  return block;
}

}  // namespace

std::vector<std::byte> encode_block_sums(const som::BatchAccumulator& block, double qerr) {
  const std::span<const float> counts = block.bmu_counts();
  const std::span<const float> sums = block.bmu_sums();
  const std::size_t dim = sums.size() / counts.size();
  MRBIO_CHECK(counts.size() <= std::numeric_limits<std::uint32_t>::max(),
              "SOM grid too large for a u32 cell id");
  ByteWriter w;
  w.put(qerr);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] <= 0.0f) continue;
    w.put(static_cast<std::uint32_t>(c));
    w.put(static_cast<std::uint32_t>(counts[c]));
    w.append(sums.data() + c * dim, dim * sizeof(float));
  }
  return w.take();
}

double fold_block_sums(som::BatchAccumulator& total, std::span<const std::byte> record,
                       std::uint64_t block, std::size_t inputs, std::size_t epoch) {
  const std::span<float> counts = total.bmu_counts();
  const std::span<float> sums = total.bmu_sums();
  const std::size_t cells = counts.size();
  const std::size_t dim = sums.size() / cells;
  const std::size_t entry = 2 * sizeof(std::uint32_t) + dim * sizeof(float);
  MRBIO_CHECK(record.size() >= sizeof(double) && (record.size() - sizeof(double)) % entry == 0,
              "som block ", block, " in epoch ", epoch, ": record of ", record.size(),
              " bytes is not 8 + k * ", entry);
  const std::size_t k = (record.size() - sizeof(double)) / entry;
  MRBIO_CHECK(k <= inputs, "som block ", block, " in epoch ", epoch, ": ", k,
              " BMU entries for ", inputs, " inputs");

  // Validate every entry before adding any, so a bad record leaves
  // `total` untouched.
  ByteReader check(record.subspan(sizeof(double)));
  std::uint64_t seen = 0;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto cell = check.get<std::uint32_t>();
    const auto n = check.get<std::uint32_t>();
    check.raw(dim * sizeof(float));
    MRBIO_CHECK(cell < cells && (i == 0 || cell > prev), "som block ", block, " in epoch ",
                epoch, ": entry ", i, " has cell ", cell,
                " (cells must ascend strictly below ", cells, ")");
    MRBIO_CHECK(n > 0, "som block ", block, " in epoch ", epoch, ": cell ", cell,
                " has a zero count");
    seen += n;
    prev = cell;
  }
  MRBIO_CHECK(seen == inputs, "som block ", block, " in epoch ", epoch, ": counts sum to ",
              seen, ", not the block's ", inputs, " inputs");

  ByteReader r(record);
  const auto qerr = r.get<double>();
  const simd::Kernels& kern = simd::kernels();
  std::vector<float> sum(dim);
  for (std::size_t i = 0; i < k; ++i) {
    const auto cell = r.get<std::uint32_t>();
    const auto n = r.get<std::uint32_t>();
    std::memcpy(sum.data(), r.raw(dim * sizeof(float)).data(), dim * sizeof(float));
    kern.add_f32(sums.data() + static_cast<std::size_t>(cell) * dim, sum.data(), dim);
    counts[cell] += static_cast<float>(n);
  }
  return qerr;
}

som::Codebook train_som_mr(mpi::Comm& comm, const MatrixView& data,
                           const som::Codebook& initial, const ParallelSomConfig& config) {
  MRBIO_REQUIRE(data.cols() == initial.dim(), "data dimension mismatch");
  MRBIO_REQUIRE(config.block_vectors > 0, "block_vectors must be positive");

  som::Codebook cb = initial;
  const som::SomGrid grid = cb.grid();
  const std::size_t dim = cb.dim();
  const std::size_t cells = grid.cells();
  const std::uint64_t nblocks =
      (data.rows() + config.block_vectors - 1) / config.block_vectors;
  // Rows [first, first + count) of one map block.
  const auto block_rows = [&](std::uint64_t block) {
    const std::size_t first = static_cast<std::size_t>(block) * config.block_vectors;
    return std::pair{first, std::min(config.block_vectors, data.rows() - first)};
  };

  // Crash recovery replays map blocks on other workers, so every block's
  // contribution must travel the exactly-once KV path, not a shared
  // rank-local accumulator.
  const bool deterministic = config.deterministic_reduce || config.ft.enabled ||
                             config.scheduler == sched::Policy::Steal;

  ckpt::Checkpointer* cp = config.checkpointer;
  const bool ckpt_on = cp != nullptr && cp->enabled();

  mrmpi::MapReduceConfig mr_config;
  mr_config.map_style = config.map_style;
  mr_config.scheduler = config.scheduler;
  mr_config.ft = config.ft;
  // Map-log journaling needs every block's output in the KV store; the
  // non-deterministic path accumulates outside it, so there the map log
  // would persist nothing and resume falls back to epoch granularity.
  mr_config.checkpointer = (ckpt_on && deterministic) ? cp : nullptr;
  mrmpi::MapReduce mr(comm, mr_config);

  // One input's BMU scan: a dim-wide distance to every cell. The
  // neighbourhood work is rank 0's, once per epoch (charged at apply).
  const double per_vector_cost =
      config.flop_seconds * static_cast<double>(dim) * static_cast<double>(cells);

  // ---- resume handshake ----
  // The codebook snapshot holds the weights entering epoch `first_epoch`.
  // A missing or corrupt snapshot degrades to epoch 0 with a warning;
  // within the resumed epoch the map log (deterministic path only)
  // restores committed blocks so only the tail re-runs.
  std::size_t first_epoch = 0;
  if (ckpt_on && cp->resuming()) {
    std::uint64_t fe = 0;
    if (comm.rank() == 0) {
      std::vector<std::byte> snap;
      bool ok = false;
      if (cp->load_snapshot("codebook", snap)) {
        try {
          ByteReader r(snap);
          const auto e = r.get<std::uint64_t>();
          const auto sc = r.get<std::uint64_t>();
          const auto sd = r.get<std::uint64_t>();
          if (sc == cells && sd == dim && e <= config.params.epochs) {
            const auto bytes = r.raw(cells * dim * sizeof(float));
            std::memcpy(cb.weights().data(), bytes.data(), bytes.size());
            fe = e;
            ok = r.done();
          }
        } catch (const Error&) {
          ok = false;
        }
      }
      if (ok) {
        MRBIO_LOG(Info, "checkpoint: resuming SOM training at epoch ", fe, " of ",
                  config.params.epochs);
      } else {
        fe = 0;
        MRBIO_LOG(Warn,
                  "checkpoint: no usable codebook snapshot; training from epoch 0");
      }
    }
    comm.bcast_value(fe, 0);
    first_epoch = static_cast<std::size_t>(fe);
  }

  for (std::size_t epoch = first_epoch; epoch < config.params.epochs; ++epoch) {
    if (ckpt_on) cp->begin_cycle(comm.rank(), static_cast<std::uint64_t>(epoch));
    // Fig. 2: "The copy of the codebook is distributed with MPI_Broadcast()
    // from the master to all worker nodes at the start of each epoch."
    std::vector<float> weights(cells * dim);
    if (comm.rank() == 0) {
      std::copy(cb.weights().data(), cb.weights().data() + weights.size(), weights.begin());
    }
    const double t_bcast = comm.now();
    comm.bcast(weights, 0);
    std::copy(weights.begin(), weights.end(), cb.weights().data());
    if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
      reg->histogram("som.epoch_bcast_seconds").observe(comm.now() - t_bcast);
    }

    const double sigma = som::sigma_at(config.params, grid, epoch);
    const som::Kernel kernel = config.params.kernel;
    som::BatchAccumulator total(grid, dim, sigma, kernel);
    double epoch_qerr = 0.0;

    if (deterministic) {
      // Each block's per-BMU sums ride the KV store keyed by block id as a
      // sparse record (one entry per distinct BMU); the master adds them in
      // block order after a gather + key sort, so the float arithmetic
      // happens in one schedule-independent order.
      mr.map(nblocks, [&](std::uint64_t block, mrmpi::KeyValue& kv) {
        const auto [first, count] = block_rows(block);
        const double t0 = comm.now();
        som::BatchAccumulator bacc(grid, dim, sigma, kernel);
        double block_qerr = 0.0;
        for (std::size_t r = first; r < first + count; ++r) {
          block_qerr += bacc.add(cb, data.row(r), sigma, kernel);
        }
        if (per_vector_cost > 0.0) {
          comm.compute(per_vector_cost * static_cast<double>(count));
        }
        const std::array<std::byte, 8> key = block_key(block);
        const std::vector<std::byte> value = encode_block_sums(bacc, block_qerr);
        kv.add(std::span<const std::byte>(key), std::span<const std::byte>(value));
        if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
          rec->add(comm.rank(), trace::Category::App, "accumulate", t0, comm.now(), count);
        }
      });
      const double t_reduce = comm.now();
      mr.gather();
      mr.sort_keys();
      if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
        reg->histogram("som.epoch_reduce_seconds").observe(comm.now() - t_reduce);
      }
      if (comm.rank() == 0) {
        std::uint64_t folded = 0;
        mr.kv().for_each([&](const mrmpi::KvPair& pair) {
          const std::uint64_t block = block_of_key(pair.key);
          // Sorted keys: exactly-once delivery means block ids 0, 1, 2, ...
          MRBIO_CHECK(pair.key.size() == 8 && block == folded, "som block ", block,
                      " in epoch ", epoch, ": expected block ", folded);
          epoch_qerr += fold_block_sums(total, pair.value, block, block_rows(block).second, epoch);
          ++folded;
        });
        MRBIO_CHECK(folded == nblocks, "som epoch ", epoch, ": folded ", folded, " of ",
                    nblocks, " blocks");
      }
    } else {
      som::BatchAccumulator acc(grid, dim, sigma, kernel);
      double local_qerr = 0.0;

      mr.map(nblocks, [&](std::uint64_t block, mrmpi::KeyValue&) {
        const auto [first, count] = block_rows(block);
        const double t0 = comm.now();
        for (std::size_t r = first; r < first + count; ++r) {
          local_qerr += acc.add(cb, data.row(r), sigma, kernel);
        }
        if (per_vector_cost > 0.0) {
          comm.compute(per_vector_cost * static_cast<double>(count));
        }
        if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
          rec->add(comm.rank(), trace::Category::App, "accumulate", t0, comm.now(), count);
        }
      });

      // Fig. 2: "a collective MPI_Reduce() call is used to sum all newly
      // computed numerators and denominators" -- direct MPI, no reduce().
      // Here the per-BMU sums and counts: the same cells x dim + cells
      // floats, from which the master forms both.
      const std::span<const float> sums = acc.bmu_sums();
      const std::span<const float> counts = acc.bmu_counts();
      std::vector<float> packed(sums.size() + counts.size());
      std::copy(sums.begin(), sums.end(), packed.begin());
      std::copy(counts.begin(), counts.end(),
                packed.begin() + static_cast<std::ptrdiff_t>(sums.size()));
      const double t_reduce = comm.now();
      comm.reduce(packed, mpi::ReduceOp::Sum, 0);
      std::vector<double> qerr_buf{local_qerr};
      comm.reduce(qerr_buf, mpi::ReduceOp::Sum, 0);
      if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
        reg->histogram("som.epoch_reduce_seconds").observe(comm.now() - t_reduce);
      }
      if (comm.rank() == 0) {
        std::copy(packed.begin(), packed.begin() + static_cast<std::ptrdiff_t>(sums.size()),
                  total.bmu_sums().begin());
        std::copy(packed.begin() + static_cast<std::ptrdiff_t>(sums.size()), packed.end(),
                  total.bmu_counts().begin());
        epoch_qerr = qerr_buf[0];
      }
    }

    if (comm.rank() == 0) {
      const double t_apply = comm.now();
      total.apply(cb);
      if (config.flop_seconds > 0.0) {
        // Eq. 5 from per-BMU sums: a dim-wide multiply-add per (neuron,
        // active BMU) pair.
        const std::span<const float> counts = total.bmu_counts();
        const auto active = std::count_if(counts.begin(), counts.end(),
                                          [](float n) { return n > 0.0f; });
        comm.compute(config.flop_seconds * static_cast<double>(cells) *
                     static_cast<double>(active) * static_cast<double>(dim));
      }
      if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
        rec->add(comm.rank(), trace::Category::App, "codebook_update", t_apply, comm.now(),
                 cells);
      }
      if (config.on_epoch) {
        config.on_epoch(epoch, sigma,
                        data.rows() > 0 ? epoch_qerr / static_cast<double>(data.rows())
                                        : 0.0);
      }
    }

    // ---- epoch commit ----
    // Rank 0 snapshots the updated codebook (atomic tmp + rename), making
    // the epoch durable; only then is its map log disposable. A kill in
    // between re-runs the epoch from the previous snapshot, which is
    // byte-identical because the map replays against the same weights.
    if (ckpt_on) {
      if (comm.rank() == 0) {
        const double t0 = comm.now();
        ByteWriter w;
        w.put<std::uint64_t>(static_cast<std::uint64_t>(epoch + 1));
        w.put<std::uint64_t>(static_cast<std::uint64_t>(cells));
        w.put<std::uint64_t>(static_cast<std::uint64_t>(dim));
        w.append(cb.weights().data(), cells * dim * sizeof(float));
        const std::vector<std::byte> payload = w.take();
        cp->save_snapshot("codebook", payload);
        comm.compute(static_cast<double>(payload.size()) * cp->config().byte_seconds);
        if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
          rec->add(comm.rank(), trace::Category::Io, "ckpt_write", t0, comm.now(), 1,
                   payload.size());
        }
      }
      if (deterministic) {
        cp->remove_map_log(comm.rank(), static_cast<std::uint64_t>(epoch));
      }
    }
  }

  // Leave every rank with the final codebook.
  std::vector<float> weights(cells * dim);
  if (comm.rank() == 0) {
    std::copy(cb.weights().data(), cb.weights().data() + weights.size(), weights.begin());
  }
  comm.bcast(weights, 0);
  std::copy(weights.begin(), weights.end(), cb.weights().data());
  return cb;
}

SimSomStats run_som_sim(mpi::Comm& comm, const SimSomConfig& config) {
  MRBIO_REQUIRE(config.block_vectors > 0, "block_vectors must be positive");
  const std::size_t cells = config.grid.cells();
  const std::uint64_t nblocks =
      (config.num_vectors + config.block_vectors - 1) / config.block_vectors;
  const std::uint64_t codebook_bytes =
      static_cast<std::uint64_t>(cells) * config.dim * sizeof(float);
  // The reduction ships numerator (cells x dim) plus denominator (cells).
  const std::uint64_t accum_bytes =
      codebook_bytes + static_cast<std::uint64_t>(cells) * sizeof(float);
  const double per_vector_cost =
      config.flop_seconds * static_cast<double>(config.dim) * static_cast<double>(cells);

  mrmpi::MapReduceConfig mr_config;
  mr_config.map_style = config.map_style;
  mr_config.scheduler = config.scheduler;
  mr_config.ft = config.ft;
  mrmpi::MapReduce mr(comm, mr_config);

  SimSomStats stats;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Multi-megabyte codebook: pipelined collective model (see comm.hpp).
    const double t_bcast = comm.now();
    comm.bcast_phantom_pipelined(codebook_bytes, 0);
    if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
      reg->histogram("som.epoch_bcast_seconds").observe(comm.now() - t_bcast);
    }
    mr.map(nblocks, [&](std::uint64_t block, mrmpi::KeyValue&) {
      const std::uint64_t first = block * config.block_vectors;
      const std::uint64_t count =
          std::min<std::uint64_t>(config.block_vectors, config.num_vectors - first);
      const double cost = per_vector_cost * static_cast<double>(count);
      const double t0 = comm.now();
      comm.compute(cost);
      stats.compute_seconds += cost;
      ++stats.blocks_processed;
      if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
        rec->add(comm.rank(), trace::Category::App, "accumulate", t0, comm.now(), count);
      }
    });
    const double t_reduce = comm.now();
    comm.reduce_phantom_pipelined(
        accum_bytes, 0, static_cast<double>(accum_bytes) * config.combine_seconds_per_byte);
    if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
      reg->histogram("som.epoch_reduce_seconds").observe(comm.now() - t_reduce);
    }
    // Master applies Eq. 5 over the full codebook.
    if (comm.rank() == 0) {
      const double t_apply = comm.now();
      comm.compute(static_cast<double>(cells) * static_cast<double>(config.dim) *
                   config.flop_seconds);
      if (trace::Recorder* rec = comm.tracer(); rec != nullptr) {
        rec->add(comm.rank(), trace::Category::App, "codebook_update", t_apply, comm.now(),
                 cells);
      }
    }
  }
  return stats;
}

}  // namespace mrbio::mrsom
