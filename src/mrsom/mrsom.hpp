// MR-MPI batch SOM: the paper's second application (Section III-B, Fig. 2).
//
// Per epoch: the codebook is broadcast from the master to all workers;
// the input-vector set is split into blocks that form the map() work
// units; each map() call adds every input of its block into the per-BMU
// sums S_c and counts n_c of its rank's accumulator (Eq. 5's numerator and
// denominator both factor through the BMU, see som.hpp); at the epoch end
// a direct MPI reduction sums S and n on the master, which applies the
// neighbourhood once and computes the new codebook. No MapReduce reduce()
// stage is used ("a mix of MapReduce-MPI and direct MPI calls").
//
// train_som_mr is the functional driver (real data, every rank returns the
// trained codebook); run_som_sim is the paper-scale driver behind the
// Fig. 6 scaling benchmark (analytic compute costs, phantom collectives of
// codebook-sized messages).
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "mpi/comm.hpp"
#include "mrmpi/mapreduce.hpp"
#include "som/som.hpp"

namespace mrbio::mrsom {

struct ParallelSomConfig {
  som::SomParams params;
  std::size_t block_vectors = 40;  ///< input vectors per work unit (Fig. 6)
  mrmpi::MapStyle map_style = mrmpi::MapStyle::MasterWorker;
  /// Scheduling policy override; Auto derives from map_style (see
  /// mrmpi::MapReduceConfig::scheduler). sched::Policy::Steal selects
  /// decentralized work stealing.
  sched::Policy scheduler = sched::Policy::Auto;
  /// Fault tolerance of the remote maps (see mrmpi::FaultToleranceConfig).
  /// Enabling it (or the steal policy) forces deterministic_reduce: the direct-MPI accumulator
  /// reduction cannot survive worker respawns, the KV path can.
  mrmpi::FaultToleranceConfig ft;
  /// Route each block's per-BMU sums through the KV store (key = block id,
  /// value = encode_block_sums) and sum on the master in block order
  /// instead of the direct MPI_Reduce. Costs one gather of the sparse block
  /// records per epoch but makes the trained codebook bit-identical across
  /// schedules, rank counts, and fault plans (float sums happen in one
  /// fixed order).
  bool deterministic_reduce = false;
  /// Modeled seconds per (input-dim x map-cell) multiply-accumulate; used
  /// to charge virtual compute for real runs so timing stays meaningful.
  /// The map charges each input's BMU scan (dim x cells), the master its
  /// Eq. 5 update (dim x cells x the cells that were some input's BMU).
  double flop_seconds = 0.0;
  /// Progress callback on the master rank.
  som::EpochCallback on_epoch = nullptr;
  /// Checkpoint/restart manager (non-owning); null disables. One cycle =
  /// one epoch. Rank 0 snapshots the codebook after every epoch; on the
  /// deterministic path the per-block records are additionally
  /// journaled through the MapReduce map log, so --resume restarts
  /// mid-epoch. The non-deterministic path holds its accumulator outside
  /// the KV store and resumes at epoch granularity only.
  ckpt::Checkpointer* checkpointer = nullptr;
};

/// Collective: trains on `data` (visible to all ranks via shared memory,
/// standing in for the paper's memory-mapped file on a shared filesystem).
/// `initial` is the epoch-0 codebook on the master; other ranks may pass a
/// same-shaped codebook which is overwritten by broadcast. Every rank
/// returns the final codebook.
som::Codebook train_som_mr(mpi::Comm& comm, const MatrixView& data,
                           const som::Codebook& initial, const ParallelSomConfig& config);

/// Names the deterministic path's block record format in a checkpoint
/// fingerprint: a map log written in another format is then refused by
/// the MANIFEST guard on --resume instead of being misparsed.
inline constexpr const char* kBlockRecordFormat = "bmu-sums";

/// One block's KV value on the deterministic path: the block's summed
/// squared quantization error (f64), then one entry per distinct BMU in
/// ascending cell order -- cell (u32), n_c (u32), S_c (dim x f32). With
/// k distinct BMUs that is 8 + k (8 + 4 dim) bytes.
std::vector<std::byte> encode_block_sums(const som::BatchAccumulator& block, double qerr);

/// Checks one block's record and adds its entries into `total`; returns
/// the block's quantization error. The record must be 8 + k (8 + 4 dim)
/// bytes with k <= `inputs`, cells strictly ascending and below the cell
/// count, every n_c > 0 and the n_c summing to `inputs`; otherwise the
/// Error names the block and the epoch.
double fold_block_sums(som::BatchAccumulator& total, std::span<const std::byte> record,
                       std::uint64_t block, std::size_t inputs, std::size_t epoch);

struct SimSomConfig {
  std::uint64_t num_vectors = 81'920;  ///< the paper's Fig. 6 dataset
  std::size_t dim = 256;
  som::SomGrid grid{50, 50};
  std::size_t epochs = 10;
  std::size_t block_vectors = 40;
  mrmpi::MapStyle map_style = mrmpi::MapStyle::MasterWorker;
  /// Scheduling policy override; Auto derives from map_style (see
  /// mrmpi::MapReduceConfig::scheduler). sched::Policy::Steal selects
  /// decentralized work stealing.
  sched::Policy scheduler = sched::Policy::Auto;
  /// Fault tolerance of the remote maps.
  mrmpi::FaultToleranceConfig ft;
  /// Seconds per (dim x cell) pair per input vector. The default yields
  /// roughly minutes-per-epoch serial times at the paper's dimensions
  /// (Ranger-era Barcelona cores), matching the magnitudes of Fig. 6.
  double flop_seconds = 4.0e-9;
  /// Seconds to combine one byte in the accumulator reduction.
  double combine_seconds_per_byte = 2.5e-10;
};

struct SimSomStats {
  double compute_seconds = 0.0;  ///< useful accumulate time on this rank
  std::uint64_t blocks_processed = 0;
};

/// Collective; virtual elapsed time is read from the engine by the caller.
SimSomStats run_som_sim(mpi::Comm& comm, const SimSomConfig& config);

}  // namespace mrbio::mrsom
