// Self-Organizing Map: serial reference implementation of the paper's
// Section II-D, both the classic "online" formulation (Eqs. 1-4) and the
// "batch" formulation (Eq. 5) that the parallel implementation builds on.
//
// A map is a rows x cols grid of neurons, each carrying an n-dimensional
// weight vector ("code-vector"); the full weight matrix is the codebook.
// Batch training replaces neuron j's weights at the epoch end by the
// numerator sum_t h_{b(t) j} x(t) over the denominator sum_t h_{b(t) j}
// (b(t) = BMU of input t). Both sums factor through the BMU: they equal
// sum_c h_{cj} S_c and sum_c h_{cj} n_c, where S_c is the sum of the
// inputs whose BMU is c and n_c is their count. So the paper's map()
// tasks accumulate S and n (in-mapper combining), MPI_Reduce() sums them,
// and the master applies the neighbourhood once per epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace mrbio::som {

/// Grid layouts: rectangular lattice or hexagonal (odd rows shifted half a
/// cell, unit spacing between adjacent cells).
enum class GridTopology { Rectangular, Hexagonal };

/// Map geometry. `toroidal` wraps both axes (no map border), a common
/// option for avoiding edge effects on large maps.
struct SomGrid {
  std::size_t rows = 0;
  std::size_t cols = 0;
  GridTopology topology = GridTopology::Rectangular;
  bool toroidal = false;

  std::size_t cells() const { return rows * cols; }
  std::size_t row_of(std::size_t cell) const { return cell / cols; }
  std::size_t col_of(std::size_t cell) const { return cell % cols; }
  /// Squared Euclidean distance between two cells in map coordinates
  /// (topology- and wrap-aware).
  double grid_dist2(std::size_t a, std::size_t b) const;
  /// True if the two cells are lattice neighbours (4-neighbourhood on the
  /// rectangular grid, 6-neighbourhood on the hexagonal one).
  bool adjacent(std::size_t a, std::size_t b) const;
};

/// Neighbourhood kernels: the paper's Gaussian (Eq. 4) and the classic
/// bubble (1 within sigma, 0 outside).
enum class Kernel { Gaussian, Bubble };

/// The codebook: one weight vector per grid cell, row-major by cell index.
class Codebook {
 public:
  Codebook() = default;
  Codebook(SomGrid grid, std::size_t dim);

  const SomGrid& grid() const { return grid_; }
  std::size_t dim() const { return dim_; }
  std::span<float> vector(std::size_t cell) { return weights_.row(cell); }
  std::span<const float> vector(std::size_t cell) const { return weights_.row(cell); }
  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }

  /// Uniform random initialization in [lo, hi).
  void init_random(Rng& rng, float lo = 0.0f, float hi = 1.0f);

  /// Linear initialization spanning the plane of the data's two principal
  /// components (the paper's "linearly generated from the first two PCA
  /// eigen-vectors").
  void init_pca(const MatrixView& data);

 private:
  SomGrid grid_;
  std::size_t dim_ = 0;
  Matrix weights_;
};

/// Squared Euclidean distance between an input and a code vector (Eq. 1).
/// Accumulates in the canonical striped order of the SIMD kernel layer
/// (4 double partials over i % 4, combined as (p0+p2)+(p1+p3)), so the
/// result is bit-identical across scalar/SSE4.1/AVX2 dispatch.
double dist2(std::span<const float> a, std::span<const float> b);

/// Best Matching Unit (Eq. 2). Ties break to the lowest cell index so runs
/// are reproducible (the paper breaks ties randomly).
std::size_t find_bmu(const Codebook& cb, std::span<const float> x);

/// BMU plus the runner-up, for the topographic error metric.
std::pair<std::size_t, std::size_t> find_bmu2(const Codebook& cb, std::span<const float> x);

/// Neighbourhood h_{bj} of width sigma (Eq. 4 for the Gaussian kernel).
double neighborhood(const SomGrid& grid, std::size_t bmu, std::size_t j, double sigma,
                    Kernel kernel = Kernel::Gaussian);

/// Training schedule shared by batch and online training.
struct SomParams {
  std::size_t epochs = 10;
  double sigma_start = 0.0;  ///< 0 = max(rows, cols) / 2, the paper's start
  double sigma_end = 1.0;    ///< "width of a single cell"
  double alpha_start = 0.5;  ///< online learning rate, decays linearly
  double alpha_end = 0.01;
  Kernel kernel = Kernel::Gaussian;
};

/// sigma(t) for epoch t of `epochs` (exponential decay start -> end).
double sigma_at(const SomParams& params, const SomGrid& grid, std::size_t epoch);

/// h_{cj} for every cell pair of one grid at one (sigma, kernel).
/// grid_dist2(c, j) depends only on (row_c - row_j, row_c mod 2,
/// row_j mod 2, col_c - col_j) in every topology, so the table evaluates
/// the kernel once per such key, 4 (2 rows - 1)(2 cols - 1) values, and
/// each entry equals neighborhood(grid, c, j, sigma, kernel) bit for bit.
class NeighborhoodTable {
 public:
  NeighborhoodTable(const SomGrid& grid, double sigma, Kernel kernel);

  /// h_{cj} with c the BMU and j the updated neuron.
  double operator()(std::size_t c, std::size_t j) const { return h_[from_[c] + to_[j]]; }

 private:
  std::vector<double> h_;          ///< one value per key
  std::vector<std::size_t> from_;  ///< key offset of each cell as the BMU
  std::vector<std::size_t> to_;    ///< key offset of each cell as the neuron
};

/// Per-BMU sums of one epoch of Eq. 5: S_c, the sum of the inputs whose BMU
/// is c, and n_c, their count. add() may be called from disjoint data
/// shards and merged, which is exactly the parallel decomposition of the
/// paper's Fig. 2. An accumulator is bound to one (sigma, kernel): by the
/// four-argument constructor, or by the first add() for the two-argument
/// one; an add() or merge() with another pair is a CHECK failure.
class BatchAccumulator {
 public:
  BatchAccumulator(SomGrid grid, std::size_t dim);
  BatchAccumulator(SomGrid grid, std::size_t dim, double sigma, Kernel kernel);

  /// Adds one input into its BMU's sum and count; no neighbourhood work.
  /// Returns the BMU's squared distance (for quantization-error tracking).
  double add(const Codebook& cb, std::span<const float> x, double sigma,
             Kernel kernel = Kernel::Gaussian);

  /// Element-wise merge of another shard's sums and counts.
  void merge(const BatchAccumulator& other);

  /// Applies Eq. 5, writing new weights into `cb`: neuron j gets
  /// sum_c h_{cj} S_c / sum_c h_{cj} n_c, summed over the cells with
  /// n_c > 0 in ascending c order, h from a NeighborhoodTable built here
  /// (once per epoch). Neurons with zero denominator keep their weights.
  void apply(Codebook& cb) const;

  /// S (cells x dim, row-major) and n (cells; floats, so the pair is the
  /// cells x dim + cells float payload of the reduce).
  std::span<const float> bmu_sums() const { return {sums_.data(), sums_.size()}; }
  std::span<const float> bmu_counts() const { return counts_; }
  std::span<float> bmu_sums() { return {sums_.data(), sums_.size()}; }
  std::span<float> bmu_counts() { return counts_; }

 private:
  void bind(double sigma, Kernel kernel);

  SomGrid grid_;
  std::size_t dim_;
  double sigma_ = 0.0;  ///< 0 until bound
  Kernel kernel_ = Kernel::Gaussian;
  Matrix sums_;                ///< S: cells x dim
  std::vector<float> counts_;  ///< n: cells
};

/// Progress callback: (epoch, sigma, mean quantization error).
using EpochCallback = std::function<void(std::size_t, double, double)>;

/// Serial batch training (the reference the parallel version must match).
void train_batch(Codebook& cb, const MatrixView& data, const SomParams& params,
                 const EpochCallback& on_epoch = nullptr);

/// Serial online training (Eqs. 1-4), the classic baseline.
void train_online(Codebook& cb, const MatrixView& data, const SomParams& params, Rng& rng);

/// U-matrix: per-cell mean distance to grid neighbours; ridge structure
/// visualizes cluster boundaries (Figs. 7-8).
Matrix u_matrix(const Codebook& cb);

/// Mean distance of each input to its BMU.
double quantization_error(const Codebook& cb, const MatrixView& data);

/// Fraction of inputs whose first and second BMU are not grid neighbours.
double topographic_error(const Codebook& cb, const MatrixView& data);

/// Renders a 3-D codebook as an RGB image (cols = 3 * grid cols), clamping
/// weights to [0,1]; the paper's Fig. 7 visual check.
Matrix codebook_rgb(const Codebook& cb);

/// Component plane: the value of one weight dimension across the map, the
/// classic per-feature SOM visualization (render with write_pgm).
Matrix component_plane(const Codebook& cb, std::size_t dimension);

/// Binary codebook persistence (magic + grid dims + topology + weights).
void save_codebook(const std::string& path, const Codebook& cb);
Codebook load_codebook(const std::string& path);

}  // namespace mrbio::som
