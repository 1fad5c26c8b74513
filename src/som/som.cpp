#include "som/som.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::som {

namespace {
/// Signed wrap-around delta on a circular axis of length n.
double wrap_delta(double d, double n) {
  if (d > n / 2.0) return d - n;
  if (d < -n / 2.0) return d + n;
  return d;
}

/// Squared map distance from cell a to cell b given only the row and
/// column deltas (a minus b) and the two rows' parities: the whole input
/// of grid_dist2 in every topology, which is what NeighborhoodTable keys.
double lattice_dist2(const SomGrid& g, double dr, double dc, std::size_t parity_a,
                     std::size_t parity_b) {
  if (g.topology == GridTopology::Hexagonal) {
    // Odd-row offset layout with unit spacing between adjacent cells.
    dc += 0.5 * (static_cast<double>(parity_a) - static_cast<double>(parity_b));
    dr *= 0.8660254037844386;  // sqrt(3)/2
    if (g.toroidal) {
      dr = wrap_delta(dr, static_cast<double>(g.rows) * 0.8660254037844386);
      dc = wrap_delta(dc, static_cast<double>(g.cols));
    }
  } else if (g.toroidal) {
    dr = wrap_delta(dr, static_cast<double>(g.rows));
    dc = wrap_delta(dc, static_cast<double>(g.cols));
  }
  return dr * dr + dc * dc;
}

/// The kernel at squared map distance d2 (Eq. 4 for the Gaussian).
double kernel_value(double d2, double sigma, Kernel kernel) {
  if (kernel == Kernel::Bubble) return d2 <= sigma * sigma ? 1.0 : 0.0;
  return std::exp(-d2 / (2.0 * sigma * sigma));
}
}  // namespace

double SomGrid::grid_dist2(std::size_t a, std::size_t b) const {
  return lattice_dist2(*this, static_cast<double>(row_of(a)) - static_cast<double>(row_of(b)),
                       static_cast<double>(col_of(a)) - static_cast<double>(col_of(b)),
                       row_of(a) % 2, row_of(b) % 2);
}

bool SomGrid::adjacent(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  // Unit spacing in both layouts: lattice neighbours sit at distance 1
  // (rectangular 4-neighbourhood; hexagonal 6-neighbourhood).
  return grid_dist2(a, b) <= 1.0001;
}

Codebook::Codebook(SomGrid grid, std::size_t dim)
    : grid_(grid), dim_(dim), weights_(grid.cells(), dim) {
  MRBIO_REQUIRE(grid.rows > 0 && grid.cols > 0, "SOM grid must be non-empty");
  MRBIO_REQUIRE(dim > 0, "SOM dimension must be positive");
}

void Codebook::init_random(Rng& rng, float lo, float hi) {
  for (std::size_t c = 0; c < grid_.cells(); ++c) {
    for (float& w : weights_.row(c)) {
      w = static_cast<float>(rng.uniform(lo, hi));
    }
  }
}

namespace {

/// Column means of a data matrix.
std::vector<double> column_means(const MatrixView& data) {
  std::vector<double> mean(data.cols(), 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto row = data.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) mean[c] += row[c];
  }
  for (double& m : mean) m /= static_cast<double>(data.rows());
  return mean;
}

/// Leading eigenvector of the data covariance via power iteration,
/// deflating `deflate` (may be empty). Returns the scaled eigenvector
/// (unit vector times sqrt(eigenvalue)).
std::vector<double> principal_component(const MatrixView& data,
                                        const std::vector<double>& mean,
                                        const std::vector<double>& deflate) {
  const std::size_t d = data.cols();
  std::vector<double> v(d);
  // Deterministic start: spread of signs to avoid orthogonal-start stalls.
  for (std::size_t i = 0; i < d; ++i) v[i] = (i % 2 == 0) ? 1.0 : -0.5;
  std::vector<double> next(d);
  double eigen = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    // Project out the deflated direction.
    if (!deflate.empty()) {
      double dot = 0.0;
      double norm2 = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        dot += v[i] * deflate[i];
        norm2 += deflate[i] * deflate[i];
      }
      if (norm2 > 0.0) {
        for (std::size_t i = 0; i < d; ++i) v[i] -= dot / norm2 * deflate[i];
      }
    }
    // next = Cov * v computed as sum_r (x_r - mean) ((x_r - mean) . v)
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t r = 0; r < data.rows(); ++r) {
      const auto row = data.row(r);
      double dot = 0.0;
      for (std::size_t i = 0; i < d; ++i) dot += (row[i] - mean[i]) * v[i];
      for (std::size_t i = 0; i < d; ++i) next[i] += (row[i] - mean[i]) * dot;
    }
    double norm = 0.0;
    for (const double x : next) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    eigen = norm / static_cast<double>(data.rows());
    for (std::size_t i = 0; i < d; ++i) v[i] = next[i] / norm;
  }
  const double scale = std::sqrt(std::max(eigen, 0.0));
  for (double& x : v) x *= scale;
  return v;
}

}  // namespace

void Codebook::init_pca(const MatrixView& data) {
  MRBIO_REQUIRE(data.cols() == dim_, "data dimension ", data.cols(),
                " does not match codebook dimension ", dim_);
  MRBIO_REQUIRE(data.rows() >= 2, "PCA initialization needs at least 2 inputs");
  const auto mean = column_means(data);
  const auto pc1 = principal_component(data, mean, {});
  const auto pc2 = principal_component(data, mean, pc1);

  // Span [-2, 2] standard deviations across the grid in each direction.
  for (std::size_t cell = 0; cell < grid_.cells(); ++cell) {
    const double u =
        grid_.rows > 1
            ? 4.0 * (static_cast<double>(grid_.row_of(cell)) / (grid_.rows - 1) - 0.5)
            : 0.0;
    const double v =
        grid_.cols > 1
            ? 4.0 * (static_cast<double>(grid_.col_of(cell)) / (grid_.cols - 1) - 0.5)
            : 0.0;
    auto w = weights_.row(cell);
    for (std::size_t i = 0; i < dim_; ++i) {
      w[i] = static_cast<float>(mean[i] + u * pc1[i] + v * pc2[i]);
    }
  }
}

double dist2(std::span<const float> a, std::span<const float> b) {
  MRBIO_CHECK(a.size() == b.size(), "dist2 dimension mismatch");
  // Canonical striped reduction (4 double partials over i % 4, combined
  // as (p0+p2)+(p1+p3)): every dispatched ISA variant accumulates in this
  // exact order, so distances are bit-identical across --simd levels.
  return simd::kernels().dist2_f32(a.data(), b.data(), a.size());
}

std::size_t find_bmu(const Codebook& cb, std::span<const float> x) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < cb.grid().cells(); ++c) {
    const double d = dist2(x, cb.vector(c));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::pair<std::size_t, std::size_t> find_bmu2(const Codebook& cb, std::span<const float> x) {
  std::size_t b1 = 0;
  std::size_t b2 = 0;
  double d1 = std::numeric_limits<double>::infinity();
  double d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < cb.grid().cells(); ++c) {
    const double d = dist2(x, cb.vector(c));
    if (d < d1) {
      d2 = d1;
      b2 = b1;
      d1 = d;
      b1 = c;
    } else if (d < d2) {
      d2 = d;
      b2 = c;
    }
  }
  return {b1, b2};
}

double neighborhood(const SomGrid& grid, std::size_t bmu, std::size_t j, double sigma,
                    Kernel kernel) {
  MRBIO_CHECK(sigma > 0.0, "neighborhood width must be positive");
  return kernel_value(grid.grid_dist2(bmu, j), sigma, kernel);
}

NeighborhoodTable::NeighborhoodTable(const SomGrid& grid, double sigma, Kernel kernel)
    : from_(grid.cells()), to_(grid.cells()) {
  MRBIO_CHECK(sigma > 0.0, "neighborhood width must be positive");
  // Key (dr, parity_c, parity_j, dc) with dr = row_c - row_j in
  // [-(rows-1), rows-1] and dc = col_c - col_j in [-(cols-1), cols-1],
  // laid out row-major: ((dr + rows-1) * 2 + parity_c) * 2 + parity_j
  // selects a row of width 2 cols - 1, dc + cols-1 the column. The index
  // splits into a BMU part (from_) plus a neuron part (to_).
  const std::size_t rows = grid.rows;
  const std::size_t cols = grid.cols;
  const std::size_t width = 2 * cols - 1;
  h_.resize(4 * (2 * rows - 1) * width);
  for (std::size_t r = 0; r < 2 * rows - 1; ++r) {
    const double dr = static_cast<double>(r) - static_cast<double>(rows - 1);
    for (std::size_t parity_c = 0; parity_c < 2; ++parity_c) {
      for (std::size_t parity_j = 0; parity_j < 2; ++parity_j) {
        double* row = h_.data() + ((r * 2 + parity_c) * 2 + parity_j) * width;
        for (std::size_t c = 0; c < width; ++c) {
          const double dc = static_cast<double>(c) - static_cast<double>(cols - 1);
          row[c] = kernel_value(lattice_dist2(grid, dr, dc, parity_c, parity_j), sigma, kernel);
        }
      }
    }
  }
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    const std::size_t r = grid.row_of(cell);
    const std::size_t c = grid.col_of(cell);
    from_[cell] = (r * 4 + (r % 2) * 2) * width + c;
    to_[cell] = ((rows - 1 - r) * 4 + r % 2) * width + (cols - 1 - c);
  }
}

double sigma_at(const SomParams& params, const SomGrid& grid, std::size_t epoch) {
  const double start = params.sigma_start > 0.0
                           ? params.sigma_start
                           : std::max(grid.rows, grid.cols) / 2.0;
  const double end = std::max(params.sigma_end, 1e-3);
  if (params.epochs <= 1) return start;
  const double frac = static_cast<double>(epoch) / static_cast<double>(params.epochs - 1);
  return start * std::pow(end / start, frac);
}

BatchAccumulator::BatchAccumulator(SomGrid grid, std::size_t dim)
    : grid_(grid), dim_(dim), sums_(grid.cells(), dim), counts_(grid.cells(), 0.0f) {}

BatchAccumulator::BatchAccumulator(SomGrid grid, std::size_t dim, double sigma, Kernel kernel)
    : BatchAccumulator(grid, dim) {
  bind(sigma, kernel);
}

void BatchAccumulator::bind(double sigma, Kernel kernel) {
  MRBIO_CHECK(sigma > 0.0, "neighborhood width must be positive");
  if (sigma_ == 0.0) {
    sigma_ = sigma;
    kernel_ = kernel;
    return;
  }
  MRBIO_CHECK(sigma == sigma_ && kernel == kernel_, "BatchAccumulator bound to sigma ", sigma_,
              " kernel ", static_cast<int>(kernel_), ", got sigma ", sigma, " kernel ",
              static_cast<int>(kernel));
}

double BatchAccumulator::add(const Codebook& cb, std::span<const float> x, double sigma,
                             Kernel kernel) {
  MRBIO_CHECK(x.size() == dim_, "BatchAccumulator input dimension mismatch");
  bind(sigma, kernel);
  const std::size_t bmu = find_bmu(cb, x);
  const double qerr = dist2(x, cb.vector(bmu));
  simd::kernels().add_f32(sums_.row(bmu).data(), x.data(), dim_);
  counts_[bmu] += 1.0f;
  return qerr;
}

void BatchAccumulator::merge(const BatchAccumulator& other) {
  MRBIO_CHECK(sums_.size() == other.sums_.size() && counts_.size() == other.counts_.size(),
              "BatchAccumulator shape mismatch");
  if (other.sigma_ > 0.0) bind(other.sigma_, other.kernel_);
  const simd::Kernels& kern = simd::kernels();
  kern.add_f32(sums_.data(), other.sums_.data(), sums_.size());
  kern.add_f32(counts_.data(), other.counts_.data(), counts_.size());
}

void BatchAccumulator::apply(Codebook& cb) const {
  MRBIO_CHECK(cb.grid().cells() == grid_.cells() && cb.dim() == dim_,
              "BatchAccumulator shape does not match the codebook");
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < grid_.cells(); ++c) {
    if (counts_[c] > 0.0f) active.push_back(c);
  }
  if (active.empty()) return;
  MRBIO_CHECK(sigma_ > 0.0, "BatchAccumulator::apply on sums with no sigma bound");
  const NeighborhoodTable h(grid_, sigma_, kernel_);
  const simd::Kernels& kern = simd::kernels();
  std::vector<float> num(dim_);
  for (std::size_t j = 0; j < grid_.cells(); ++j) {
    std::fill(num.begin(), num.end(), 0.0f);
    float den = 0.0f;
    for (const std::size_t c : active) {
      const double hcj = h(c, j);
      // An exact zero h adds only signed zeros, which change neither sum
      // (both start at +0, and v + -0 == v), so skipping it is exact.
      if (hcj == 0.0) continue;
      kern.scaled_accum_f32(num.data(), sums_.data() + c * dim_, dim_, hcj);
      // Summed in float, as scaled_accum_f32 sums the numerator.
      den += static_cast<float>(hcj * static_cast<double>(counts_[c]));
    }
    if (den <= 0.0f) continue;
    kern.scale_assign_f32(cb.vector(j).data(), num.data(), dim_, den);
  }
}

void train_batch(Codebook& cb, const MatrixView& data, const SomParams& params,
                 const EpochCallback& on_epoch) {
  MRBIO_REQUIRE(data.cols() == cb.dim(), "data dimension mismatch");
  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    const double sigma = sigma_at(params, cb.grid(), epoch);
    BatchAccumulator acc(cb.grid(), cb.dim(), sigma, params.kernel);
    double qerr = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
      qerr += acc.add(cb, data.row(r), sigma, params.kernel);
    }
    acc.apply(cb);
    if (on_epoch) {
      on_epoch(epoch, sigma, data.rows() > 0 ? qerr / static_cast<double>(data.rows()) : 0.0);
    }
  }
}

void train_online(Codebook& cb, const MatrixView& data, const SomParams& params, Rng& rng) {
  MRBIO_REQUIRE(data.cols() == cb.dim(), "data dimension mismatch");
  const std::size_t total_steps = params.epochs * data.rows();
  std::size_t step = 0;
  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    const double sigma = sigma_at(params, cb.grid(), epoch);
    for (std::size_t r = 0; r < data.rows(); ++r, ++step) {
      // Present inputs in random order, the classic online schedule.
      const auto pick = static_cast<std::size_t>(rng.below(data.rows()));
      const auto x = data.row(pick);
      const std::size_t bmu = find_bmu(cb, x);
      const double alpha =
          params.alpha_start +
          (params.alpha_end - params.alpha_start) *
              (total_steps > 1 ? static_cast<double>(step) / (total_steps - 1) : 0.0);
      const simd::Kernels& kern = simd::kernels();
      for (std::size_t j = 0; j < cb.grid().cells(); ++j) {
        const double h = neighborhood(cb.grid(), bmu, j, sigma, params.kernel);
        if (h < 1e-6) continue;
        kern.online_update_f32(cb.vector(j).data(), x.data(), cb.dim(), alpha * h);
      }
    }
  }
}

Matrix u_matrix(const Codebook& cb) {
  const SomGrid& g = cb.grid();
  Matrix u(g.rows, g.cols);
  // Topology-aware: averages over the lattice neighbours of each cell
  // (4 on the rectangular grid, 6 on the hexagonal one, wrapped when
  // toroidal). O(cells^2) adjacency scan; maps are small.
  for (std::size_t cell = 0; cell < g.cells(); ++cell) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t other = 0; other < g.cells(); ++other) {
      if (!g.adjacent(cell, other)) continue;
      sum += std::sqrt(dist2(cb.vector(cell), cb.vector(other)));
      ++n;
    }
    u(g.row_of(cell), g.col_of(cell)) = static_cast<float>(n > 0 ? sum / n : 0.0);
  }
  return u;
}

double quantization_error(const Codebook& cb, const MatrixView& data) {
  MRBIO_REQUIRE(data.rows() > 0, "quantization error of empty data");
  double total = 0.0;
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto x = data.row(r);
    total += std::sqrt(dist2(x, cb.vector(find_bmu(cb, x))));
  }
  return total / static_cast<double>(data.rows());
}

double topographic_error(const Codebook& cb, const MatrixView& data) {
  MRBIO_REQUIRE(data.rows() > 0, "topographic error of empty data");
  std::size_t errors = 0;
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto [b1, b2] = find_bmu2(cb, data.row(r));
    // For the rectangular grid count diagonal neighbours as adjacent too
    // (the conventional 8-neighbourhood criterion); hexagonal cells have
    // all six lattice neighbours at distance 1.
    const double limit = cb.grid().topology == GridTopology::Rectangular ? 2.0 : 1.0001;
    if (cb.grid().grid_dist2(b1, b2) > limit) ++errors;
  }
  return static_cast<double>(errors) / static_cast<double>(data.rows());
}

Matrix codebook_rgb(const Codebook& cb) {
  MRBIO_REQUIRE(cb.dim() == 3, "codebook_rgb needs a 3-D codebook, got dim ", cb.dim());
  const SomGrid& g = cb.grid();
  Matrix img(g.rows, g.cols * 3);
  for (std::size_t cell = 0; cell < g.cells(); ++cell) {
    const auto w = cb.vector(cell);
    for (std::size_t ch = 0; ch < 3; ++ch) {
      img(g.row_of(cell), g.col_of(cell) * 3 + ch) = std::clamp(w[ch], 0.0f, 1.0f);
    }
  }
  return img;
}

Matrix component_plane(const Codebook& cb, std::size_t dimension) {
  MRBIO_REQUIRE(dimension < cb.dim(), "component plane dimension ", dimension,
                " out of ", cb.dim());
  const SomGrid& g = cb.grid();
  Matrix plane(g.rows, g.cols);
  for (std::size_t cell = 0; cell < g.cells(); ++cell) {
    plane(g.row_of(cell), g.col_of(cell)) = cb.vector(cell)[dimension];
  }
  return plane;
}

namespace {
constexpr std::uint64_t kCodebookMagic = 0x4d52534f4d43420aULL;  // "MRSOMCB\n"
}

void save_codebook(const std::string& path, const Codebook& cb) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  MRBIO_REQUIRE(f != nullptr, "cannot open for writing: ", path);
  const std::uint64_t header[6] = {
      kCodebookMagic,
      cb.grid().rows,
      cb.grid().cols,
      cb.dim(),
      static_cast<std::uint64_t>(cb.grid().topology),
      cb.grid().toroidal ? 1ull : 0ull};
  std::size_t ok = std::fwrite(header, sizeof(std::uint64_t), 6, f);
  ok += std::fwrite(cb.weights().data(), sizeof(float), cb.weights().size(), f);
  std::fclose(f);
  MRBIO_REQUIRE(ok == 6 + cb.weights().size(), "short write to ", path);
}

Codebook load_codebook(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MRBIO_REQUIRE(f != nullptr, "cannot open: ", path);
  std::uint64_t header[6] = {};
  std::size_t got = std::fread(header, sizeof(std::uint64_t), 6, f);
  if (got != 6 || header[0] != kCodebookMagic) {
    std::fclose(f);
    throw InputError("not a mrbio SOM codebook: " + path);
  }
  SomGrid grid{static_cast<std::size_t>(header[1]), static_cast<std::size_t>(header[2])};
  grid.topology = static_cast<GridTopology>(header[4]);
  grid.toroidal = header[5] != 0;
  Codebook cb(grid, static_cast<std::size_t>(header[3]));
  got = std::fread(cb.weights().data(), sizeof(float), cb.weights().size(), f);
  std::fclose(f);
  MRBIO_REQUIRE(got == cb.weights().size(), "truncated codebook file ", path);
  return cb;
}

}  // namespace mrbio::som
