// Property tests for the SOM batch equation against an independent
// brute-force implementation of Eq. 5, on every topology and kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "som/som.hpp"

namespace mrbio::som {
namespace {

struct SomCase {
  std::uint64_t seed;
  std::size_t rows;
  std::size_t cols;
  std::size_t dim;
  std::size_t n;
  double sigma;
};

/// Runs one epoch through BatchAccumulator and checks every weight
/// against a direct double-precision evaluation of Eq. 5: brute-force
/// BMU, h from grid_dist2 and exp (or the bubble's cut-off), and the
/// per-input sums over every neuron.
void expect_matches_eq5(const SomCase& c, const SomGrid& grid, Kernel kernel) {
  Rng rng(c.seed);
  Matrix data(c.n, c.dim);
  for (std::size_t r = 0; r < c.n; ++r) {
    for (float& v : data.row(r)) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  Codebook cb(grid, c.dim);
  cb.init_random(rng);

  // Production path.
  Codebook updated = cb;
  BatchAccumulator acc(cb.grid(), c.dim);
  for (std::size_t r = 0; r < c.n; ++r) acc.add(cb, data.row(r), c.sigma, kernel);
  acc.apply(updated);

  // Independent direct evaluation of Eq. 5 in double precision.
  const std::size_t cells = cb.grid().cells();
  std::vector<std::vector<double>> num(cells, std::vector<double>(c.dim, 0.0));
  std::vector<double> den(cells, 0.0);
  for (std::size_t r = 0; r < c.n; ++r) {
    const auto x = data.row(r);
    // Brute-force BMU.
    std::size_t bmu = 0;
    double best = 1e300;
    for (std::size_t j = 0; j < cells; ++j) {
      double d = 0.0;
      const auto w = cb.vector(j);
      for (std::size_t i = 0; i < c.dim; ++i) {
        d += (static_cast<double>(x[i]) - w[i]) * (static_cast<double>(x[i]) - w[i]);
      }
      if (d < best) {
        best = d;
        bmu = j;
      }
    }
    for (std::size_t j = 0; j < cells; ++j) {
      const double d2 = cb.grid().grid_dist2(bmu, j);
      const double h = kernel == Kernel::Bubble
                           ? (d2 <= c.sigma * c.sigma ? 1.0 : 0.0)
                           : std::exp(-d2 / (2.0 * c.sigma * c.sigma));
      for (std::size_t i = 0; i < c.dim; ++i) num[j][i] += h * x[i];
      den[j] += h;
    }
  }
  for (std::size_t j = 0; j < cells; ++j) {
    for (std::size_t i = 0; i < c.dim; ++i) {
      const double expected = den[j] > 0.0 ? num[j][i] / den[j] : cb.vector(j)[i];
      EXPECT_NEAR(updated.vector(j)[i], expected, 2e-3)
          << "cell " << j << " dim " << i;
    }
  }
}

class BatchEquationP : public ::testing::TestWithParam<SomCase> {};

TEST_P(BatchEquationP, AccumulatorMatchesDirectFormula) {
  expect_matches_eq5(GetParam(), SomGrid{GetParam().rows, GetParam().cols}, Kernel::Gaussian);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BatchEquationP,
    ::testing::Values(SomCase{1, 3, 3, 2, 20, 1.0}, SomCase{2, 5, 4, 3, 50, 2.0},
                      SomCase{3, 2, 8, 5, 30, 0.5}, SomCase{4, 6, 6, 1, 40, 3.0},
                      SomCase{5, 1, 10, 4, 25, 1.5}, SomCase{6, 7, 7, 8, 60, 2.5}));

/// The same oracle on the other topologies and on the bubble kernel.
struct GridCase {
  const char* name;
  SomCase som;
  GridTopology topology;
  bool toroidal;
  Kernel kernel;
};

void PrintTo(const GridCase& g, std::ostream* os) { *os << g.name; }

class BatchEquationGridP : public ::testing::TestWithParam<GridCase> {};

TEST_P(BatchEquationGridP, AccumulatorMatchesDirectFormula) {
  const GridCase& g = GetParam();
  SomGrid grid{g.som.rows, g.som.cols};
  grid.topology = g.topology;
  grid.toroidal = g.toroidal;
  expect_matches_eq5(g.som, grid, g.kernel);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, BatchEquationGridP,
    ::testing::Values(
        GridCase{"HexGaussian", {11, 5, 6, 3, 50, 1.5}, GridTopology::Hexagonal, false,
                 Kernel::Gaussian},
        GridCase{"HexOddRowsGaussian", {12, 7, 4, 4, 40, 2.5}, GridTopology::Hexagonal, false,
                 Kernel::Gaussian},
        GridCase{"TorusGaussian", {13, 6, 5, 3, 45, 2.0}, GridTopology::Rectangular, true,
                 Kernel::Gaussian},
        GridCase{"HexTorusGaussian", {14, 6, 6, 2, 60, 1.2}, GridTopology::Hexagonal, true,
                 Kernel::Gaussian},
        GridCase{"RectBubble", {15, 5, 5, 3, 40, 1.5}, GridTopology::Rectangular, false,
                 Kernel::Bubble},
        GridCase{"HexBubble", {16, 6, 5, 4, 50, 1.1}, GridTopology::Hexagonal, false,
                 Kernel::Bubble},
        GridCase{"TorusBubble", {17, 5, 7, 3, 35, 2.0}, GridTopology::Rectangular, true,
                 Kernel::Bubble},
        GridCase{"HexTorusBubble", {18, 7, 6, 5, 55, 1.6}, GridTopology::Hexagonal, true,
                 Kernel::Bubble}));

class UMatrixP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UMatrixP, UMatrixMatchesManualNeighbourAverages) {
  Rng rng(GetParam());
  Codebook cb(SomGrid{4, 5}, 3);
  cb.init_random(rng);
  const Matrix u = u_matrix(cb);
  // Check a corner (2 neighbours), an edge (3) and an interior cell (4).
  struct Probe {
    std::size_t r, c;
    std::vector<std::pair<std::size_t, std::size_t>> neigh;
  };
  const std::vector<Probe> probes = {
      {0, 0, {{0, 1}, {1, 0}}},
      {0, 2, {{0, 1}, {0, 3}, {1, 2}}},
      {2, 2, {{1, 2}, {3, 2}, {2, 1}, {2, 3}}},
  };
  for (const Probe& p : probes) {
    double sum = 0.0;
    for (const auto& [nr, nc] : p.neigh) {
      sum += std::sqrt(dist2(cb.vector(p.r * 5 + p.c), cb.vector(nr * 5 + nc)));
    }
    EXPECT_NEAR(u(p.r, p.c), sum / static_cast<double>(p.neigh.size()), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UMatrixP, ::testing::Range<std::uint64_t>(10, 16));

class SigmaMonotoneP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SigmaMonotoneP, ScheduleIsMonotoneAndHitsEndpoints) {
  SomParams p;
  p.epochs = GetParam();
  p.sigma_start = 12.0;
  p.sigma_end = 0.8;
  const SomGrid g{30, 30};
  EXPECT_DOUBLE_EQ(sigma_at(p, g, 0), 12.0);
  if (p.epochs > 1) {
    EXPECT_NEAR(sigma_at(p, g, p.epochs - 1), 0.8, 1e-9);
  }
  for (std::size_t e = 1; e < p.epochs; ++e) {
    EXPECT_LT(sigma_at(p, g, e), sigma_at(p, g, e - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Epochs, SigmaMonotoneP, ::testing::Values(2, 3, 5, 10, 50));

}  // namespace
}  // namespace mrbio::som
