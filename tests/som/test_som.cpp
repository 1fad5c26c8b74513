// Tests for the serial SOM: BMU search, neighbourhood, batch equation,
// training convergence, metrics and visual-output helpers.
#include "som/som.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace mrbio::som {
namespace {

Matrix cluster_data(Rng& rng, std::size_t per_cluster,
                    const std::vector<std::vector<float>>& centers, float spread) {
  const std::size_t dim = centers.at(0).size();
  Matrix data(per_cluster * centers.size(), dim);
  std::size_t r = 0;
  for (const auto& center : centers) {
    for (std::size_t k = 0; k < per_cluster; ++k, ++r) {
      auto row = data.row(r);
      for (std::size_t i = 0; i < dim; ++i) {
        row[i] = center[i] + static_cast<float>(rng.normal(0.0, spread));
      }
    }
  }
  return data;
}

TEST(SomGrid, Indexing) {
  const SomGrid g{3, 4};
  EXPECT_EQ(g.cells(), 12u);
  EXPECT_EQ(g.row_of(7), 1u);
  EXPECT_EQ(g.col_of(7), 3u);
  EXPECT_DOUBLE_EQ(g.grid_dist2(0, 7), 1.0 + 9.0);
  EXPECT_DOUBLE_EQ(g.grid_dist2(5, 5), 0.0);
}

TEST(Codebook, ConstructionValidates) {
  EXPECT_THROW(Codebook(SomGrid{0, 5}, 3), InputError);
  EXPECT_THROW(Codebook(SomGrid{5, 5}, 0), InputError);
  const Codebook cb(SomGrid{5, 5}, 3);
  EXPECT_EQ(cb.dim(), 3u);
  EXPECT_EQ(cb.grid().cells(), 25u);
}

TEST(Codebook, RandomInitInRange) {
  Codebook cb(SomGrid{4, 4}, 8);
  Rng rng(1);
  cb.init_random(rng, -1.0f, 2.0f);
  for (std::size_t c = 0; c < 16; ++c) {
    for (const float w : cb.vector(c)) {
      EXPECT_GE(w, -1.0f);
      EXPECT_LT(w, 2.0f);
    }
  }
}

TEST(Codebook, PcaInitSpansDataPlane) {
  // Data along a line in 5-D: PCA init should align the grid's long axis
  // with that line, so corner vectors differ strongly along it.
  Rng rng(2);
  Matrix data(200, 5);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const float t = static_cast<float>(rng.uniform(-1.0, 1.0));
    auto row = data.row(r);
    row[0] = 10.0f * t;
    row[1] = -10.0f * t;
    for (std::size_t i = 2; i < 5; ++i) row[i] = static_cast<float>(rng.normal(0.0, 0.1));
  }
  Codebook cb(SomGrid{8, 8}, 5);
  cb.init_pca(data.view());
  const auto c00 = cb.vector(0);
  const auto c77 = cb.vector(63);
  // Opposite corners should differ along dimension 0 far more than along
  // the noise dimensions.
  EXPECT_GT(std::abs(c00[0] - c77[0]), 10.0f * std::abs(c00[3] - c77[3]));
}

TEST(Som, Dist2AndBmu) {
  Codebook cb(SomGrid{2, 2}, 2);
  const float vals[4][2] = {{0, 0}, {1, 0}, {0, 1}, {5, 5}};
  for (std::size_t c = 0; c < 4; ++c) {
    auto w = cb.vector(c);
    w[0] = vals[c][0];
    w[1] = vals[c][1];
  }
  const float x[2] = {4.5f, 4.7f};
  EXPECT_EQ(find_bmu(cb, x), 3u);
  const float y[2] = {0.9f, 0.1f};
  EXPECT_EQ(find_bmu(cb, y), 1u);
}

TEST(Som, BmuTieBreaksToLowestIndex) {
  Codebook cb(SomGrid{1, 3}, 1);
  cb.vector(0)[0] = 1.0f;
  cb.vector(1)[0] = 1.0f;
  cb.vector(2)[0] = 1.0f;
  const float x[1] = {1.0f};
  EXPECT_EQ(find_bmu(cb, x), 0u);
}

TEST(Som, Bmu2FindsRunnerUp) {
  Codebook cb(SomGrid{1, 3}, 1);
  cb.vector(0)[0] = 0.0f;
  cb.vector(1)[0] = 1.0f;
  cb.vector(2)[0] = 5.0f;
  const float x[1] = {0.4f};
  const auto [b1, b2] = find_bmu2(cb, x);
  EXPECT_EQ(b1, 0u);
  EXPECT_EQ(b2, 1u);
}

TEST(Som, NeighborhoodGaussianShape) {
  const SomGrid g{10, 10};
  EXPECT_DOUBLE_EQ(neighborhood(g, 55, 55, 2.0), 1.0);
  const double h1 = neighborhood(g, 55, 56, 2.0);
  const double h2 = neighborhood(g, 55, 57, 2.0);
  EXPECT_GT(h1, h2);
  EXPECT_NEAR(h1, std::exp(-1.0 / 8.0), 1e-12);
  EXPECT_NEAR(h2, std::exp(-4.0 / 8.0), 1e-12);
}

TEST(Som, SigmaScheduleDecaysToEnd) {
  SomParams p;
  p.epochs = 10;
  p.sigma_end = 1.0;
  const SomGrid g{50, 50};
  const double s0 = sigma_at(p, g, 0);
  const double s9 = sigma_at(p, g, 9);
  EXPECT_DOUBLE_EQ(s0, 25.0);  // max(rows, cols) / 2
  EXPECT_NEAR(s9, 1.0, 1e-9);
  for (std::size_t e = 1; e < 10; ++e) {
    EXPECT_LT(sigma_at(p, g, e), sigma_at(p, g, e - 1));
  }
}

TEST(BatchAccumulator, SingleVectorMovesBmuToInput) {
  Codebook cb(SomGrid{3, 3}, 2);
  Rng rng(3);
  cb.init_random(rng);
  const float x[2] = {0.5f, 0.5f};
  BatchAccumulator acc(cb.grid(), 2);
  acc.add(cb, x, 0.5);
  acc.apply(cb);
  // With one input every updated neuron's weights become exactly x.
  for (std::size_t c = 0; c < 9; ++c) {
    EXPECT_NEAR(cb.vector(c)[0], 0.5f, 1e-5);
    EXPECT_NEAR(cb.vector(c)[1], 0.5f, 1e-5);
  }
}

TEST(BatchAccumulator, ShardedMergeEqualsSerial) {
  // The core parallelization property (paper Fig. 2): accumulating shards
  // independently and merging must equal one serial accumulation.
  Rng rng(4);
  Matrix data = cluster_data(rng, 40, {{0, 0, 0}, {1, 1, 1}}, 0.2f);
  Codebook cb(SomGrid{4, 4}, 3);
  cb.init_random(rng);
  const double sigma = 1.5;

  BatchAccumulator serial(cb.grid(), 3);
  for (std::size_t r = 0; r < data.rows(); ++r) serial.add(cb, data.row(r), sigma);

  BatchAccumulator shard1(cb.grid(), 3);
  BatchAccumulator shard2(cb.grid(), 3);
  for (std::size_t r = 0; r < 40; ++r) shard1.add(cb, data.row(r), sigma);
  for (std::size_t r = 40; r < 80; ++r) shard2.add(cb, data.row(r), sigma);
  shard1.merge(shard2);

  for (std::size_t i = 0; i < serial.bmu_sums().size(); ++i) {
    EXPECT_NEAR(serial.bmu_sums()[i], shard1.bmu_sums()[i], 1e-3);
  }
  for (std::size_t i = 0; i < serial.bmu_counts().size(); ++i) {
    EXPECT_NEAR(serial.bmu_counts()[i], shard1.bmu_counts()[i], 1e-3);
  }
}

TEST(BatchAccumulator, ZeroDenominatorKeepsWeights) {
  Codebook cb(SomGrid{2, 2}, 2);
  cb.vector(3)[0] = 42.0f;
  const BatchAccumulator acc(cb.grid(), 2);  // nothing added
  acc.apply(cb);
  EXPECT_FLOAT_EQ(cb.vector(3)[0], 42.0f);
}

TEST(BatchAccumulator, SumsEachInputIntoItsBmuOnly) {
  Rng rng(6);
  Matrix data = cluster_data(rng, 15, {{0, 0, 0}, {1, 1, 1}}, 0.3f);
  Codebook cb(SomGrid{4, 4}, 3);
  cb.init_random(rng);
  BatchAccumulator acc(cb.grid(), 3, 1.5, Kernel::Gaussian);
  std::vector<double> want_sum(16 * 3, 0.0);
  std::vector<float> want_count(16, 0.0f);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto x = data.row(r);
    const std::size_t bmu = find_bmu(cb, x);
    EXPECT_EQ(acc.add(cb, x, 1.5, Kernel::Gaussian), dist2(x, cb.vector(bmu)));
    for (std::size_t i = 0; i < 3; ++i) want_sum[bmu * 3 + i] += x[i];
    want_count[bmu] += 1.0f;
  }
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_EQ(acc.bmu_counts()[c], want_count[c]) << "cell " << c;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(acc.bmu_sums()[c * 3 + i], want_sum[c * 3 + i], 1e-4) << "cell " << c;
    }
  }
}

TEST(BatchAccumulator, BoundToOneSigmaAndKernel) {
  Codebook cb(SomGrid{3, 3}, 2);
  Rng rng(7);
  cb.init_random(rng);
  const float x[2] = {0.25f, 0.75f};

  // Two-argument form: the first add() binds the pair.
  BatchAccumulator first(cb.grid(), 2);
  first.add(cb, x, 1.0);
  first.add(cb, x, 1.0, Kernel::Gaussian);
  EXPECT_THROW(first.add(cb, x, 2.0), LogicError);
  EXPECT_THROW(first.add(cb, x, 1.0, Kernel::Bubble), LogicError);

  // Four-argument form: bound from the start.
  BatchAccumulator bubble(cb.grid(), 2, 1.0, Kernel::Bubble);
  EXPECT_THROW(bubble.add(cb, x, 1.0, Kernel::Gaussian), LogicError);
  EXPECT_THROW(first.merge(bubble), LogicError);
  EXPECT_THROW(BatchAccumulator(cb.grid(), 2, 0.0, Kernel::Gaussian), LogicError);

  // Same pair merges; an empty unbound shard merges into anything, and an
  // unbound accumulator takes the pair of the shard merged into it.
  BatchAccumulator same(cb.grid(), 2, 1.0, Kernel::Gaussian);
  same.add(cb, x, 1.0);
  first.merge(same);
  first.merge(BatchAccumulator(cb.grid(), 2));
  EXPECT_EQ(first.bmu_counts()[find_bmu(cb, x)], 3.0f);
  BatchAccumulator unbound(cb.grid(), 2);
  unbound.merge(bubble);
  EXPECT_THROW(unbound.add(cb, x, 1.0, Kernel::Gaussian), LogicError);
}

TEST(NeighborhoodTable, MatchesNeighborhoodBitForBit) {
  // Odd and even row counts, every topology, wrapped and not: the table's
  // key must keep both row parities (hexagonal offsets) and the signed
  // deltas (toroidal wrap), or some pair below differs.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {{5, 7}, {6, 4}, {1, 6}};
  std::vector<SomGrid> grids;
  for (const auto& [rows, cols] : shapes) {
    for (const GridTopology topo : {GridTopology::Rectangular, GridTopology::Hexagonal}) {
      for (const bool toroidal : {false, true}) {
        SomGrid g{rows, cols};
        g.topology = topo;
        g.toroidal = toroidal;
        grids.push_back(g);
      }
    }
  }
  for (const SomGrid& g : grids) {
    for (const Kernel kernel : {Kernel::Gaussian, Kernel::Bubble}) {
      for (const double sigma : {0.6, 1.0, 2.3}) {
        const NeighborhoodTable table(g, sigma, kernel);
        for (std::size_t c = 0; c < g.cells(); ++c) {
          for (std::size_t j = 0; j < g.cells(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(table(c, j)),
                      std::bit_cast<std::uint64_t>(neighborhood(g, c, j, sigma, kernel)))
                << g.rows << "x" << g.cols << " topology " << static_cast<int>(g.topology)
                << " toroidal " << g.toroidal << " kernel " << static_cast<int>(kernel)
                << " sigma " << sigma << " c " << c << " j " << j;
          }
        }
      }
    }
  }
}

TEST(TrainBatch, ReducesQuantizationError) {
  Rng rng(5);
  Matrix data = cluster_data(rng, 60, {{0, 0, 0, 0}, {2, 2, 0, 0}, {0, 2, 2, 2}}, 0.15f);
  Codebook cb(SomGrid{6, 6}, 4);
  cb.init_random(rng);
  const double before = quantization_error(cb, data.view());
  SomParams p;
  p.epochs = 12;
  train_batch(cb, data.view(), p);
  const double after = quantization_error(cb, data.view());
  EXPECT_LT(after, before * 0.5);
  EXPECT_LT(after, 0.5);
}

TEST(TrainBatch, OrderIndependent) {
  // The paper: "unlike the online version, the batch algorithm is not
  // influenced by the order in which the input vectors are presented."
  Rng rng(6);
  Matrix data = cluster_data(rng, 30, {{0, 0}, {1, 1}}, 0.1f);
  Matrix reversed(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto src = data.row(data.rows() - 1 - r);
    std::copy(src.begin(), src.end(), reversed.row(r).begin());
  }
  // One epoch: the update must agree up to float summation noise. (Over
  // many epochs borderline BMU flips amplify rounding differences, so the
  // mathematical order-independence is only testable per epoch.)
  SomParams p;
  p.epochs = 1;
  Codebook cb1(SomGrid{4, 4}, 2);
  Rng seed_rng(7);
  cb1.init_random(seed_rng);
  Codebook cb2 = cb1;
  train_batch(cb1, data.view(), p);
  train_batch(cb2, reversed.view(), p);
  for (std::size_t c = 0; c < cb1.grid().cells(); ++c) {
    for (std::size_t i = 0; i < cb1.dim(); ++i) {
      EXPECT_NEAR(cb1.vector(c)[i], cb2.vector(c)[i], 1e-3);
    }
  }
  // And over several epochs the *quality* must still agree.
  SomParams p5;
  p5.epochs = 5;
  Codebook cb3 = cb1;
  Codebook cb4 = cb2;
  train_batch(cb3, data.view(), p5);
  train_batch(cb4, reversed.view(), p5);
  EXPECT_NEAR(quantization_error(cb3, data.view()), quantization_error(cb4, data.view()),
              0.02);
}

TEST(TrainBatch, EpochCallbackReportsProgress) {
  Rng rng(8);
  Matrix data = cluster_data(rng, 20, {{0, 0}}, 0.1f);
  Codebook cb(SomGrid{3, 3}, 2);
  cb.init_random(rng);
  std::vector<double> sigmas;
  std::vector<double> qerrs;
  SomParams p;
  p.epochs = 4;
  train_batch(cb, data.view(), p, [&](std::size_t, double sigma, double qerr) {
    sigmas.push_back(sigma);
    qerrs.push_back(qerr);
  });
  ASSERT_EQ(sigmas.size(), 4u);
  EXPECT_GT(sigmas.front(), sigmas.back());
  EXPECT_GT(qerrs.front(), qerrs.back());
}

TEST(TrainOnline, AlsoConverges) {
  Rng rng(9);
  Matrix data = cluster_data(rng, 50, {{0, 0, 0}, {2, 2, 2}}, 0.15f);
  Codebook cb(SomGrid{5, 5}, 3);
  cb.init_random(rng);
  SomParams p;
  p.epochs = 10;
  Rng train_rng(10);
  train_online(cb, data.view(), p, train_rng);
  EXPECT_LT(quantization_error(cb, data.view()), 0.6);
}

TEST(Som, TopographicErrorLowAfterTraining) {
  Rng rng(11);
  Matrix data = cluster_data(rng, 100, {{0, 0}, {1, 0}, {0, 1}, {1, 1}}, 0.2f);
  Codebook cb(SomGrid{8, 8}, 2);
  cb.init_pca(data.view());
  SomParams p;
  p.epochs = 15;
  train_batch(cb, data.view(), p);
  EXPECT_LT(topographic_error(cb, data.view()), 0.2);
}

TEST(Som, UMatrixShowsClusterBoundary) {
  // Two tight clusters at opposite corners: the U-matrix must have a ridge
  // (its max well above its min).
  Rng rng(12);
  Matrix data = cluster_data(rng, 100, {{0, 0, 0}, {4, 4, 4}}, 0.1f);
  Codebook cb(SomGrid{10, 10}, 3);
  cb.init_pca(data.view());
  SomParams p;
  p.epochs = 15;
  train_batch(cb, data.view(), p);
  const Matrix u = u_matrix(cb);
  float lo = u(0, 0);
  float hi = u(0, 0);
  for (std::size_t r = 0; r < u.rows(); ++r) {
    for (std::size_t c = 0; c < u.cols(); ++c) {
      lo = std::min(lo, u(r, c));
      hi = std::max(hi, u(r, c));
    }
  }
  EXPECT_GT(hi, 5.0f * std::max(lo, 1e-3f));
}

TEST(Som, CodebookRgbClampsAndShapes) {
  Codebook cb(SomGrid{2, 3}, 3);
  cb.vector(0)[0] = -0.5f;
  cb.vector(5)[2] = 1.5f;
  const Matrix img = codebook_rgb(cb);
  EXPECT_EQ(img.rows(), 2u);
  EXPECT_EQ(img.cols(), 9u);
  EXPECT_FLOAT_EQ(img(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img(1, 2 * 3 + 2), 1.0f);
}

TEST(Som, CodebookRgbRequires3D) {
  const Codebook cb(SomGrid{2, 2}, 4);
  EXPECT_THROW(codebook_rgb(cb), InputError);
}

TEST(Som, MetricsRejectEmptyData) {
  const Codebook cb(SomGrid{2, 2}, 2);
  const MatrixView empty;
  EXPECT_THROW(quantization_error(cb, empty), InputError);
  EXPECT_THROW(topographic_error(cb, empty), InputError);
}

}  // namespace
}  // namespace mrbio::som
