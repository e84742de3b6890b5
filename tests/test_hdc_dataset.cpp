#include "hdc/dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>

namespace tdam::hdc {
namespace {

TEST(Dataset, AddAndAccess) {
  Dataset ds(3, 2);
  ds.add_sample({1.0f, 2.0f, 3.0f}, 1);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.label(0), 1);
  EXPECT_EQ(ds.sample(0)[2], 3.0f);
}

TEST(Dataset, Validation) {
  EXPECT_THROW(Dataset(0, 2), std::invalid_argument);
  EXPECT_THROW(Dataset(3, 1), std::invalid_argument);
  Dataset ds(2, 2);
  EXPECT_THROW(ds.add_sample({1.0f}, 0), std::invalid_argument);
  EXPECT_THROW(ds.add_sample({1.0f, 2.0f}, 2), std::invalid_argument);
  EXPECT_THROW(ds.sample(0), std::out_of_range);
}

TEST(Dataset, NormalizationZeroesMeanUnitVariance) {
  Rng rng(1);
  Dataset ds(2, 2);
  for (int i = 0; i < 500; ++i)
    ds.add_sample({static_cast<float>(rng.gaussian(5.0, 2.0)),
                   static_cast<float>(rng.gaussian(-3.0, 0.5))},
                  i % 2);
  const auto norm = ds.fit_normalization();
  ds.apply_normalization(norm);
  const auto post = ds.fit_normalization();
  EXPECT_NEAR(post.mean[0], 0.0, 1e-4);
  EXPECT_NEAR(post.mean[1], 0.0, 1e-4);
  EXPECT_NEAR(post.inv_std[0], 1.0, 1e-3);
  EXPECT_NEAR(post.inv_std[1], 1.0, 1e-3);
}

// std::string, not const char*: gtest prints a char pointer with its
// address, which ASLR changes on every test discovery, so the registered
// test names would differ from build to build.
class NamedGenerators
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(NamedGenerators, ShapesMatchPaperDatasets) {
  const auto [name, features, classes] = GetParam();
  Rng rng(2);
  TrainTestSplit split = [&] {
    if (name == "isolet") return make_isolet_like(rng, 300, 100);
    if (name == "ucihar") return make_ucihar_like(rng, 300, 100);
    return make_face_like(rng, 300, 100);
  }();
  EXPECT_EQ(split.train.num_features(), features);
  EXPECT_EQ(split.train.num_classes(), classes);
  EXPECT_EQ(split.train.size(), 300u);
  EXPECT_EQ(split.test.size(), 100u);

  // All classes present in training data.
  std::set<int> seen;
  for (std::size_t i = 0; i < split.train.size(); ++i)
    seen.insert(split.train.label(i));
  EXPECT_EQ(static_cast<int>(seen.size()), classes);
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, NamedGenerators,
    ::testing::Values(std::make_tuple(std::string("isolet"), 617, 26),
                      std::make_tuple(std::string("ucihar"), 561, 6),
                      std::make_tuple(std::string("face"), 608, 2)));

TEST(Generators, DeterministicForSameSeed) {
  Rng a(3), b(3);
  const auto s1 = make_face_like(a, 50, 20);
  const auto s2 = make_face_like(b, 50, 20);
  for (std::size_t i = 0; i < s1.train.size(); ++i) {
    EXPECT_EQ(s1.train.label(i), s2.train.label(i));
    EXPECT_EQ(s1.train.sample(i)[0], s2.train.sample(i)[0]);
  }
}

TEST(Generators, ClassesAreSeparable) {
  // Nearest-centroid accuracy on the raw features must beat chance by a
  // wide margin — otherwise the HDC accuracy study is meaningless.
  Rng rng(4);
  const auto split = make_isolet_like(rng, 1000, 300);
  const int f = split.train.num_features();
  const int k = split.train.num_classes();
  std::vector<double> centroids(static_cast<std::size_t>(k * f), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    const int y = split.train.label(i);
    counts[static_cast<std::size_t>(y)]++;
    for (int j = 0; j < f; ++j)
      centroids[static_cast<std::size_t>(y * f + j)] += split.train.sample(i)[j];
  }
  for (int c = 0; c < k; ++c)
    for (int j = 0; j < f; ++j)
      centroids[static_cast<std::size_t>(c * f + j)] /=
          std::max(1, counts[static_cast<std::size_t>(c)]);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    double best = 1e300;
    int arg = 0;
    for (int c = 0; c < k; ++c) {
      double dist = 0.0;
      for (int j = 0; j < f; ++j) {
        const double d = split.test.sample(i)[j] -
                         centroids[static_cast<std::size_t>(c * f + j)];
        dist += d * d;
      }
      if (dist < best) {
        best = dist;
        arg = c;
      }
    }
    if (arg == split.test.label(i)) ++correct;
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(split.test.size());
  EXPECT_GT(acc, 0.8);
}

TEST(GaussianMixture, Validation) {
  Rng rng(5);
  EXPECT_THROW(make_gaussian_mixture(rng, 10, 4, 2, 10, 1.0, 1.0, 0.3),
               std::invalid_argument);
}

}  // namespace
}  // namespace tdam::hdc
