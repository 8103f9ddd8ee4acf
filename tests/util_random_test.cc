#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <vector>

namespace oodb {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng r(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolProbability) {
  Rng r(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator z(10, 0.0, 5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[z.Next()];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [k, c] : counts) {
    (void)k;
    EXPECT_NEAR(c / 20000.0, 0.1, 0.03);
  }
}

TEST(ZipfTest, SkewedWhenThetaHigh) {
  ZipfGenerator z(1000, 0.99, 5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[z.Next()];
  // Rank 0 must dominate rank 500 heavily.
  EXPECT_GT(counts[0], 1000);
  EXPECT_LT(counts[500], counts[0] / 10);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator z(50, 0.7, 3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 50u);
}

TEST(ZipfTest, SingleElementDomain) {
  ZipfGenerator z(1, 0.5, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Next(), 0u);
}

// Pearson chi-square statistic against per-key expected counts.
double ChiSquare(const std::map<uint64_t, int>& counts, uint64_t n,
                 int draws, const std::function<double(uint64_t)>& pmf) {
  double stat = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    double expected = pmf(k) * draws;
    auto it = counts.find(k);
    double observed = it == counts.end() ? 0.0 : it->second;
    stat += (observed - expected) * (observed - expected) / expected;
  }
  return stat;
}

// The exact pmf induced by the YCSB map u -> key: keys 0 and 1 get
// direct slices of [0,1), everything past (1 + 0.5^theta)/zeta(n) goes
// through the continuous inverse k = floor(n * (eta*u - eta + 1)^alpha),
// whose per-key mass is the length of the preimage interval. This is
// what the generator is *supposed* to emit (the YCSB approximation of
// Zipf), so a chi-square against it tests the RNG and the transform,
// not the approximation error.
std::vector<double> YcsbZipfPmf(uint64_t n, double theta) {
  double zetan = 0.0;
  for (uint64_t k = 1; k <= n; ++k) zetan += 1.0 / std::pow(double(k), theta);
  double zeta2 = 1.0 + std::pow(0.5, theta);
  double eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
  double u_lo = zeta2 / zetan;  // below: direct slices for keys 0, 1
  std::vector<double> pmf(n, 0.0);
  pmf[0] = 1.0 / zetan;
  pmf[1] = std::pow(0.5, theta) / zetan;
  // u at which the continuous inverse crosses key k (increasing in k).
  auto u_at = [&](uint64_t k) {
    return 1.0 + (std::pow(double(k) / double(n), 1.0 - theta) - 1.0) / eta;
  };
  for (uint64_t k = 0; k < n; ++k) {
    double lo = std::max(u_at(k), u_lo);
    double hi = std::min(u_at(k + 1), 1.0);
    if (hi > lo) pmf[k] += hi - lo;
  }
  return pmf;
}

TEST(ZipfTest, ChiSquareAgainstInducedPmf) {
  const uint64_t n = 20;
  const double theta = 0.9;
  const int draws = 200000;
  ZipfGenerator z(n, theta, 77);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < draws; ++i) ++counts[z.Next()];
  std::vector<double> pmf = YcsbZipfPmf(n, theta);
  double stat =
      ChiSquare(counts, n, draws, [&](uint64_t k) { return pmf[k]; });
  // 19 degrees of freedom; the 0.999 quantile is ~43.8.
  EXPECT_LT(stat, 43.8) << "chi-square " << stat;
  // And the approximation itself must still be recognisably Zipf: the
  // head keys carry the exact harmonic weights.
  double zetan = 0.0;
  for (uint64_t k = 1; k <= n; ++k) zetan += 1.0 / std::pow(double(k), theta);
  EXPECT_NEAR(double(counts[0]) / draws, 1.0 / zetan, 0.01);
  EXPECT_NEAR(double(counts[1]) / draws, std::pow(0.5, theta) / zetan, 0.01);
  for (uint64_t k = 1; k < n; ++k) {
    EXPECT_GE(pmf[k - 1], pmf[k] - 1e-12) << "pmf not non-increasing at " << k;
  }
}

}  // namespace
}  // namespace oodb
