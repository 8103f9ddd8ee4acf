// Deterministic pseudo-random utilities for workloads and property tests.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace oodb {

/// A small, fast, seedable PRNG (xorshift128+). Deterministic across
/// platforms so tests and benchmarks are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s0_;
  uint64_t s1_;
};

/// Zipfian key distribution over [0, n) with skew theta in [0, 1).
///
/// theta = 0 is uniform; theta near 1 is highly skewed. Uses the standard
/// YCSB-style rejection-free generator with precomputed zeta.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta, uint64_t seed = 42);

  /// Next key in [0, n).
  uint64_t Next();

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  Rng rng_;
};

}  // namespace oodb
