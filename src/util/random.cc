#include "util/random.h"

#include <cmath>

namespace oodb {

Rng::Rng(uint64_t seed) {
  // SplitMix64 seeding to avoid weak states.
  auto splitmix = [&seed]() {
    uint64_t z = (seed += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  s0_ = splitmix();
  s1_ = splitmix();
  if (s0_ == 0 && s1_ == 0) s1_ = 1;
}

uint64_t Rng::Next() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Debiased modulo via rejection on the tail.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta, uint64_t seed)
    : n_(n == 0 ? 1 : n), theta_(theta), rng_(seed) {
  zetan_ = Zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  double zeta2 = Zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ZipfGenerator::Next() {
  double u = rng_.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  uint64_t k = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k >= n_ ? n_ - 1 : k;
}

}  // namespace oodb
