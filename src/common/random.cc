#include "common/random.h"

#include <cassert>
#include <cmath>

namespace hyder {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(state);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

uint64_t Rng::UniformRange(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  return lo + Uniform(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

namespace {
double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}
}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta > 0.0 && theta < 1.0);
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

uint64_t ZipfGenerator::Next(Rng& rng) const {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto v = static_cast<uint64_t>(double(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

HotspotGenerator::HotspotGenerator(uint64_t n, double hot_fraction)
    : n_(n), hot_fraction_(hot_fraction) {
  assert(n > 0);
  if (hot_fraction_ <= 0.0) hot_fraction_ = 1.0 / double(n);
  if (hot_fraction_ > 1.0) hot_fraction_ = 1.0;
  hot_count_ = static_cast<uint64_t>(double(n) * hot_fraction_);
  if (hot_count_ == 0) hot_count_ = 1;
}

uint64_t HotspotGenerator::Next(Rng& rng) const {
  if (hot_fraction_ >= 1.0) return rng.Uniform(n_);
  // Fraction (1 - x) of operations hit the hot set of x*n items.
  if (rng.NextDouble() < 1.0 - hot_fraction_) {
    return rng.Uniform(hot_count_);
  }
  if (hot_count_ >= n_) return rng.Uniform(n_);
  return hot_count_ + rng.Uniform(n_ - hot_count_);
}

}  // namespace hyder
