#ifndef HYDER2_COMMON_RANDOM_H_
#define HYDER2_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace hyder {

/// Deterministic 64-bit PRNG (xoshiro256**), seeded via SplitMix64.
///
/// Every source of randomness in the repository (workload generation, property
/// tests, simulated latencies) flows through explicitly seeded `Rng` instances
/// so that runs are reproducible and, critically for Hyder II, so that all
/// simulated servers can be driven by identical deterministic inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). `n` must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

/// The classic SplitMix64 step, also usable standalone for hashing integers.
uint64_t SplitMix64(uint64_t& state);

/// Stateless 64-bit mix (finalizer of SplitMix64); good avalanche behaviour.
uint64_t Mix64(uint64_t x);

/// Zipf-distributed key picker over [0, n) with parameter `theta` in (0, 1),
/// using the Gray et al. rejection-free method popularized by YCSB.
///
/// Item 0 is the most popular. Callers typically scramble the rank with
/// `Mix64` to spread hot items across the key space.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  /// Draws a rank in [0, n); rank 0 is hottest.
  uint64_t Next(Rng& rng) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// Hotspot distribution per the paper (§6.4.5): a fraction `hot_fraction`
/// of the items receives a fraction (1 - hot_fraction) of the accesses.
/// `hot_fraction == 1.0` degenerates to uniform.
class HotspotGenerator {
 public:
  HotspotGenerator(uint64_t n, double hot_fraction);

  uint64_t Next(Rng& rng) const;

  double hot_fraction() const { return hot_fraction_; }

 private:
  uint64_t n_;
  double hot_fraction_;
  uint64_t hot_count_;
};

}  // namespace hyder

#endif  // HYDER2_COMMON_RANDOM_H_
