#ifndef CLOUDSURV_COMMON_RNG_H_
#define CLOUDSURV_COMMON_RNG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>

namespace cloudsurv {

/// 64-bit Mersenne Twister with exactly the parameters and output of the
/// C++ standard's mt19937_64: for every seed, the k-th call returns the
/// k-th output of that engine seeded alike. It differs only in when it
/// does the work.
///
/// The standard engine fills all 312 state words at construction and twists
/// all of them on the first draw, so an engine that only ever yields a
/// handful of numbers still pays for 624 word updates. This engine keeps
/// only word 0 at construction. Within the first block, output i seeds
/// words up to i + 156 (the furthest word its twist reads) and twists
/// word i in place: exactly the update the standard's block twist makes
/// to word i, in the same order, reading the same old and new words. From
/// the second block on it runs the ordinary bulk twist. A stream of n
/// draws therefore costs O(n) however short it is, and a long stream
/// costs what the standard engine costs.
///
/// Satisfies UniformRandomBitGenerator, so std::shuffle and the
/// std::*_distribution templates consume the same 64-bit sequence they
/// would from the standard engine.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  static constexpr result_type default_seed = 5489u;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit MersenneTwister64(result_type seed = default_seed) {
    x_[0] = seed;
  }

  // Copies only the words that hold state; the rest of the first block
  // is not seeded yet.
  MersenneTwister64(const MersenneTwister64& other) { *this = other; }
  MersenneTwister64& operator=(const MersenneTwister64& other) {
    if (this == &other) return *this;
    index_ = other.index_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
    std::copy(other.x_, other.x_ + seeded_, x_);
    return *this;
  }

  result_type operator()() {
    if (index_ >= ready_) Refill();
    uint64_t z = x_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;  // State words per block.
  static constexpr size_t kM = 156;  // Twist offset.

  // One word of the block twist: the new value of the word whose old
  // value is `word`, given the old value of the next word and the word
  // kM ahead (mod kN).
  static uint64_t Twist(uint64_t word, uint64_t next, uint64_t ahead) {
    const uint64_t y =
        (word & 0xFFFFFFFF80000000ULL) | (next & 0x7FFFFFFFULL);
    return ahead ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
  }

  // Makes x_[index_] outputtable.
  void Refill() {
    if (index_ >= kN) {
      TwistBlock();
      return;
    }
    // Still in the first block: twist word i alone. Words i+1 and i+kM
    // (for i < kN-kM) are old, word i-(kN-kM) and, for the last word,
    // word 0 are new: the order the bulk twist below updates them in.
    const size_t i = index_;
    if (i < kN - kM) {
      SeedThrough(i + kM);
      x_[i] = Twist(x_[i], x_[i + 1], x_[i + kM]);
    } else if (i + 1 < kN) {
      x_[i] = Twist(x_[i], x_[i + 1], x_[i + kM - kN]);
    } else {
      x_[i] = Twist(x_[i], x_[0], x_[kM - 1]);
    }
    ready_ = i + 1;
  }

  // Seeds words seeded_..k with the standard's initialization recurrence.
  void SeedThrough(size_t k) {
    for (; seeded_ <= k; ++seeded_) {
      const uint64_t prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  // The standard's block twist over a fully twisted previous block.
  void TwistBlock() {
    size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = Twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k + 1 < kN; ++k) {
      x_[k] = Twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 1] = Twist(x_[kN - 1], x_[0], x_[kM - 1]);
    index_ = 0;
    ready_ = kN;
  }

  size_t index_ = 0;   // Next word to output.
  size_t ready_ = 0;   // Words [0, ready_) of the current block are twisted.
  size_t seeded_ = 1;  // Words [0, seeded_) hold state.
  // Left uninitialized on purpose: zeroing 2.5 KB would cost a short
  // fork more than its draws. Nothing reads a word at or past seeded_.
  uint64_t x_[kN];
};

/// Deterministic pseudo-random source. Every stochastic component in the
/// library takes an explicit seed; nothing reads the wall clock or
/// std::random_device, so any run is exactly reproducible from its seed.
///
/// The engine is MersenneTwister64 (the standard mt19937_64 stream) whose
/// seed is pre-mixed with SplitMix64 so that adjacent integer seeds
/// (0, 1, 2, ...) produce uncorrelated streams. A fork that draws n < 156
/// numbers costs a seeding chain of about 156 + n steps plus its n draws,
/// instead of a full 312-word seed and twist.
class Rng {
 public:
  /// Constructs a generator for the given seed. Equal seeds yield equal
  /// streams.
  explicit Rng(uint64_t seed) : engine_(Mix(seed)), seed_base_(seed) {}

  /// Derives an independent child generator. Useful for giving each
  /// simulated entity (subscription, database) its own stream so that
  /// adding entities does not perturb the draws of existing ones.
  Rng Fork(uint64_t salt) const {
    return Rng(Mix(seed_base_ ^ (salt * 0x9E3779B97F4A7C15ULL)));
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Standard normal draw scaled to (mean, stddev).
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Lognormal draw with the given log-space parameters.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential draw with the given rate (lambda).
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Weibull draw with shape k and scale lambda.
  double Weibull(double shape, double scale) {
    return std::weibull_distribution<double>(shape, scale)(engine_);
  }

  /// Poisson draw with the given mean.
  int64_t Poisson(double mean) {
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Access to the underlying engine for std::shuffle and
  /// std::*_distribution interop.
  MersenneTwister64& engine() { return engine_; }

 private:
  // SplitMix64 finalizer; decorrelates nearby seeds.
  static uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  MersenneTwister64 engine_;
  uint64_t seed_base_ = 0;
};

}  // namespace cloudsurv

#endif  // CLOUDSURV_COMMON_RNG_H_
