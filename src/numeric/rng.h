#ifndef DIGEST_NUMERIC_RNG_H_
#define DIGEST_NUMERIC_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace digest {

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// The whole library draws randomness through this class so that every
/// simulation, test, and benchmark is reproducible from a single seed.
/// The generator is splittable via Fork(), which derives an independent
/// stream (used to give every node / walker its own stream).
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The draws the walk kernel makes on every hop (NextU64, NextDouble,
  // NextBernoulli, NextIndex) are defined in the header so they inline.

  /// Next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0 (0 returns 0 and
  /// draws nothing). Uses rejection to avoid modulo bias.
  uint64_t NextIndex(uint64_t bound) {
    return NextIndex(bound, IndexThreshold(bound));
  }

  /// NextIndex with the rejection threshold precomputed by the caller:
  /// `threshold` must equal IndexThreshold(bound). Draws exactly the
  /// same stream as NextIndex(bound) without its per-call division —
  /// the walk kernel caches one threshold per node degree.
  uint64_t NextIndex(uint64_t bound, uint64_t threshold) {
    if (bound == 0) return 0;
    while (true) {
      const uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Rejection threshold of NextIndex(bound): 2^64 mod bound, the count
  /// of low raw values that would bias `r % bound`.
  static uint64_t IndexThreshold(uint64_t bound) {
    return bound == 0 ? 0 : (-bound) % bound;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Marsaglia polar method).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// True with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Exponential variate with rate `lambda` (> 0).
  double NextExponential(double lambda);

  /// Index drawn proportionally to non-negative `weights`. Returns
  /// weights.size() if all weights are zero/empty.
  size_t NextWeightedIndex(const std::vector<double>& weights);

  /// Derives an independent generator from this one (SplitMix-style jump).
  Rng Fork();

  /// Derives the `index`-th substream of this generator WITHOUT advancing
  /// it. Unlike Fork() — which consumes one draw, so the k-th fork depends
  /// on how many forks preceded it — Split(i) is a pure function of
  /// (current state, i): any caller holding an equal-state generator gets
  /// the same substream for the same index, in any order and from any
  /// thread. The parallel walk executor keys one substream per walk index
  /// so that walk i draws identically no matter which worker runs it.
  ///
  /// Derivation: the four state words are hashed together with the index
  /// through SplitMix64's finalizer into a 64-bit substream seed. The
  /// mixing constants are SplitMix64's published ones — the golden-ratio
  /// increment 0x9e3779b97f4a7c15 (weyl sequence step) and the
  /// variance-maximizing multipliers 0xbf58476d1ce4e5b9 /
  /// 0x94d049bb133111eb from Stafford's Mix13 finalizer — giving full
  /// avalanche between adjacent indices. Per-word salts (distinct odd
  /// constants) keep permuted state words from colliding.
  Rng Split(uint64_t index) const;

  /// Complete serializable generator state. Restoring a saved state makes
  /// the generator resume its stream exactly where the save happened —
  /// used by the engine checkpoint/restore path, which must replay the
  /// same draws an uninterrupted run would have made.
  struct State {
    uint64_t words[4] = {0, 0, 0, 0};
    bool has_spare_gaussian = false;
    double spare_gaussian = 0.0;
  };

  State SaveState() const {
    State s;
    s.words[0] = state_[0];
    s.words[1] = state_[1];
    s.words[2] = state_[2];
    s.words[3] = state_[3];
    s.has_spare_gaussian = has_spare_gaussian_;
    s.spare_gaussian = spare_gaussian_;
    return s;
  }

  void RestoreState(const State& s) {
    state_[0] = s.words[0];
    state_[1] = s.words[1];
    state_[2] = s.words[2];
    state_[3] = s.words[3];
    has_spare_gaussian_ = s.has_spare_gaussian;
    spare_gaussian_ = s.spare_gaussian;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace digest

#endif  // DIGEST_NUMERIC_RNG_H_
