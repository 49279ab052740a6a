// Deterministic, seedable random number generation.
//
// Simulations must be bit-reproducible (ARCHITECTURE.md, "Determinism"),
// so all randomness in the library flows through this engine rather than
// std::random_device or rand().
#pragma once

#include <cstdint>

namespace cms {

/// SplitMix64 finalizer: a stateless bijective mixer. Used for
/// counter-based random streams — f(seed, key, n) yields the n-th draw of
/// an independent stream per key with no carried state, so the draw
/// depends only on the key's own history, never on interleaving with
/// other keys (the property trace replay of kRandom replacement needs,
/// see mem/cache.cpp).
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded through splitmix64 so that any 64-bit seed yields a well-mixed
/// state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& w : state_) w = splitmix64(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible
    // for simulation purposes and determinism is preserved.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return next_double() < p; }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace cms
