// Deterministic, cross-platform random number engine.
//
// radloc's experiments must be reproducible bit-for-bit across standard
// libraries, so we implement our own engine (xoshiro256++) and our own
// distributions instead of relying on implementation-defined std::
// distribution algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace radloc {

/// SplitMix64 — used to expand a single 64-bit seed into engine state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Deterministically derives an independent child engine; used to give
  /// each trial / each subsystem its own stream.
  [[nodiscard]] Xoshiro256 split() { return Xoshiro256((*this)() ^ 0x6a09e667f3bcc909ULL); }

  /// Stream `index` of the family keyed by `key` — e.g. one stream per
  /// filter reading, so a reading's draws do not depend on how many draws
  /// earlier readings made. The index is mixed by one SplitMix64 step before
  /// it meets the key, so neighbouring indices seed unrelated states; the
  /// engine then expands the seed as reseed() does.
  [[nodiscard]] static Xoshiro256 stream(std::uint64_t key, std::uint64_t index) {
    return Xoshiro256(key ^ SplitMix64(index).next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

using Rng = Xoshiro256;

}  // namespace radloc
