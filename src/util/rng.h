// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic choices in the simulator and the fault-injection campaigns
// flow through Rng so that a (seed, program) pair fully determines every
// result. The generator is xoshiro256** seeded via splitmix64, which has
// excellent statistical quality and is trivially portable.
#pragma once

#include <cstdint>

namespace tfsim {

// Stateless 64-bit finalizer/mixer (the splitmix64 output function).
// Useful for hashing small tuples deterministically. Inline: the state
// registry's hash upkeep calls it on every value-changing write.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// splitmix64 step; used for seeding and as a cheap stateless mixer.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return Mix64(state);
}

// xoshiro256** generator. Copyable; copies advance independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over all 64-bit values.
  std::uint64_t Next();

  // Uniform in [0, bound). bound must be > 0. Uses rejection to avoid bias.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextRange(std::int64_t lo, std::int64_t hi);

  // Uniform real in [0, 1).
  double NextDouble();

  // Bernoulli trial with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Derive an independent child generator; successive calls yield distinct
  // streams. Used to give each trial / module its own stream.
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace tfsim
