#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace readys::util {

/// Splittable, fast pseudo-random generator (xoshiro256**).
///
/// Satisfies std::uniform_random_bit_generator so it can be used with the
/// <random> distributions, and offers convenience draws used throughout the
/// library. Each worker thread derives an independent stream with split().
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a 64-bit seed using splitmix64, which guarantees
  /// a well-mixed non-zero state for any seed value (including 0).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value. Inline: it is the innermost draw of every
  /// generator loop.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Throws std::invalid_argument when n == 0
  /// — drawing from an empty range is always an upstream bug (e.g. an
  /// empty candidate list) and must not silently yield index 0.
  std::size_t uniform_index(std::size_t n);

  /// Standard normal draw (Box–Muller with caching).
  double normal() noexcept;

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept;

  /// Derives an independent generator; deterministic given this state.
  Rng split() noexcept;

  /// Complete serialized generator state: the four xoshiro words plus
  /// the Box–Muller cache (value bit-cast to u64, presence flag), so a
  /// restored stream replays the exact tail — including a pending cached
  /// normal — with no draw lost or repeated.
  using State = std::array<std::uint64_t, 6>;

  State state() const noexcept;

  /// Restores a state captured by state(). The all-zero xoshiro state is
  /// a fixed point of the generator; set_state() rejects it with
  /// std::invalid_argument (it can only come from a corrupted snapshot,
  /// never from state()).
  void set_state(const State& st);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace readys::util
