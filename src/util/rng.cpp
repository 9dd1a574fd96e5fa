#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace readys::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform() noexcept {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("Rng::uniform_index: n must be positive");
  }
  // Rejection-free multiply-shift; bias is negligible for n << 2^64.
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

Rng Rng::split() noexcept {
  return Rng((*this)());
}

Rng::State Rng::state() const noexcept {
  return {s_[0], s_[1], s_[2], s_[3],
          std::bit_cast<std::uint64_t>(cached_normal_),
          has_cached_normal_ ? 1ULL : 0ULL};
}

void Rng::set_state(const State& st) {
  if ((st[0] | st[1] | st[2] | st[3]) == 0) {
    throw std::invalid_argument(
        "Rng::set_state: all-zero xoshiro state (corrupted snapshot)");
  }
  for (int i = 0; i < 4; ++i) s_[i] = st[static_cast<std::size_t>(i)];
  cached_normal_ = std::bit_cast<double>(st[4]);
  has_cached_normal_ = st[5] != 0;
}

}  // namespace readys::util
