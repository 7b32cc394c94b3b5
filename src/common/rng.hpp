// rdcn: deterministic, fast pseudo-random number generation.
//
// The library never touches std::random_device or global state: every
// randomized component receives an explicitly seeded generator so that
// experiments are bit-reproducible.  Xoshiro256** is the workhorse
// (sub-nanosecond next(), passes BigCrush); SplitMix64 seeds it and
// derives independent child streams.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"

namespace rdcn {

/// SplitMix64: tiny splittable generator, used for seeding and for
/// deriving statistically independent child streams from a master seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: general-purpose 64-bit generator.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64
  /// (the construction recommended by the xoshiro authors).
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection
  /// method: unbiased without a modulo on the hot path.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    RDCN_DCHECK(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    RDCN_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Derives a child generator with an independent stream.  Children of the
  /// same parent with different tags are pairwise independent for all
  /// practical purposes (distinct SplitMix64 trajectories).
  Xoshiro256 split(std::uint64_t tag) noexcept {
    return Xoshiro256(next() ^ (tag * 0xd1342543de82ef95ULL));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Geometric sample: number of failures before the first success of a
/// Bernoulli(p) process; returns values in {0, 1, 2, ...}.
std::uint64_t sample_geometric(Xoshiro256& rng, double p);

/// Exponential sample with rate lambda (> 0).
double sample_exponential(Xoshiro256& rng, double lambda);

/// Fisher-Yates shuffle of [first, last).
template <typename It>
void shuffle(It first, It last, Xoshiro256& rng) {
  const auto n = static_cast<std::uint64_t>(last - first);
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.next_below(i);
    using std::swap;
    swap(first[i - 1], first[j]);
  }
}

/// Precomputed Zipf(s) sampler over {0, ..., n-1}: exact inverse CDF,
/// O(1) expected time per sample.
///
/// A draw u in [0, 1) maps to the first rank i with cdf[i] >= u -- exactly
/// what std::lower_bound over the cumulative weights returns -- but the
/// search starts from a guide table (Chen & Asau, 1974): m = the smallest
/// power of two >= n buckets, guide[k] = first i with cdf[i] >= k/m.  A draw
/// lands in bucket k = floor(u*m) and scans forward from guide[k], taking
/// at most 1 + n/m <= 2 comparisons in expectation.  The table costs m < 2n
/// 32-bit entries (< 8n bytes) beside the n-double CDF.  Why the answer is
/// bit-identical to a binary search is argued at index_of() in rng.cpp.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t operator()(Xoshiro256& rng) const {
    return index_of(rng.next_double());
  }

  /// The rank a uniform draw u in [0, 1) maps to: the first i with
  /// cdf[i] >= u.  Exposed so tests can check it against std::lower_bound.
  std::size_t index_of(double u) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }
  double exponent() const noexcept { return exponent_; }

  /// Probability mass of rank i (for tests / analytics).
  double pmf(std::size_t i) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // m entries, m = bit_ceil(n)
  double buckets_;                     // m as a double
  double exponent_;
};

/// Alias-method sampler for arbitrary discrete distributions: O(1) per
/// sample after O(n) preprocessing.  Used for traffic-matrix sampling where
/// millions of i.i.d. draws are needed (the Microsoft workload).
class AliasSampler {
 public:
  /// Weights need not be normalized; they must be non-negative with a
  /// positive sum.
  explicit AliasSampler(const std::vector<double>& weights);

  std::size_t operator()(Xoshiro256& rng) const;

  std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace rdcn
