#include "common/rng.hpp"

#include <bit>
#include <cmath>

namespace rdcn {

std::uint64_t sample_geometric(Xoshiro256& rng, double p) {
  RDCN_ASSERT_MSG(p > 0.0 && p <= 1.0, "geometric probability out of range");
  if (p >= 1.0) return 0;
  // Inverse CDF: floor(log(U) / log(1-p)).
  const double u = 1.0 - rng.next_double();  // u in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

double sample_exponential(Xoshiro256& rng, double lambda) {
  RDCN_ASSERT_MSG(lambda > 0.0, "exponential rate must be positive");
  const double u = 1.0 - rng.next_double();  // u in (0, 1]
  return -std::log(u) / lambda;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
    : cdf_(n),
      guide_(std::bit_ceil(n)),
      buckets_(static_cast<double>(guide_.size())),
      exponent_(exponent) {
  RDCN_ASSERT_MSG(n > 0, "Zipf sampler over empty support");
  RDCN_ASSERT_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "Zipf sampler support exceeds the guide table's index range");
  RDCN_ASSERT_MSG(exponent >= 0.0, "Zipf exponent must be non-negative");
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = acc;
  }
  // Normalize so cdf_.back() == 1 exactly.
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;

  // guide_[k] = first i with cdf_[i] >= k/m, i.e. lower_bound(cdf_, k/m),
  // built in one merged pass over both ascending sequences.
  std::size_t i = 0;
  for (std::size_t k = 0; k < guide_.size(); ++k) {
    const double edge = static_cast<double>(k) / buckets_;
    while (cdf_[i] < edge) ++i;
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

std::size_t ZipfSampler::index_of(double u) const noexcept {
  RDCN_DCHECK(u >= 0.0 && u < 1.0);
  // Exactly std::lower_bound(cdf_, u), argued step by step:
  //  - m is a power of two, so u*m and k/m are exact in double (scaling by
  //    2^p only moves the exponent); hence, as u < 1, k = floor(u*m) <= m-1
  //    and k/m <= u hold exactly, with no rounding.
  //  - Every i < guide_[k] has cdf_[i] < k/m <= u, so lower_bound's answer
  //    is never before guide_[k]: starting there skips no candidate.
  //  - The scan stops at the first i >= guide_[k] with cdf_[i] >= u, which
  //    is therefore the first such i overall: lower_bound's answer.
  //  - cdf_.back() == 1.0 > u, so the scan ends inside the table.
  const auto k = static_cast<std::size_t>(u * buckets_);
  std::size_t i = guide_[k];
  while (cdf_[i] < u) ++i;
  return i;
}

double ZipfSampler::pmf(std::size_t i) const {
  RDCN_ASSERT(i < cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

AliasSampler::AliasSampler(const std::vector<double>& weights)
    : prob_(weights.size()), alias_(weights.size(), 0) {
  const std::size_t n = weights.size();
  RDCN_ASSERT_MSG(n > 0, "alias sampler over empty support");
  double total = 0.0;
  for (double w : weights) {
    RDCN_ASSERT_MSG(w >= 0.0, "alias sampler weight must be non-negative");
    total += w;
  }
  RDCN_ASSERT_MSG(total > 0.0, "alias sampler weights must not all be zero");

  // Vose's algorithm: split scaled probabilities into "small" (< 1) and
  // "large" (>= 1) worklists and pair them up.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t l : large) prob_[l] = 1.0;
  for (std::uint32_t s : small) prob_[s] = 1.0;  // numerical leftovers
}

std::size_t AliasSampler::operator()(Xoshiro256& rng) const {
  const std::size_t i = rng.next_below(prob_.size());
  return rng.next_double() < prob_[i] ? i : alias_[i];
}

}  // namespace rdcn
