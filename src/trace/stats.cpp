#include "trace/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace rdcn::trace {

TraceStats compute_stats(TraceStream& stream) {
  TraceStats s;
  s.num_racks = stream.num_racks();
  const std::size_t table_size = pair_table_size(stream.num_racks());

  // One pass: per-pair counts plus the temporal metrics.  The window holds
  // the pair indices of the previous kWindow requests; in_window[p] is the
  // multiplicity of pair p among them (at most kWindow, fits a byte).
  constexpr std::size_t kWindow = 64;
  std::vector<std::uint64_t> counts(table_size, 0);
  std::vector<std::uint8_t> in_window(table_size, 0);
  std::array<std::size_t, kWindow> window{};
  std::size_t repeats = 0;
  std::size_t window_hits = 0;
  std::size_t prev = 0;
  std::size_t i = 0;  // requests folded so far
  std::vector<Request> chunk(4096);
  while (const std::size_t n = stream.next(chunk.data(), chunk.size())) {
    for (std::size_t k = 0; k < n; ++k, ++i) {
      const std::size_t p = pair_index(chunk[k].u, chunk[k].v);
      ++counts[p];
      if (i > 0 && p == prev) ++repeats;
      if (in_window[p] != 0) ++window_hits;
      prev = p;
      std::size_t& slot = window[i % kWindow];
      if (i >= kWindow) --in_window[slot];
      slot = p;
      ++in_window[p];
    }
  }
  s.num_requests = i;
  if (s.num_requests == 0) return s;

  std::vector<std::uint64_t> sorted;
  for (const std::uint64_t c : counts)
    if (c != 0) sorted.push_back(c);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  s.distinct_pairs = sorted.size();
  const double total = static_cast<double>(s.num_requests);

  // Entropy and top-k shares from the descending histogram.
  double entropy = 0.0;
  for (const std::uint64_t c : sorted) {
    const double p = static_cast<double>(c) / total;
    entropy -= p * std::log2(p);
  }
  s.normalized_pair_entropy =
      sorted.size() > 1
          ? entropy / std::log2(static_cast<double>(sorted.size()))
          : 0.0;

  auto share_of_top = [&](double fraction) {
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(fraction * static_cast<double>(sorted.size()))));
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < k && j < sorted.size(); ++j) sum += sorted[j];
    return static_cast<double>(sum) / total;
  };
  s.top1pct_share = share_of_top(0.01);
  s.top10pct_share = share_of_top(0.10);

  // Gini over the count distribution, ascending for the standard formula.
  double cum = 0.0, weighted = 0.0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    const double c = static_cast<double>(sorted[sorted.size() - 1 - j]);
    cum += c;
    weighted += static_cast<double>(j + 1) * c;
  }
  const double m = static_cast<double>(sorted.size());
  s.gini = sorted.size() > 1 && cum > 0.0
               ? (2.0 * weighted) / (m * cum) - (m + 1.0) / m
               : 0.0;

  if (s.num_requests > 1) {
    const double steps = static_cast<double>(s.num_requests - 1);
    s.repeat_probability = static_cast<double>(repeats) / steps;
    s.locality_window64 = static_cast<double>(window_hits) / steps;
  }
  return s;
}

}  // namespace rdcn::trace
