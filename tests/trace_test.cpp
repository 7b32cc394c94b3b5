// Tests for workload generators and trace analytics (src/trace).
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "common/rng.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "trace/stats.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::trace;

TraceStats stats_of(const Trace& t) {
  MaterializedStream stream(t);
  return compute_stats(stream);
}

void expect_well_formed(const Trace& t, std::size_t racks, std::size_t len) {
  EXPECT_EQ(t.num_racks(), racks);
  EXPECT_EQ(t.size(), len);
  for (const Request& r : t) {
    EXPECT_LT(r.u, racks);
    EXPECT_LT(r.v, racks);
    EXPECT_LT(r.u, r.v);  // canonical order
  }
}

TEST(Generators, UniformWellFormedAndDeterministic) {
  Xoshiro256 a(1), b(1);
  const Trace ta = materialize(*stream_uniform(20, 5000, a));
  const Trace tb = materialize(*stream_uniform(20, 5000, b));
  expect_well_formed(ta, 20, 5000);
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
}

TEST(Generators, UniformHasHighEntropyLowLocality) {
  Xoshiro256 rng(2);
  const TraceStats s = compute_stats(*stream_uniform(20, 30000, rng));
  EXPECT_GT(s.normalized_pair_entropy, 0.95);
  EXPECT_LT(s.repeat_probability, 0.02);
  EXPECT_LT(s.gini, 0.2);
}

TEST(Generators, ZipfSkewIncreasesGini) {
  Xoshiro256 rng(3);
  const TraceStats flat =
      compute_stats(*stream_zipf_pairs(20, 20000, 0.2, rng));
  const TraceStats skewed =
      compute_stats(*stream_zipf_pairs(20, 20000, 1.4, rng));
  EXPECT_GT(skewed.gini, flat.gini + 0.2);
  EXPECT_LT(skewed.normalized_pair_entropy, flat.normalized_pair_entropy);
}

TEST(Generators, HotspotConcentratesOnHotRacks) {
  Xoshiro256 rng(4);
  const Trace t = materialize(*stream_hotspot(40, 20000, 0.1, 0.9, rng));
  expect_well_formed(t, 40, 20000);
  const TraceStats s = stats_of(t);
  EXPECT_GT(s.top10pct_share, 0.5);
}

TEST(Generators, PermutationUsesExactlyNOver2Pairs) {
  Xoshiro256 rng(5);
  const Trace t = materialize(*stream_permutation(16, 5000, rng));
  expect_well_formed(t, 16, 5000);
  EXPECT_EQ(stats_of(t).distinct_pairs, 8u);
}

TEST(Generators, FlowPoolHasTemporalLocality) {
  Xoshiro256 rng(6);
  FlowPoolParams p;
  p.candidate_pairs = 200;
  p.mean_burst_length = 40.0;
  p.max_active_flows = 8;
  const TraceStats sb = compute_stats(*stream_flow_pool(30, 30000, p, rng));
  const TraceStats si = compute_stats(*stream_zipf_pairs(30, 30000, 1.0, rng));
  EXPECT_GT(sb.locality_window64, si.locality_window64 + 0.15);
  EXPECT_GT(sb.repeat_probability, 0.05);
}

TEST(Generators, FlowPoolDriftChangesWorkingSet) {
  Xoshiro256 rng(7);
  FlowPoolParams p;
  p.candidate_pairs = 50;
  p.drift_period = 5000;
  p.drift_fraction = 0.5;
  const Trace t = materialize(*stream_flow_pool(30, 40000, p, rng));
  // With aggressive drift, far more distinct pairs appear than the
  // candidate set size at any instant.
  EXPECT_GT(stats_of(t).distinct_pairs, 100u);
}

TEST(Generators, ElephantMiceSharesAndRuns) {
  Xoshiro256 rng(8);
  const Trace t =
      materialize(*stream_elephant_mice(30, 30000, 10, 0.7, 20.0, rng));
  expect_well_formed(t, 30, 30000);
  const TraceStats s = stats_of(t);
  // Ten elephants must carry most traffic.
  EXPECT_GT(s.top1pct_share, 0.3);
  EXPECT_GT(s.repeat_probability, 0.3);  // long runs
}

TEST(Generators, RoundRobinStarCyclesExactly) {
  const Trace t = materialize(*stream_round_robin_star(10, 9, 2));
  ASSERT_EQ(t.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(t[i].u, 0u);
    EXPECT_EQ(t[i].v, 1 + (i % 3));
  }
}

TEST(FacebookLike, ProfilesAreOrderedByLocality) {
  Xoshiro256 r1(10), r2(11), r3(12);
  const TraceStats db = compute_stats(
      *stream_facebook_like(FacebookCluster::kDatabase, 50, 40000, r1));
  const TraceStats web = compute_stats(
      *stream_facebook_like(FacebookCluster::kWebService, 50, 40000, r2));
  const TraceStats hadoop = compute_stats(
      *stream_facebook_like(FacebookCluster::kHadoop, 50, 40000, r3));
  // Database: most temporal locality; web: least.
  EXPECT_GT(db.locality_window64, web.locality_window64);
  EXPECT_GT(hadoop.locality_window64, web.locality_window64);
  // Database is the most spatially skewed.
  EXPECT_GT(db.gini, web.gini);
}

TEST(FacebookLike, NamesAndSizes) {
  Xoshiro256 rng(13);
  const Trace t = materialize(
      *stream_facebook_like(FacebookCluster::kDatabase, 30, 1000, rng));
  EXPECT_EQ(t.name(), "facebook_database");
  expect_well_formed(t, 30, 1000);
}

TEST(MicrosoftLike, MatrixIsSymmetricNormalizedZeroDiagonal) {
  Xoshiro256 rng(14);
  const std::vector<double> m = make_microsoft_matrix(20, {}, rng);
  double total = 0.0;
  for (std::size_t u = 0; u < 20; ++u) {
    EXPECT_EQ(m[u * 20 + u], 0.0);
    for (std::size_t v = u + 1; v < 20; ++v) {
      EXPECT_DOUBLE_EQ(m[u * 20 + v], m[v * 20 + u]);
      EXPECT_GE(m[u * 20 + v], 0.0);
      total += m[u * 20 + v];
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MicrosoftLike, SkewedButTemporallyUnstructured) {
  Xoshiro256 rng(15);
  const Trace t = materialize(*stream_microsoft_like(25, 50000, {}, rng));
  const TraceStats s = stats_of(t);
  EXPECT_GT(s.gini, 0.5);                  // strong spatial skew
  EXPECT_LT(s.normalized_pair_entropy, 0.9);
  // i.i.d. sampling: repeat probability equals the collision probability
  // of the matrix, which is small but nonzero; no burst structure.
  EXPECT_LT(s.repeat_probability, 0.1);
}

TEST(TraceContainer, PrefixTruncates) {
  Xoshiro256 rng(16);
  const Trace t = materialize(*stream_uniform(10, 100, rng));
  const Trace p = t.prefix(30);
  EXPECT_EQ(p.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(p[i], t[i]);
  EXPECT_EQ(t.prefix(1000).size(), 100u);
}

TEST(Stats, HandComputedTinyTrace) {
  Trace t(4, "tiny");
  // Pairs: {0,1} x3, {2,3} x1.
  t.push_back(Request::make(0, 1));
  t.push_back(Request::make(0, 1));
  t.push_back(Request::make(1, 0));
  t.push_back(Request::make(2, 3));
  const TraceStats s = stats_of(t);
  EXPECT_EQ(s.num_requests, 4u);
  EXPECT_EQ(s.distinct_pairs, 2u);
  // Entropy of (3/4, 1/4) normalized by log2(2)=1.
  const double h = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(s.normalized_pair_entropy, h, 1e-9);
  // repeats: positions 1,2 repeat {0,1}: 2 of 3 transitions.
  EXPECT_NEAR(s.repeat_probability, 2.0 / 3.0, 1e-9);
}

void expect_same_stats(const TraceStats& got, const TraceStats& want) {
  EXPECT_EQ(got.num_requests, want.num_requests);
  EXPECT_EQ(got.num_racks, want.num_racks);
  EXPECT_EQ(got.distinct_pairs, want.distinct_pairs);
  EXPECT_EQ(got.normalized_pair_entropy, want.normalized_pair_entropy);
  EXPECT_EQ(got.top1pct_share, want.top1pct_share);
  EXPECT_EQ(got.top10pct_share, want.top10pct_share);
  EXPECT_EQ(got.repeat_probability, want.repeat_probability);
  EXPECT_EQ(got.locality_window64, want.locality_window64);
  EXPECT_EQ(got.gini, want.gini);
}

TEST(Stats, TiedCountsDoNotDependOnFirstAppearance) {
  // {0,1} and {2,3} three times each, {1,2} and {0,3} once each, in two
  // orders whose pairs first appear in opposite order.  Both have no
  // repeats and 4 window hits over 7 transitions.
  const Request a[] = {Request::make(0, 1), Request::make(2, 3),
                       Request::make(0, 1), Request::make(2, 3),
                       Request::make(0, 1), Request::make(2, 3),
                       Request::make(1, 2), Request::make(0, 3)};
  Trace forward(4, "forward"), backward(4, "backward");
  for (const Request& r : a) forward.push_back(r);
  for (std::size_t i = std::size(a); i-- > 0;) backward.push_back(a[i]);
  const TraceStats s = stats_of(forward);
  expect_same_stats(stats_of(backward), s);

  EXPECT_EQ(s.num_requests, 8u);
  EXPECT_EQ(s.distinct_pairs, 4u);
  // ceil(1% of 4) = ceil(10% of 4) = 1 pair: a tied heaviest one, 3 of 8.
  EXPECT_EQ(s.top1pct_share, 3.0 / 8.0);
  EXPECT_EQ(s.top10pct_share, 3.0 / 8.0);
  // Ascending counts 1,1,3,3: 2·(1+2+9+12)/(4·8) − 5/4.
  EXPECT_EQ(s.gini, 0.25);
  const double h =
      -2 * (0.375 * std::log2(0.375) + 0.125 * std::log2(0.125));
  EXPECT_NEAR(s.normalized_pair_entropy, h / 2.0, 1e-12);
  EXPECT_EQ(s.repeat_probability, 0.0);
  EXPECT_EQ(s.locality_window64, 4.0 / 7.0);
}

TEST(Stats, WindowCoversExactlyThePrevious64Requests) {
  // Pair {0,1}, then `gap` distinct other pairs, then {0,1} again: the
  // second {0,1} is a window hit iff it is at most 64 requests later.
  for (const std::size_t gap : {63u, 64u}) {
    Trace t(13, "gap");
    t.push_back(Request::make(0, 1));
    std::size_t added = 0;
    for (Rack u = 0; u < 13 && added < gap; ++u)
      for (Rack v = u + 1; v < 13 && added < gap; ++v)
        if (u != 0 || v != 1) {
          t.push_back(Request::make(u, v));
          ++added;
        }
    ASSERT_EQ(added, gap);
    t.push_back(Request::make(0, 1));
    const TraceStats s = stats_of(t);
    const double hits = gap == 63 ? 1.0 : 0.0;
    EXPECT_EQ(s.locality_window64,
              hits / static_cast<double>(t.size() - 1))
        << "gap " << gap;
  }
}

TEST(Stats, GoldenClusterProfiles) {
  // Every field of two cluster profiles, pinned as hexfloats from the
  // earlier hash-map implementation of compute_stats: the dense fold must
  // reproduce them bit for bit, over the stream and over its materialized
  // trace alike.
  const auto check = [](const auto& make, const TraceStats& want) {
    expect_same_stats(compute_stats(*make()), want);
    const Trace t = materialize(*make());
    expect_same_stats(stats_of(t), want);
  };
  check(
      [] {
        return stream_facebook_like(FacebookCluster::kDatabase, 100, 200'000,
                                    Xoshiro256(42));
      },
      {.num_requests = 200'000, .num_racks = 100, .distinct_pairs = 4950,
       .normalized_pair_entropy = 0x1.8b7bf6f6cc3b7p-1,
       .top1pct_share = 0x1.b02de00d1b717p-2,
       .top10pct_share = 0x1.6be81450efdcap-1,
       .repeat_probability = 0x1.3b79ba3235a3dp-6,
       .locality_window64 = 0x1.aaa199ce8da88p-2,
       .gini = 0x1.6a4603e9cd9bap-1});
  check([] { return stream_microsoft_like(50, 200'000, {}, Xoshiro256(42)); },
        {.num_requests = 200'000, .num_racks = 50, .distinct_pairs = 1220,
         .normalized_pair_entropy = 0x1.70b60b87f05ap-1,
         .top1pct_share = 0x1.19f2ba9d1f601p-2,
         .top10pct_share = 0x1.a90ff97247454p-1,
         .repeat_probability = 0x1.af10b0a410ebfp-7,
         .locality_window64 = 0x1.d0eb36c722be4p-2,
         .gini = 0x1.bb7343e42a158p-1});
}

TEST(PairKey, RoundTripsAndCanonical) {
  const std::uint64_t k = pair_key(7, 3);
  EXPECT_EQ(k, pair_key(3, 7));
  EXPECT_EQ(pair_lo(k), 3u);
  EXPECT_EQ(pair_hi(k), 7u);
}

}  // namespace
