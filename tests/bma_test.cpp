// Behavioural tests of the deterministic BMA baseline (core/bma.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "net/distance_matrix.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

Instance uniform_instance(const net::DistanceMatrix& d, std::size_t b,
                          std::uint64_t alpha) {
  Instance inst;
  inst.distances = &d;
  inst.b = b;
  inst.alpha = alpha;
  return inst;
}

TEST(Bma, AdmitsAfterPayingAlphaInRoutingCost) {
  const auto d = net::DistanceMatrix::uniform(4, 2);  // every pair 2 hops
  Bma bma(uniform_instance(d, 2, 10));
  const Request r = Request::make(0, 1);
  // Charge accumulates 2 per request; threshold 10 -> 5th request admits.
  for (int i = 0; i < 4; ++i) {
    bma.serve(r);
    EXPECT_FALSE(bma.matching().has(0, 1)) << "after request " << i + 1;
  }
  bma.serve(r);
  EXPECT_TRUE(bma.matching().has(0, 1));
  // Admission cost: exactly one α.
  EXPECT_EQ(bma.costs().reconfig_cost, 10u);
  EXPECT_EQ(bma.costs().edge_adds, 1u);
  // Routing: 5 requests x 2 hops (all before the reconfiguration).
  EXPECT_EQ(bma.costs().routing_cost, 10u);
}

TEST(Bma, MatchedRequestsCostOneAndDontCharge) {
  const auto d = net::DistanceMatrix::uniform(4, 3);
  Bma bma(uniform_instance(d, 2, 6));
  const Request r = Request::make(0, 1);
  for (int i = 0; i < 2; ++i) bma.serve(r);  // 3+3 = 6 >= α -> admitted
  ASSERT_TRUE(bma.matching().has(0, 1));
  const std::uint64_t routing_before = bma.costs().routing_cost;
  for (int i = 0; i < 10; ++i) bma.serve(r);
  EXPECT_EQ(bma.costs().routing_cost, routing_before + 10);  // 1 per serve
  EXPECT_EQ(bma.charge(pair_key(0, 1)), 0u);  // no further charging
}

TEST(Bma, EvictsLeastUsedWhenDegreeFull) {
  const auto d = net::DistanceMatrix::uniform(5, 2);
  Bma bma(uniform_instance(d, 2, 2));  // one 2-hop request admits
  // Fill node 0's degree with {0,1} and {0,2}.
  bma.serve(Request::make(0, 1));
  bma.serve(Request::make(0, 2));
  ASSERT_TRUE(bma.matching().has(0, 1));
  ASSERT_TRUE(bma.matching().has(0, 2));
  // Use {0,1} a lot; {0,2} never again.
  for (int i = 0; i < 5; ++i) bma.serve(Request::make(0, 1));
  // Admit {0,3}: node 0 is full; the least-used edge {0,2} must go.
  bma.serve(Request::make(0, 3));
  EXPECT_TRUE(bma.matching().has(0, 3));
  EXPECT_TRUE(bma.matching().has(0, 1));
  EXPECT_FALSE(bma.matching().has(0, 2));
}

TEST(Bma, TieBreakEvictsOldest) {
  const auto d = net::DistanceMatrix::uniform(5, 2);
  Bma bma(uniform_instance(d, 2, 2));
  bma.serve(Request::make(0, 1));  // admitted first
  bma.serve(Request::make(0, 2));  // admitted second
  // Neither is used after admission (usage 0 both) -> evict the older {0,1}.
  bma.serve(Request::make(0, 3));
  EXPECT_FALSE(bma.matching().has(0, 1));
  EXPECT_TRUE(bma.matching().has(0, 2));
  EXPECT_TRUE(bma.matching().has(0, 3));
}

TEST(Bma, IsDeterministic) {
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 5000, rng));
  Instance inst = uniform_instance(topo.distances, 3, 8);

  Bma a(inst), b(inst);
  for (const Request& r : t) {
    a.serve(r);
    b.serve(r);
  }
  EXPECT_EQ(a.costs().routing_cost, b.costs().routing_cost);
  EXPECT_EQ(a.costs().reconfig_cost, b.costs().reconfig_cost);
  EXPECT_EQ(a.matching().size(), b.matching().size());
}

TEST(Bma, ResetRestartsLedgersAndState) {
  const auto d = net::DistanceMatrix::uniform(4, 2);
  Bma bma(uniform_instance(d, 2, 2));
  bma.serve(Request::make(0, 1));
  ASSERT_GT(bma.costs().requests, 0u);
  bma.reset();
  EXPECT_EQ(bma.costs().requests, 0u);
  EXPECT_EQ(bma.matching().size(), 0u);
  EXPECT_EQ(bma.charge(pair_key(0, 1)), 0u);
}

TEST(Bma, MatchingInvariantsHoldUnderWorkload) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 20000, 1.2, rng));
  Bma bma(uniform_instance(topo.distances, 4, 12));
  for (const Request& r : t) bma.serve(r);
  EXPECT_TRUE(bma.matching().check_invariants());
  // Something was matched on a skewed workload.
  EXPECT_GT(bma.matching().size(), 0u);
  EXPECT_GT(bma.costs().direct_serves, 0u);
}

/// Naive model of BMA built only from the rules stated in core/bma.hpp's
/// header, with none of its data layout: a std::map of counters c[e] and,
/// per rack, an unordered list of incident matching edges.
///   * a matched request costs 1 and bumps the edge's usage;
///   * a non-matched request costs ℓe and adds ℓe to c[e];
///   * once c[e] reaches α, each full endpoint evicts its least
///     (usage, admitted_at) edge, e is admitted and c[e] resets.
class ReferenceBma {
 public:
  explicit ReferenceBma(const Instance& instance)
      : instance_(instance), rows_(instance.num_racks()) {}

  void serve(const Request& r) {
    ++clock_;
    ++costs_.requests;
    const std::uint64_t key = pair_key(r);
    if (Edge* e = find(r.u, key)) {
      costs_.routing_cost += 1;
      ++costs_.direct_serves;
      ++e->usage;
      ++find(r.v, key)->usage;
      return;
    }
    const std::uint64_t d = instance_.dist(r.u, r.v);
    costs_.routing_cost += d;
    charges_[key] += d;
    if (charges_[key] < instance_.alpha) return;
    for (const Rack w : {r.u, r.v})
      if (rows_[w].size() >= instance_.b) evict_least(w);
    rows_[r.u].push_back({key, 0, clock_});
    rows_[r.v].push_back({key, 0, clock_});
    charges_.erase(key);
    costs_.reconfig_cost += instance_.alpha;
    ++costs_.edge_adds;
  }

  std::uint64_t charge(std::uint64_t key) const {
    const auto it = charges_.find(key);
    return it == charges_.end() ? 0 : it->second;
  }

  std::vector<std::uint64_t> edge_keys() const {
    std::vector<std::uint64_t> keys;
    for (Rack w = 0; w < rows_.size(); ++w)
      for (const Edge& e : rows_[w])
        if (pair_lo(e.key) == w) keys.push_back(e.key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  const CostStats& costs() const { return costs_; }

 private:
  struct Edge {
    std::uint64_t key;
    std::uint64_t usage;
    std::uint64_t admitted_at;
  };

  Edge* find(Rack w, std::uint64_t key) {
    for (Edge& e : rows_[w])
      if (e.key == key) return &e;
    return nullptr;
  }

  void evict_least(Rack w) {
    const auto victim = std::min_element(
        rows_[w].begin(), rows_[w].end(), [](const Edge& a, const Edge& b) {
          return std::tie(a.usage, a.admitted_at) <
                 std::tie(b.usage, b.admitted_at);
        });
    const std::uint64_t key = victim->key;
    for (const Rack end : {pair_lo(key), pair_hi(key)})
      std::erase_if(rows_[end], [key](const Edge& e) { return e.key == key; });
    charges_.erase(key);  // the counter restarts from zero
    costs_.reconfig_cost += instance_.alpha;
    ++costs_.edge_removals;
  }

  Instance instance_;
  std::vector<std::vector<Edge>> rows_;
  std::map<std::uint64_t, std::uint64_t> charges_;
  CostStats costs_;
  std::uint64_t clock_ = 0;
};

void expect_same_state(const Bma& bma, const ReferenceBma& ref,
                       std::span<const Request> requested) {
  std::vector<std::uint64_t> edges = bma.matching().edge_keys();
  std::sort(edges.begin(), edges.end());
  ASSERT_EQ(edges, ref.edge_keys());
  for (const Request& r : requested)
    ASSERT_EQ(bma.charge(pair_key(r)), ref.charge(pair_key(r)))
        << "pair {" << r.u << "," << r.v << "}";
  const CostStats& got = bma.costs();
  const CostStats& want = ref.costs();
  ASSERT_EQ(got.routing_cost, want.routing_cost);
  ASSERT_EQ(got.reconfig_cost, want.reconfig_cost);
  ASSERT_EQ(got.requests, want.requests);
  ASSERT_EQ(got.direct_serves, want.direct_serves);
  ASSERT_EQ(got.edge_adds, want.edge_adds);
  ASSERT_EQ(got.edge_removals, want.edge_removals);
  ASSERT_EQ(got.prescheduled_ops, 0u);
}

/// Replays random traces through Bma and ReferenceBma side by side for
/// b ∈ {1, 2, 5, 16} and α ∈ {1, 7, 60} on two fixed networks (a 3×4
/// torus and a 24-rack fat tree, so distances differ between pairs), and
/// compares the states after every request (`batched` false, via serve())
/// or after every random-sized serve_batch() chunk.
void check_against_reference(bool batched) {
  const net::Topology topologies[] = {net::make_torus(3, 4),
                                      net::make_fat_tree(24)};
  for (const net::Topology& topo : topologies) {
    const std::size_t racks = topo.distances.num_racks();
    for (const std::size_t b : {1, 2, 5, 16}) {
      for (const std::uint64_t alpha : {1, 7, 60}) {
        SCOPED_TRACE("racks=" + std::to_string(racks) +
                     " b=" + std::to_string(b) +
                     " alpha=" + std::to_string(alpha));
        const Instance inst = uniform_instance(topo.distances, b, alpha);
        Xoshiro256 rng(b * 100 + alpha);
        const trace::Trace traces[] = {
            trace::materialize(*trace::stream_zipf_pairs(
                racks, 3000, 1.1, rng)),
            trace::materialize(*trace::stream_uniform(racks, 3000, rng))};
        for (const trace::Trace& t : traces) {
          std::vector<Request> all(t.size());
          t.gather(0, t.size(), all.data());
          Bma bma(inst);
          ReferenceBma ref(inst);
          for (std::size_t at = 0; at < all.size();) {
            const std::size_t n =
                batched ? std::min<std::size_t>(1 + rng.next_below(64),
                                                all.size() - at)
                        : 1;
            const std::span<const Request> chunk(all.data() + at, n);
            if (batched) {
              bma.serve_batch(chunk);
            } else {
              bma.serve(chunk[0]);
            }
            for (const Request& r : chunk) ref.serve(r);
            expect_same_state(bma, ref, chunk);
            if (::testing::Test::HasFatalFailure()) return;
            at += n;
          }
          EXPECT_GT(bma.costs().edge_adds, 0u);
        }
      }
    }
  }
}

TEST(Bma, MatchesNaiveReferenceStepByStep) {
  check_against_reference(/*batched=*/false);
}

TEST(Bma, BatchMatchesNaiveReferenceChunkByChunk) {
  check_against_reference(/*batched=*/true);
}

}  // namespace
