// TraceStream suite: every stream_* producer must emit its pinned (golden)
// request sequence for a fixed seed, regardless of how consumption is
// chunked; MaterializedStream and materialize() must round-trip; and a
// streamed simulation must land on the same ledger as a materialized one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "trace/trace_stream.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using rdcn::testing::make_instance;

TEST(TraceStream, ChunkingPatternDoesNotChangeTheSequence) {
  // Single-request pulls and one huge pull produce the same sequence.
  constexpr std::size_t kRacks = 16;
  constexpr std::size_t kRequests = 2000;
  auto one = trace::stream_zipf_pairs(kRacks, kRequests, 1.0, Xoshiro256(5));
  auto big = trace::stream_zipf_pairs(kRacks, kRequests, 1.0, Xoshiro256(5));

  std::vector<trace::Request> from_one(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_EQ(one->next(&from_one[i], 1), 1u);
  std::vector<trace::Request> from_big(kRequests);
  ASSERT_EQ(big->next(from_big.data(), kRequests + 500), kRequests);
  EXPECT_EQ(big->next(from_big.data(), 1), 0u);  // exhausted
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(from_one[i], from_big[i]) << i;
  }
}

// FNV-1a over the pair keys of a stream's first `count` requests, read in
// chunks of 997 — a prime that misaligns with every internal structure
// (bursts, drift periods, serve chunks).
std::uint64_t stream_hash(trace::TraceStream& stream,
                          std::size_t count = SIZE_MAX) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<trace::Request> chunk(997);
  for (std::size_t done = 0; done < count;) {
    const std::size_t n =
        stream.next(chunk.data(), std::min(chunk.size(), count - done));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t key = trace::pair_key(chunk[i]);
      for (int byte = 0; byte < 8; ++byte, key >>= 8) {
        h ^= key & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
    done += n;
  }
  return h;
}

TEST(TraceStream, GoldenZipfAndFlowPoolStreams) {
  // Pinned hashes of the first 1M requests of the streamed benchmark's zipf
  // configuration (100 racks, skew 1.0, seed 42) and of a Facebook profile,
  // whose flow pool also draws Zipf ranks.  Any change to how ZipfSampler
  // maps a uniform draw to a rank re-randomizes every zipf trace; these
  // anchors make such a change loud.
  constexpr std::size_t kRequests = 1'000'000;
  auto zipf =
      trace::stream_zipf_pairs(100, 8 * kRequests, 1.0, Xoshiro256(42));
  EXPECT_EQ(stream_hash(*zipf, kRequests), 0x556da2864b5ca1cbULL);
  auto facebook = trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 100, kRequests, Xoshiro256(42));
  EXPECT_EQ(stream_hash(*facebook, kRequests), 0xe824dc896d5f9272ULL);

  // Every generator, 24 racks, 9000 requests, seed 77.  The hashes were
  // captured while each stream was still checked request by request
  // against a one-shot generator twin, so they pin the historical
  // sequences.
  constexpr std::size_t kRacks = 24;
  constexpr std::size_t kLength = 9000;
  const trace::FlowPoolParams flow{.candidate_pairs = 300,
                                   .zipf_skew = 1.1,
                                   .mean_burst_length = 12.0,
                                   .max_active_flows = 24,
                                   .new_flow_prob = 0.08,
                                   .drift_period = 2500,
                                   .drift_fraction = 0.2,
                                   .hub_fraction = 0.25,
                                   .hub_bias = 0.7,
                                   .noise_fraction = 0.2};
  const Xoshiro256 rng(77);
  struct Golden {
    std::unique_ptr<trace::TraceStream> stream;
    const char* name;
    std::uint64_t hash;
  };
  Golden cases[] = {
      {trace::stream_uniform(kRacks, kLength, rng), "uniform",
       0x199db32f3e2a0fe2ULL},
      {trace::stream_zipf_pairs(kRacks, kLength, 1.2, rng), "zipf",
       0xbd2b046875b1b66eULL},
      {trace::stream_hotspot(kRacks, kLength, 0.25, 0.7, rng), "hotspot",
       0x685f8f49ce577640ULL},
      {trace::stream_permutation(kRacks, kLength, rng), "permutation",
       0x075ee8393d93b239ULL},
      {trace::stream_flow_pool(kRacks, kLength, flow, rng), "flow_pool",
       0xe680fa94865bb328ULL},
      {trace::stream_elephant_mice(kRacks, kLength, 12, 0.6, 18.0, rng),
       "elephant_mice", 0x9df05a554bf413a3ULL},
      {trace::stream_round_robin_star(kRacks, kLength, 5), "round_robin_star",
       0x7f90b33ef2b594a5ULL},
      {trace::stream_facebook_like(trace::FacebookCluster::kDatabase, kRacks,
                                   kLength, rng),
       "facebook_database", 0xc899631fe0cc61beULL},
      {trace::stream_microsoft_like(kRacks, kLength, {}, rng), "microsoft",
       0x4b7c9474b61ea2afULL},
  };
  for (Golden& c : cases) {
    EXPECT_EQ(c.stream->name(), c.name);
    EXPECT_EQ(c.stream->num_racks(), kRacks) << c.name;
    EXPECT_EQ(c.stream->total(), kLength) << c.name;
    EXPECT_EQ(stream_hash(*c.stream), c.hash) << c.name;
    EXPECT_EQ(c.stream->produced(), kLength) << c.name;
  }
}

TEST(TraceStream, DoesNotAdvanceTheCallersRng) {
  Xoshiro256 rng(11);
  auto stream = trace::stream_uniform(16, 1000, rng);
  std::vector<trace::Request> chunk(1000);
  stream->next(chunk.data(), chunk.size());
  Xoshiro256 untouched(11);
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(TraceStream, MaterializeRoundTrips) {
  const trace::Trace t = trace::materialize(
      *trace::stream_hotspot(20, 4000, 0.3, 0.6, Xoshiro256(9)));
  auto stream = trace::stream_hotspot(20, 4000, 0.3, 0.6, Xoshiro256(9));
  EXPECT_EQ(t.size(), stream->total());
  EXPECT_EQ(t.name(), stream->name());
  EXPECT_EQ(t.num_racks(), stream->num_racks());
  trace::MaterializedStream back(t);
  EXPECT_EQ(back.total(), t.size());
  EXPECT_EQ(stream_hash(back), stream_hash(*stream));
  EXPECT_EQ(back.produced(), t.size());
}

TEST(TraceStream, StreamedSimulationMatchesMaterializedLedger) {
  // Serving straight from the stream (never materializing the trace) must
  // land on the same ledger at every checkpoint as the materialized run.
  const net::Topology topo = net::make_fat_tree(24);
  constexpr std::size_t kRequests = 12'000;  // spans multiple serve chunks
  Xoshiro256 rng(41);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 24, kRequests, rng));
  const core::Instance inst = make_instance(topo.distances, 4, 30);
  const std::vector<std::uint64_t> grid = sim::checkpoint_grid(t.size(), 6);

  for (const char* algorithm : {"bma", "r_bma", "greedy"}) {
    auto from_trace = scenario::make_algorithm(algorithm, inst, &t, 2);
    const sim::RunResult materialized =
        sim::run_simulation(*from_trace, t, grid);

    auto stream = trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, 24, kRequests, Xoshiro256(41));
    auto from_stream = scenario::make_algorithm(algorithm, inst, &t, 2);
    const sim::RunResult streamed =
        sim::run_simulation(*from_stream, *stream, grid);

    ASSERT_EQ(materialized.checkpoints.size(), streamed.checkpoints.size());
    for (std::size_t i = 0; i < materialized.checkpoints.size(); ++i) {
      const sim::Checkpoint& a = materialized.checkpoints[i];
      const sim::Checkpoint& b = streamed.checkpoints[i];
      EXPECT_EQ(a.requests, b.requests) << algorithm << " cp " << i;
      EXPECT_EQ(a.routing_cost, b.routing_cost) << algorithm << " cp " << i;
      EXPECT_EQ(a.reconfig_cost, b.reconfig_cost) << algorithm << " cp " << i;
      EXPECT_EQ(a.direct_serves, b.direct_serves) << algorithm << " cp " << i;
      EXPECT_EQ(a.matching_size, b.matching_size) << algorithm << " cp " << i;
    }
  }
}

}  // namespace
