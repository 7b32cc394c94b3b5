// TraceStream equivalence suite: every stream_* producer must emit
// bit-identically the request sequence of its generate_* twin (same seed),
// regardless of how consumption is chunked; MaterializedStream must mirror
// its trace; and a streamed simulation must land on the same ledger as a
// materialized one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
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

struct GeneratorCase {
  std::string label;
  std::function<trace::Trace(Xoshiro256&)> generate;
  std::function<std::unique_ptr<trace::TraceStream>(const Xoshiro256&)>
      stream;
};

std::vector<GeneratorCase> generator_cases(std::size_t racks,
                                           std::size_t requests) {
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
  return {
      {"uniform",
       [=](Xoshiro256& r) { return trace::generate_uniform(racks, requests, r); },
       [=](const Xoshiro256& r) {
         return trace::stream_uniform(racks, requests, r);
       }},
      {"zipf",
       [=](Xoshiro256& r) {
         return trace::generate_zipf_pairs(racks, requests, 1.2, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_zipf_pairs(racks, requests, 1.2, r);
       }},
      {"hotspot",
       [=](Xoshiro256& r) {
         return trace::generate_hotspot(racks, requests, 0.25, 0.7, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_hotspot(racks, requests, 0.25, 0.7, r);
       }},
      {"permutation",
       [=](Xoshiro256& r) {
         return trace::generate_permutation(racks, requests, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_permutation(racks, requests, r);
       }},
      {"flow_pool",
       [=](Xoshiro256& r) {
         return trace::generate_flow_pool(racks, requests, flow, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_flow_pool(racks, requests, flow, r);
       }},
      {"elephant_mice",
       [=](Xoshiro256& r) {
         return trace::generate_elephant_mice(racks, requests, 12, 0.6, 18.0,
                                              r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_elephant_mice(racks, requests, 12, 0.6, 18.0,
                                            r);
       }},
      {"round_robin_star",
       [=](Xoshiro256&) {
         return trace::generate_round_robin_star(racks, requests, 5);
       },
       [=](const Xoshiro256&) {
         return trace::stream_round_robin_star(racks, requests, 5);
       }},
      {"facebook_db",
       [=](Xoshiro256& r) {
         return trace::generate_facebook_like(
             trace::FacebookCluster::kDatabase, racks, requests, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_facebook_like(trace::FacebookCluster::kDatabase,
                                            racks, requests, r);
       }},
      {"microsoft",
       [=](Xoshiro256& r) {
         return trace::generate_microsoft_like(racks, requests, {}, r);
       },
       [=](const Xoshiro256& r) {
         return trace::stream_microsoft_like(racks, requests, {}, r);
       }},
  };
}

void expect_same_sequence(const trace::Trace& expected,
                          const std::vector<trace::Request>& got,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].u, got[i].u) << label << " at " << i;
    ASSERT_EQ(expected[i].v, got[i].v) << label << " at " << i;
  }
}

TEST(TraceStream, EveryGeneratorStreamMatchesMaterializedTwin) {
  constexpr std::size_t kRacks = 24;
  constexpr std::size_t kRequests = 9000;
  for (const GeneratorCase& c : generator_cases(kRacks, kRequests)) {
    Xoshiro256 gen_rng(77);
    const trace::Trace expected = c.generate(gen_rng);
    ASSERT_EQ(expected.size(), kRequests) << c.label;

    auto stream = c.stream(Xoshiro256(77));
    EXPECT_EQ(stream->num_racks(), expected.num_racks()) << c.label;
    EXPECT_EQ(stream->name(), expected.name()) << c.label;
    EXPECT_EQ(stream->total(), kRequests) << c.label;

    // Consume with a chunk size that misaligns with every internal
    // structure (prime, smaller than bursts/drift periods).
    std::vector<trace::Request> got;
    got.reserve(kRequests);
    std::vector<trace::Request> chunk(997);
    while (true) {
      const std::size_t n = stream->next(chunk.data(), chunk.size());
      if (n == 0) break;
      got.insert(got.end(), chunk.begin(),
                 chunk.begin() + static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_EQ(stream->produced(), kRequests) << c.label;
    expect_same_sequence(expected, got, c.label);
  }
}

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

// FNV-1a over the pair keys of a stream's first `count` requests.
std::uint64_t stream_hash(trace::TraceStream& stream, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<trace::Request> chunk(4096);
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
}

TEST(TraceStream, DoesNotAdvanceTheCallersRng) {
  Xoshiro256 rng(11);
  auto stream = trace::stream_uniform(16, 1000, rng);
  std::vector<trace::Request> chunk(1000);
  stream->next(chunk.data(), chunk.size());
  Xoshiro256 untouched(11);
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(TraceStream, MaterializedStreamMirrorsItsTrace) {
  Xoshiro256 rng(3);
  const trace::Trace t = trace::generate_uniform(16, 5000, rng);
  trace::MaterializedStream stream(t);
  EXPECT_EQ(stream.total(), t.size());
  std::vector<trace::Request> got;
  std::vector<trace::Request> chunk(640);
  while (true) {
    const std::size_t n = stream.next(chunk.data(), chunk.size());
    if (n == 0) break;
    got.insert(got.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(n));
  }
  expect_same_sequence(t, got, "materialized");
}

TEST(TraceStream, MaterializeRoundTrips) {
  auto stream = trace::stream_hotspot(20, 4000, 0.3, 0.6, Xoshiro256(9));
  const trace::Trace via_stream = trace::materialize(*stream);
  Xoshiro256 rng(9);
  const trace::Trace direct = trace::generate_hotspot(20, 4000, 0.3, 0.6, rng);
  ASSERT_EQ(via_stream.size(), direct.size());
  EXPECT_EQ(via_stream.name(), direct.name());
  EXPECT_EQ(via_stream.num_racks(), direct.num_racks());
  for (std::size_t i = 0; i < direct.size(); ++i)
    ASSERT_EQ(via_stream[i], direct[i]) << i;
}

TEST(TraceStream, StreamedSimulationMatchesMaterializedLedger) {
  // Serving straight from the stream (never materializing the trace) must
  // land on the same ledger at every checkpoint as the materialized run.
  const net::Topology topo = net::make_fat_tree(24);
  constexpr std::size_t kRequests = 12'000;  // spans multiple serve chunks
  Xoshiro256 rng(41);
  const trace::Trace t = trace::generate_facebook_like(
      trace::FacebookCluster::kDatabase, 24, kRequests, rng);
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
