// Tests for the experiment driver (sim/experiment.hpp) and the parallel
// runner (sim/parallel_runner.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <sstream>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/report.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::sim;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  int sum = 0;
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, ZeroTasksIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelMap, CollectsInOrder) {
  const auto out = parallel_map<std::size_t>(
      100, [](std::size_t i) { return i * i; }, 8);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

class ExperimentFixture : public ::testing::Test {
 protected:
  ExperimentFixture()
      : topo_(net::make_fat_tree(16)),
        rng_(3),
        trace_(trace::materialize(*trace::stream_zipf_pairs(
            16, 6000, 1.0, rng_))) {
    config_.distances = &topo_.distances;
    config_.alpha = 8;
    config_.checkpoints = 4;
    config_.trials = 3;
    config_.base_seed = 7;
  }

  net::Topology topo_;
  Xoshiro256 rng_;
  trace::Trace trace_;
  ExperimentConfig config_;
};

TEST_F(ExperimentFixture, ProducesOneResultPerSpecInOrder) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2},
      {.algorithm = "bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  const auto results = run_experiment(config_, trace_, specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].algorithm, "r_bma(b=2)");
  EXPECT_EQ(results[1].algorithm, "bma(b=2)");
  EXPECT_EQ(results[2].algorithm, "oblivious(b=2)");
  for (const auto& r : results)
    EXPECT_EQ(r.checkpoints.size(), config_.checkpoints);
}

TEST_F(ExperimentFixture, ThreadCountDoesNotChangeCosts) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 3},
      {.algorithm = "bma", .b = 3},
  };
  ExperimentConfig serial = config_;
  serial.threads = 1;
  ExperimentConfig parallel = config_;
  parallel.threads = 8;
  const auto rs = run_experiment(serial, trace_, specs);
  const auto rp = run_experiment(parallel, trace_, specs);
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    for (std::size_t p = 0; p < rs[i].checkpoints.size(); ++p) {
      EXPECT_EQ(rs[i].checkpoints[p].total_cost,
                rp[i].checkpoints[p].total_cost);
    }
  }
}

TEST_F(ExperimentFixture, CustomLabelIsUsed) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2, .label = "mine"},
  };
  const auto results = run_experiment(config_, trace_, specs);
  EXPECT_EQ(results[0].algorithm, "mine");
}

TEST_F(ExperimentFixture, PreCancelledConfigThrowsCancelledError) {
  // Cancellation is not a spec problem: it must surface as CancelledError
  // (distinct from SpecError) so serving layers can report "cancelled"
  // rather than "failed".
  config_.cancel = CancelToken::make();
  config_.cancel.request_cancel();
  const std::vector<ExperimentSpec> specs = {{.algorithm = "bma", .b = 2}};
  EXPECT_THROW(run_experiment(config_, trace_, specs), CancelledError);
}

TEST_F(ExperimentFixture, CancelFromCheckpointHookStopsTheExperiment) {
  config_.cancel = CancelToken::make();
  std::atomic<std::size_t> seen{0};
  config_.on_checkpoint = [this, &seen](const ExperimentSpec&, std::uint64_t,
                                        const Checkpoint&) {
    seen.fetch_add(1, std::memory_order_relaxed);
    config_.cancel.request_cancel();
  };
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  EXPECT_THROW(run_experiment(config_, trace_, specs), CancelledError);
  EXPECT_GE(seen.load(), 1u);

  // The same config minus the cancelled token still runs fine (the pool
  // and driver carry no poisoned state).
  config_.cancel = CancelToken{};
  config_.on_checkpoint = {};
  EXPECT_EQ(run_experiment(config_, trace_, specs).size(), 2u);
}

TEST_F(ExperimentFixture, CheckpointHookSeesEverySpecAndSeed) {
  std::mutex mu;
  std::vector<std::string> labels;
  config_.trials = 2;
  config_.on_checkpoint = [&](const ExperimentSpec& spec, std::uint64_t seed,
                              const Checkpoint& c) {
    const std::lock_guard<std::mutex> lock(mu);
    labels.push_back(spec.algorithm + "/" + std::to_string(seed) + "/" +
                     std::to_string(c.requests));
  };
  const std::vector<ExperimentSpec> specs = {{.algorithm = "r_bma", .b = 2}};
  run_experiment(config_, trace_, specs);
  // r_bma is randomized: trials distinct seeds × checkpoints hooks fire.
  EXPECT_EQ(labels.size(), config_.trials * config_.checkpoints);
}

TEST_F(ExperimentFixture, RandomizedFlagging) {
  EXPECT_TRUE(is_randomized("r_bma"));
  EXPECT_FALSE(is_randomized("bma"));
  EXPECT_FALSE(is_randomized("oblivious"));
  EXPECT_FALSE(is_randomized("so_bma"));
}

TEST_F(ExperimentFixture, ReportTablesRenderAllSeries) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  const auto results = run_experiment(config_, trace_, specs);
  std::ostringstream table;
  print_table(table, results, Metric::kRoutingCost, "test");
  const std::string text = table.str();
  EXPECT_NE(text.find("r_bma(b=2)"), std::string::npos);
  EXPECT_NE(text.find("oblivious(b=2)"), std::string::npos);
  EXPECT_NE(text.find("routing_cost"), std::string::npos);

  std::ostringstream csv;
  write_csv(csv, results, Metric::kRoutingCost);
  // Header + one line per checkpoint.
  std::size_t lines = 0;
  for (char c : csv.str()) lines += (c == '\n');
  EXPECT_EQ(lines, 1 + config_.checkpoints);

  std::ostringstream summary;
  print_summary(summary, results, results.back());
  EXPECT_NE(summary.str().find("reduction"), std::string::npos);
}

TEST_F(ExperimentFixture, ObliviousDominatesDemandAwareOnSkewedTrace) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 4},
      {.algorithm = "bma", .b = 4},
      {.algorithm = "oblivious", .b = 4},
  };
  const auto results = run_experiment(config_, trace_, specs);
  const auto rbma = results[0].final().routing_cost;
  const auto bma = results[1].final().routing_cost;
  const auto obl = results[2].final().routing_cost;
  EXPECT_LT(rbma, obl);
  EXPECT_LT(bma, obl);
}

}  // namespace
