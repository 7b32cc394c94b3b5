// rdcn: parameter-sweep experiment driver.
//
// Encodes the paper's methodology (§3.1): a fixed trace, a set of
// algorithm/b combinations, each randomized combination repeated `trials`
// times with distinct seeds and averaged.  Trials run in parallel (each
// trial owns its matcher and RNG stream); deterministic algorithms run a
// single trial since repetition would be a no-op.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/param_map.hpp"
#include "net/distance_matrix.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::sim {

struct ExperimentSpec {
  std::string algorithm;  ///< scenario::AlgorithmRegistry name ("r_bma", ...)
  std::size_t b = 1;
  ParamMap params{};  ///< algorithm parameters ("engine=lru,eager", ...)
  std::string label;  ///< display label; default "<algorithm>(b=<b>)"

  std::string display() const {
    return !label.empty()
               ? label
               : algorithm + "(b=" + std::to_string(b) + ")";
  }
};

struct ExperimentConfig {
  const net::DistanceMatrix* distances = nullptr;
  std::uint64_t alpha = 100;
  std::size_t a = 0;          ///< offline degree bound (0 = same as b)
  std::size_t checkpoints = 8;
  std::size_t trials = 5;     ///< repetitions for randomized algorithms
  std::uint64_t base_seed = 42;
  std::size_t threads = 0;    ///< 0 = hardware concurrency

  /// Cooperative cancellation (serving mode).  Once the token fires, tasks
  /// not yet started are skipped and running trials stop at their next
  /// serve-chunk boundary; run_experiment then throws CancelledError
  /// instead of returning partial averages.  Inert by default.
  CancelToken cancel{};
  /// Optional progress stream: called for every checkpoint of every trial,
  /// possibly from several pool workers at once (must be thread-safe).
  std::function<void(const ExperimentSpec& spec, std::uint64_t seed,
                     const Checkpoint& checkpoint)>
      on_checkpoint{};
};

/// Whether an algorithm's behaviour depends on its seed (from its
/// AlgorithmRegistry entry; unknown names are treated as deterministic).
bool is_randomized(const std::string& algorithm);

/// Factory producing a fresh, unconsumed stream of the workload.  Called
/// once per (spec, trial) task — possibly from several pool workers at
/// once, so it must be thread-safe (the registry stream builders are: they
/// snapshot their RNG instead of sharing it).
using StreamFactory = std::function<std::unique_ptr<trace::TraceStream>()>;

/// Runs every spec over the workload, one factory stream per (spec, trial)
/// task; returns one (trial-averaged) RunResult per spec, in spec order.
/// Each task's checkpoint grid spans its stream's total().  `full_trace`
/// is handed to offline comparators (needs_full_trace), which see the
/// whole trace up front; it must be the sequence the streams replay.  With
/// no full trace those algorithms raise SpecError.
std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const StreamFactory& make_stream,
                                      const std::vector<ExperimentSpec>& specs,
                                      const trace::Trace* full_trace = nullptr);

/// The same over a materialized trace: forwards with a MaterializedStream
/// factory and `&trace` as the full trace.
std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const trace::Trace& trace,
                                      const std::vector<ExperimentSpec>& specs);

}  // namespace rdcn::sim
