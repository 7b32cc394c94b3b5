#include "sim/experiment.hpp"

#include <mutex>
#include <optional>

#include "obs/span.hpp"
#include "scenario/registry.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/simulator.hpp"

namespace rdcn::sim {

bool is_randomized(const std::string& algorithm) {
  const scenario::AlgorithmEntry* entry =
      scenario::AlgorithmRegistry::instance().find(algorithm);
  return entry != nullptr && entry->randomized;
}

namespace {

core::Instance make_instance(const ExperimentConfig& config,
                             const ExperimentSpec& spec) {
  core::Instance instance;
  instance.distances = config.distances;
  instance.b = spec.b;
  instance.a = config.a;
  instance.alpha = config.alpha;
  return instance;
}

}  // namespace

std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const trace::Trace& trace,
                                      const std::vector<ExperimentSpec>& specs) {
  RDCN_ASSERT_MSG(!trace.empty(), "empty trace");
  return run_experiment(
      config,
      [&trace] { return std::make_unique<trace::MaterializedStream>(trace); },
      specs, &trace);
}

std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const StreamFactory& make_stream,
                                      const std::vector<ExperimentSpec>& specs,
                                      const trace::Trace* full_trace) {
  RDCN_ASSERT_MSG(config.distances != nullptr, "config needs distances");
  RDCN_ASSERT_MSG(make_stream != nullptr, "null stream factory");

  // Fail fast on unknown algorithm names / parameters before any trial
  // spends work (and on this thread, where SpecError can propagate).
  const scenario::AlgorithmRegistry& registry =
      scenario::AlgorithmRegistry::instance();
  for (const ExperimentSpec& spec : specs)
    registry.validate({spec.algorithm, spec.params});

  // Expand specs into independent (spec, trial) tasks.  Seeds derive
  // deterministically from the config alone (base_seed + trial), and trial
  // t uses the same seed for every algorithm/b column (paired seeds), so
  // a sweep's results are identical for any thread count or completion
  // order.
  struct Task {
    std::size_t spec_index;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::size_t reps =
        is_randomized(specs[s].algorithm) ? config.trials : 1;
    for (std::size_t t = 0; t < reps; ++t)
      tasks.push_back({s, config.base_seed + t});
  }

  // parallel_for tasks must not throw; capture the first construction
  // error (e.g. a required parameter a custom entry forgot to default, or
  // an offline comparator without `full_trace`) and rethrow it on the
  // calling thread.  Cancellations are captured separately — a cancelled
  // run is the caller's own doing, not a spec problem, and reports as
  // CancelledError.
  std::mutex error_mutex;
  std::string error;
  bool failed = false;
  std::string cancel_message;

  std::vector<RunResult> raw(tasks.size());
  parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        const Task& task = tasks[i];
        const ExperimentSpec& spec = specs[task.spec_index];
        RunControl control;
        control.cancel = config.cancel;
        if (config.on_checkpoint) {
          control.on_checkpoint = [&config, &spec,
                                   seed = task.seed](const Checkpoint& c) {
            config.on_checkpoint(spec, seed, c);
          };
        }
        try {
          // Per-algorithm phase: "algo.<name>" under whatever span the
          // caller holds (the daemon's serve.execute, rdcn_sim's run).
          // Name building and interning only happen while profiling.
          std::optional<obs::ObsSpan> algo_span;
          if (obs::tracing_enabled())
            algo_span.emplace(
                obs::intern_span_name("algo." + spec.algorithm));
          auto matcher = registry.make({spec.algorithm, spec.params},
                                       make_instance(config, spec),
                                       full_trace, task.seed);
          auto stream = make_stream();
          RDCN_ASSERT_MSG(stream != nullptr && stream->produced() == 0,
                          "stream factory must yield fresh streams");
          RunResult r = run_simulation(
              *matcher, *stream,
              checkpoint_grid(stream->total(), config.checkpoints), control);
          r.seed = task.seed;
          r.algorithm = spec.display();
          raw[i] = std::move(r);
        } catch (const CancelledError& e) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          cancel_message = e.what();
        } catch (const std::exception& e) {
          // Any escape would hit parallel_for's no-throw contract and
          // terminate; downstream-registered builders may throw more than
          // SpecError.
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed) error = e.what();
          failed = true;
        }
      },
      config.threads, config.cancel);
  if (config.cancel.cancelled())
    throw CancelledError(!cancel_message.empty()
                             ? cancel_message
                             : std::string("experiment cancelled"));
  if (failed) throw SpecError(error);

  // Group by spec and average.
  std::vector<RunResult> out;
  out.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<RunResult> group;
    for (std::size_t i = 0; i < tasks.size(); ++i)
      if (tasks[i].spec_index == s) group.push_back(raw[i]);
    out.push_back(average_runs(group));
  }
  return out;
}

}  // namespace rdcn::sim
