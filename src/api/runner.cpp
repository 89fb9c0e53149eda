#include "api/runner.hpp"

#include <utility>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

/// Decorrelated per-repetition seed streams (splitmix64 over a domain
/// tag), so rep i's faults and rep i's finder never share a stream and
/// `seed + i` collisions across scenarios cannot alias.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t domain,
                                        std::uint64_t index) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (domain + 1));
  (void)splitmix64(state);
  state += index;
  return splitmix64(state);
}

}  // namespace

std::uint64_t scenario_build_seed(const Scenario& scenario) {
  return derive_seed(scenario.seed, 0, 0);
}

std::uint64_t scenario_alpha_seed(const Scenario& scenario) {
  return derive_seed(scenario.seed, 1, 0);
}

double ChurnRunTrace::total_prune_millis() const {
  double total = 0.0;
  for (const ChurnRoundRun& r : rounds) total += r.prune_millis;
  return total;
}

ScenarioRunner::ScenarioRunner(Scenario scenario) : scenario_(std::move(scenario)) {
  FNE_REQUIRE(scenario_.repetitions >= 1, "scenario needs >= 1 repetition");
  // Validate metric requests eagerly (names and declared params) so a
  // typo fails at construction, not after the prune work ran.  Names
  // must be unique: records are keyed by name in report payloads, and a
  // duplicate would silently emit duplicate JSON keys.
  for (std::size_t i = 0; i < scenario_.metrics.requests.size(); ++i) {
    const MetricRequest& request = scenario_.metrics.requests[i];
    MetricsRegistry::instance().check(request.name, request.params);
    for (std::size_t j = 0; j < i; ++j) {
      FNE_REQUIRE(scenario_.metrics.requests[j].name != request.name,
                  "scenario '" + scenario_.name + "': metric '" + request.name +
                      "' requested twice (records are keyed by name)");
    }
  }
}

const Graph& ScenarioRunner::graph() const {
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  if (graph_ == nullptr) {
    graph_ = EngineCache::instance().graph(scenario_.topology.name, scenario_.topology.params,
                                           scenario_build_seed(scenario_));
  }
  return *graph_;
}

double ScenarioRunner::alpha() const {
  if (scenario_.prune.alpha > 0.0) return scenario_.prune.alpha;
  const std::lock_guard<std::mutex> lock(resolve_mutex_);
  if (!alpha_.has_value()) {
    // Measure: the constructive upper bound is a real cut of the
    // fault-free graph, so α is a value the graph actually has.  A throw
    // leaves α unresolved, so every caller measures and throws.
    BracketOptions bopts;
    bopts.exact_limit = scenario_.metrics.bracket_exact_limit;
    bopts.seed = scenario_alpha_seed(scenario_);
    const double measured = expansion_bracket(graph(), scenario_.prune.kind, bopts).upper;
    FNE_REQUIRE(measured > 0.0, "scenario '" + scenario_.name +
                                    "': measured alpha is 0 (disconnected topology?); "
                                    "set prune.alpha explicitly");
    alpha_ = measured;
    measured_alpha_ = true;
  }
  return *alpha_;
}

double ScenarioRunner::epsilon() const {
  if (scenario_.prune.epsilon > 0.0) return scenario_.prune.epsilon;
  if (scenario_.prune.kind == ExpansionKind::Node) return 0.5;
  const std::lock_guard<std::mutex> lock(resolve_mutex_);
  if (!epsilon_.has_value()) epsilon_ = 1.0 / (2.0 * static_cast<double>(graph().max_degree()));
  return *epsilon_;
}

bool ScenarioRunner::set_alpha_epsilon(double alpha, double epsilon) {
  FNE_REQUIRE(alpha > 0.0 && epsilon > 0.0,
              "scenario '" + scenario_.name + "': a supplied alpha and epsilon must be > 0");
  const std::lock_guard<std::mutex> lock(resolve_mutex_);
  if (alpha_.has_value() || epsilon_.has_value()) return false;
  alpha_ = alpha;
  epsilon_ = epsilon;
  return true;
}

bool ScenarioRunner::measured_alpha() const {
  const std::lock_guard<std::mutex> lock(resolve_mutex_);
  return measured_alpha_;
}

EngineLease ScenarioRunner::lease_engine() const {
  // Lease the runner's graph first, so concurrent first jobs wait for one
  // build instead of racing the engine lease's own graph lookup.
  (void)graph();
  return EngineCache::instance().lease(scenario_.topology.name, scenario_.topology.params,
                                       scenario_build_seed(scenario_),
                                       scenario_.prune.kind);
}

PruneEngineOptions ScenarioRunner::engine_options(std::uint64_t finder_seed) const {
  PruneEngineOptions opts;
  opts.finder = scenario_.prune.finder;
  opts.finder.fast = opts.finder.fast || scenario_.prune.fast;
  opts.finder.seed = finder_seed;
  opts.max_iterations = scenario_.prune.max_iterations;
  return opts;
}

void ScenarioRunner::measure(ScenarioRun& run, bool defer_split_metrics) const {
  if (scenario_.metrics.fragmentation) {
    run.fragmentation = fragmentation_profile(graph(), run.prune.survivors);
  }
  if (scenario_.metrics.expansion && run.prune.survivors.count() >= 2) {
    BracketOptions bopts;
    bopts.exact_limit = scenario_.metrics.bracket_exact_limit;
    bopts.seed = derive_seed(scenario_.seed, 2, static_cast<std::uint64_t>(run.repetition));
    run.expansion =
        expansion_bracket(graph(), run.prune.survivors, scenario_.prune.kind, bopts);
  }
  if (scenario_.metrics.verify_trace) {
    run.trace = verify_prune_trace(graph(), run.alive, run.prune, scenario_.prune.kind,
                                   run.threshold);
  }
  // Registered metrics, in request order.  Each request gets its own
  // decorrelated seed stream per repetition (domains 0-5 are taken by the
  // runner itself), so metric sampling never aliases fault or finder
  // seeds and the records are pure functions of (scenario, request, rep).
  // Seeds are POSITIONAL (request index, not the subset actually computed
  // here), so a deferred split metric filled in later is bit-identical to
  // the inline computation.
  const auto& requests = scenario_.metrics.requests;
  run.metrics.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (defer_split_metrics && MetricsRegistry::instance().at(requests[i].name).split_job) {
      run.metrics.push_back(MetricRecord{requests[i].name, {}, {}});
      continue;
    }
    run.metrics.push_back(compute_metric_request(run, i));
  }
}

MetricRecord ScenarioRunner::compute_metric_request(const ScenarioRun& run,
                                                    std::size_t request_index) const {
  const auto& requests = scenario_.metrics.requests;
  FNE_REQUIRE(request_index < requests.size(),
              "scenario '" + scenario_.name + "': metric request index out of range");
  const MetricRequest& request = requests[request_index];
  const MetricContext ctx{graph(), scenario_, run,
                          derive_seed(scenario_.seed, 6 + request_index,
                                      static_cast<std::uint64_t>(run.repetition))};
  return MetricsRegistry::instance().compute(request.name, ctx, request.params);
}

ScenarioRun ScenarioRunner::run_point(PruneEngine& engine, const FaultSpec& fault, int rep,
                                      const VertexSet* chain_start,
                                      bool defer_split_metrics) const {
  ScenarioRun run;
  run.repetition = rep;
  run.fault_seed = derive_seed(scenario_.seed, 3, static_cast<std::uint64_t>(rep));
  const Graph& g = graph();
  VertexSet model = FaultModelRegistry::instance().build(fault.name, g, fault.params,
                                                         run.fault_seed);
  run.faults = g.num_vertices() - model.count();
  // Chained (monotone-sweep) starts prune the previous point's survivors
  // restricted to this point's mask; run.alive records the actual engine
  // input so verify_prune_trace certifies the run as usual.
  run.alive = chain_start == nullptr ? std::move(model) : (*chain_start & model);
  run.alpha = alpha();
  run.epsilon = epsilon();
  run.threshold = run.alpha * run.epsilon;
  run.finder_seed = derive_seed(scenario_.seed, 4, static_cast<std::uint64_t>(rep));

  // Snapshot the engine's counters around the run: run.engine is the
  // work THIS prune performed, whether a single repetition or a monotone
  // chain point drove it.
  const EngineStats before = engine.stats();
  Timer timer;
  run.prune = engine.run(run.alive, run.alpha, run.epsilon, engine_options(run.finder_seed));
  run.millis = timer.millis();
  run.engine = engine.stats() - before;
  measure(run, defer_split_metrics);
  return run;
}

ScenarioRun ScenarioRunner::run_isolated(const FaultSpec& fault, int rep) const {
  EngineLease lease = lease_engine();
  return run_point(lease.engine(), fault, rep);
}

ScenarioRun ScenarioRunner::run_isolated_deferred(const FaultSpec& fault, int rep) const {
  EngineLease lease = lease_engine();
  return run_point(lease.engine(), fault, rep, nullptr, /*defer_split_metrics=*/true);
}

std::vector<ScenarioRun> ScenarioRunner::run_chain(const SweepSpec& sweep) const {
  // The whole chain is ONE serial job on ONE lease: point j depends on
  // point j-1, and running it as a unit keeps campaign placement and
  // thread counts out of the result.  Every point runs at rep 0's seeds
  // — exactly like the independent sweep, so both modes see the same
  // fault masks and the parity checks are meaningful.  Soundness (the
  // fault model's masks nest for ascending values of a declared
  // monotone param) was checked when the CampaignPlan was built.
  EngineLease lease = lease_engine();
  std::vector<ScenarioRun> runs;
  runs.reserve(sweep.values.size());
  VertexSet prev_survivors;
  for (std::size_t j = 0; j < sweep.values.size(); ++j) {
    FaultSpec fault = scenario_.fault;
    fault.params.set(sweep.param, sweep.values[j]);
    runs.push_back(
        run_point(lease.engine(), fault, 0, j == 0 ? nullptr : &prev_survivors));
    prev_survivors = runs.back().prune.survivors;
  }
  return runs;
}

ChurnRunTrace ScenarioRunner::run_churn(const ChurnOptions& options) const {
  EngineLease lease = lease_engine();
  PruneEngine& engine = lease.engine();
  ChurnProcess process(graph(), options);
  ChurnRunTrace trace;
  trace.rounds.reserve(static_cast<std::size_t>(options.steps));
  for (int t = 0; t < options.steps; ++t) {
    ChurnRoundRun round;
    round.churn = process.step();
    round.finder_seed = derive_seed(scenario_.seed, 5, static_cast<std::uint64_t>(t));
    Timer timer;
    const PruneResult pruned =
        engine.run(process.alive(), alpha(), epsilon(), engine_options(round.finder_seed));
    round.prune_millis = timer.millis();
    round.survivors = pruned.survivors.count();
    round.culled = pruned.total_culled;
    round.iterations = pruned.iterations;
    if (t + 1 == options.steps) trace.final_survivors = pruned.survivors;
    trace.rounds.push_back(round);
  }
  trace.final_alive = process.alive();
  trace.engine = lease.stats_delta();
  return trace;
}

}  // namespace fne
