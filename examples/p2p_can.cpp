// CAN overlay under churn (paper §4): "CAN can tolerate a fault
// probability which is inversely polynomial in its dimension without
// losing too much in its expansion properties."
//
// Scenario-layer version: a campaign with one entry per dimension
// (topology "can" from the registry), each sweeping the fault
// probability, then ongoing churn re-pruned every round on the one
// engine a run_churn call leases.
//
//   ./example_p2p_can [--peers=256] [--seed=42]
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "api/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace fne;
  const Cli cli(argc, argv);
  const std::int64_t peers = cli.get_int("peers", 256);
  const std::uint64_t seed = cli.get_seed();

  std::cout << "CAN overlay churn experiment (" << peers << " peers)\n\n";
  Table table({"dims", "avg degree", "alpha_e", "churn p", "|H|/n", "exp(H) [lo,up]",
               "retention up/alpha"});

  // One entry = one overlay dimension.  alpha <= 0 means the runner
  // measures the fault-free overlay's edge expansion (upper bracket).
  Campaign campaign;
  campaign.name = "can-churn-sweep";
  for (std::int64_t dims = 2; dims <= 4; ++dims) {
    Scenario scenario;
    scenario.name = "can-d" + std::to_string(dims);
    scenario.topology = {"can", Params().set("peers", peers).set("dims", dims)};
    scenario.fault = {"random", Params()};
    scenario.prune.kind = ExpansionKind::Edge;
    scenario.metrics.expansion = true;
    scenario.seed = seed + static_cast<std::uint64_t>(dims);
    campaign.entries.push_back({std::move(scenario), SweepSpec{"p", {0.05, 0.15}}});
  }
  const CampaignReport report = CampaignRunner(std::move(campaign)).run(1);
  for (std::size_t e = 0; e < report.scenarios.size(); ++e) {
    const ScenarioReport& sr = report.scenarios[e];
    // The overlay's degree comes from the cached graph the campaign used.
    const Scenario& sc = sr.scenario;
    const double avg_degree = EngineCache::instance()
                                  .graph(sc.topology.name, sc.topology.params,
                                         scenario_build_seed(sc))
                                  ->average_degree();
    for (std::size_t i = 0; i < sr.runs.size(); ++i) {
      const ScenarioRun& run = sr.runs[i];
      std::string after = "-";
      double retention = 0.0;
      if (run.expansion.has_value()) {
        after = "[" + std::to_string(run.expansion->lower).substr(0, 5) + "," +
                std::to_string(run.expansion->upper).substr(0, 5) + "]";
        retention = sr.alpha > 0 ? run.expansion->upper / sr.alpha : 0.0;
      }
      table.row()
          .cell(e + 2)
          .cell(avg_degree, 3)
          .cell(sr.alpha, 3)
          .cell(sr.sweep->values[i], 2)
          .cell(run.survivor_fraction(sr.n), 3)
          .cell(after)
          .cell(retention, 3);
    }
  }
  table.print(std::cout);
  std::cout << "\nhigher dimension -> denser overlay -> better tolerance of the same churn\n"
               "rate (paper §4: admissible fault probability is inversely polynomial in d).\n";

  // Ongoing churn (leave + rejoin) rather than a one-shot failure wave:
  // the overlay must keep a giant — and well-expanding — component
  // throughout.  run_churn re-prunes EVERY round on the one engine the
  // call leases, so the pruned-survivor column is new information
  // the old simulate_churn-only path never had.
  std::cout << "\nongoing churn (p_leave = 0.02/step, p_join = 0.18/step, 80 steps),\n"
               "re-pruned per round through one persistent engine\n\n";
  Table churn_table({"dims", "mean alive fraction", "min gamma over time", "final gamma",
                     "min |H|/n over time", "prune ms total"});
  for (std::int64_t dims = 2; dims <= 4; ++dims) {
    Scenario scenario;
    scenario.name = "can-churn-d" + std::to_string(dims);
    scenario.topology = {"can", Params().set("peers", peers).set("dims", dims)};
    scenario.prune.kind = ExpansionKind::Edge;
    scenario.prune.fast = true;  // certified-valid culls, cross-round reuse
    scenario.seed = seed + static_cast<std::uint64_t>(dims);

    ScenarioRunner runner(scenario);
    ChurnOptions copts;
    copts.steps = 80;
    copts.seed = seed + 17;
    const ChurnRunTrace trace = runner.run_churn(copts);

    const vid n = runner.graph().num_vertices();
    double mean_alive = 0.0;
    double min_gamma = 1.0;
    double min_pruned = 1.0;
    for (const ChurnRoundRun& r : trace.rounds) {
      mean_alive += static_cast<double>(r.churn.alive_count);
      min_gamma = std::min(min_gamma, r.churn.gamma);
      min_pruned = std::min(min_pruned, static_cast<double>(r.survivors) / n);
    }
    mean_alive /= static_cast<double>(trace.rounds.size()) * n;
    churn_table.row()
        .cell(std::size_t(dims))
        .cell(mean_alive, 3)
        .cell(min_gamma, 3)
        .cell(trace.rounds.back().churn.gamma, 3)
        .cell(min_pruned, 3)
        .cell(trace.total_prune_millis(), 1);
  }
  churn_table.print(std::cout);
  std::cout << "\nsteady-state churn keeps ~90% of peers alive; min gamma shows the overlay\n"
               "never fragments — and improves with dimension, as the span/expansion theory\n"
               "predicts.  min |H|/n is the pruned core: what survives with certified\n"
               "expansion, round after round, on one engine.\n";
  return 0;
}
