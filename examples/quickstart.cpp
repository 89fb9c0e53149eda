// Quickstart: the scenario API in five steps (plus a campaign coda).
//
// Every experiment in this library is one pipeline — build a topology,
// injure it, run Prune/Prune2, measure the survivor.  The scenario layer
// (DESIGN.md §6) makes that pipeline a value: describe it as an
// fne::Scenario, hand it to an fne::ScenarioRunner, read the metrics.
// A batch of such pipelines is a Campaign (DESIGN.md §8) — run many
// scenarios as one schedule, or load them from a JSON file:
//
//   ./scenario_runner --campaign=campaigns/smoke.json --threads=4
//
//   ./example_quickstart [--side=24] [--p=0.05] [--seed=42]
#include <iostream>

#include "api/campaign.hpp"
#include "api/runner.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace fne;
  const Cli cli(argc, argv);

  // 1. Describe the experiment.  Topology and fault process are registry
  //    names (see `scenario_runner --list` for the full catalog), so the
  //    whole description is plain data — no per-module APIs involved.
  Scenario scenario;
  scenario.name = "quickstart";
  scenario.topology = {"mesh", Params()
                                   .set("side", cli.get_int("side", 24))
                                   .set("dims", std::int64_t{2})};
  scenario.fault = {"random", Params().set("p", cli.get_double("p", 0.05))};
  scenario.prune.kind = ExpansionKind::Edge;   // Prune2, the random-fault algorithm
  scenario.metrics.verify_trace = true;        // replay-certify the run
  scenario.metrics.expansion = true;           // bracket the survivor's expansion
  scenario.seed = cli.get_seed();

  // 2. Bind a runner.  At first use it builds the graph once and
  //    resolves alpha (the measured edge expansion of the fault-free
  //    mesh — a real cut, so a value the graph actually has) and epsilon
  //    (Theorem 3.4's 1/(2*max_degree)).  Each run leases a PruneEngine
  //    from the process-wide cache, so its workspace outlives the run.
  ScenarioRunner runner(scenario);
  std::cout << "network: " << runner.graph().summary() << "\n"
            << "alpha_e = " << runner.alpha() << ", eps = " << runner.epsilon()
            << "  ->  culling threshold alpha*eps = " << runner.alpha() * runner.epsilon()
            << "\n";

  // 3. Execute repetition 0.  One call injects the faults, runs the
  //    engine-backed Prune2 loop, and measures the requested metrics.
  const ScenarioRun run = runner.run_isolated(scenario.fault, 0);
  std::cout << "faults: " << run.faults << " nodes failed, " << run.alive.count()
            << " survive\n"
            << "prune2: culled " << run.prune.total_culled << " vertices in "
            << run.prune.iterations << " iterations; |H| = " << run.prune.survivors.count()
            << " (n/2 = " << runner.graph().num_vertices() / 2 << ")\n";

  // 4. Certify.  The trace replay proves every culled set satisfied its
  //    culling condition — the run is a valid execution of the paper's
  //    algorithm, not just a heuristic's opinion.
  std::cout << "trace replay: "
            << (run.trace->valid ? "valid" : "INVALID — " + run.trace->reason) << "\n";

  // 5. Read the survivor's expansion bracket: [provable lower bound,
  //    constructive upper bound] around the Theorem 3.4 target.
  if (run.expansion.has_value()) {
    std::cout << "edge expansion of H in [" << run.expansion->lower << ", "
              << run.expansion->upper << "]  (target: >= " << run.threshold << ")\n";
  }

  // 6. Campaigns: a STUDY is a list of scenarios.  This one sweeps the
  //    fault probability around the value above (monotone mode: the
  //    survivors at p feed the start mask at the next p — same survivors
  //    in this regime, less cull work), scheduled on the process-wide
  //    engine cache.  The same study as a JSON file:
  //
  //      {"name": "quickstart",
  //       "scenarios": [{"name": "p-sweep",
  //         "topology": {"name": "mesh", "params": {"side": 24, "dims": 2}},
  //         "fault":    {"name": "random", "params": {"p": 0.05}},
  //         "prune":    {"kind": "edge"},
  //         "sweep":    {"param": "p", "values": [0.05, 0.15, 0.25],
  //                      "mode": "monotone"}}]}
  //
  //    runnable as `scenario_runner --campaign=that-file.json`.
  Campaign campaign;
  campaign.name = "quickstart-campaign";
  Scenario sweep = scenario;
  sweep.name = "p-sweep";
  sweep.metrics.expansion = false;
  campaign.entries.push_back({sweep, SweepSpec{"p", {0.05, 0.15, 0.25}, SweepMode::kMonotone}});
  const CampaignReport report = CampaignRunner(campaign).run(/*threads=*/2);
  const ScenarioReport& sr = report.scenarios.front();
  std::cout << "\ncampaign '" << report.name << "': " << sr.runs.size()
            << " sweep points, engine iterations = " << sr.engine.iterations << "\n";
  // The standard runs table — what the scenario_runner CLI prints for
  // every entry of every campaign (one row per sweep point here).
  runs_table(sr).print(std::cout);
  return 0;
}
