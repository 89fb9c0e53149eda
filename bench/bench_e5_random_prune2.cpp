// E5 — Theorem 3.4: for fault probability p <= 1/(2e·δ^{4σ}) and
// ε <= 1/(2δ), Prune2(ε) returns H with |H| >= n/2 and edge expansion
// >= ε·α_e (whp).  Meshes have σ = 2 (Theorem 3.6), so the admissible p
// is tiny; we run at the theorem's p and far beyond it to show both the
// guarantee and the (much larger) practical margin.
//
// Campaign version: one entry per mesh, each an independent sweep of the
// fault probability; the campaign's engine cache shares each mesh's
// graph and engine buffers (Krylov basis, BFS queues, degree tables)
// across its sweep points.
#include "bench_common.hpp"

#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "prune/prune2.hpp"
#include "prune/verify.hpp"

int main(int argc, char** argv) {
  using namespace fne;
  const Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_seed();

  bench::print_header("E5",
                      "Theorem 3.4 — Prune2(ε) under random faults keeps |H| >= n/2 with edge "
                      "expansion >= ε·α_e for p <= 1/(2e·δ^{4σ})");

  Table table({"mesh", "n", "alpha_e", "eps", "fault p", "p vs thm", "|H|", "n/2", "size ok",
               "exp(H) up", "thr eps*a_e", "trace ok"});

  struct Case {
    std::string name;
    std::int64_t side;
    std::int64_t dims;
    double alpha_e;  // straight-cut edge expansion of the fault-free mesh
  };
  const std::vector<Case> cases{
      {"2D 24x24", 24, 2, 24.0 / 288.0},
      {"2D 32x32", 32, 2, 32.0 / 512.0},
      {"3D 8x8x8", 8, 3, 64.0 / 256.0},
  };

  // The theorem's p depends on the mesh's max degree δ, known before any
  // prune runs (the cache builds the graph once; the campaign reuses it).
  const double sigma = 2.0;  // Theorem 3.6
  Campaign campaign;
  campaign.name = "e5";
  std::vector<double> theorem_ps;
  for (const Case& c : cases) {
    Scenario scenario;
    scenario.name = c.name;
    scenario.topology = {"mesh", Params().set("side", c.side).set("dims", c.dims)};
    scenario.fault = {"random", Params()};
    scenario.prune.kind = ExpansionKind::Edge;
    scenario.prune.alpha = c.alpha_e;  // epsilon <= 0 resolves to 1/(2δ)
    scenario.metrics.verify_trace = true;
    scenario.metrics.expansion = true;
    scenario.seed = seed + static_cast<std::uint64_t>(c.side * c.dims);
    const double delta =
        EngineCache::instance()
            .graph("mesh", scenario.topology.params, scenario_build_seed(scenario))
            ->max_degree();
    theorem_ps.push_back(theorem34_fault_probability(delta, sigma));
    campaign.entries.push_back(
        {std::move(scenario), SweepSpec{"p", {theorem_ps.back(), 0.01, 0.03}}});
  }

  const CampaignReport report = CampaignRunner(std::move(campaign)).run(1);
  for (std::size_t e = 0; e < report.scenarios.size(); ++e) {
    const ScenarioReport& sr = report.scenarios[e];
    const std::vector<double>& probes = sr.sweep->values;
    for (std::size_t i = 0; i < sr.runs.size(); ++i) {
      const ScenarioRun& result = sr.runs[i];
      std::string h_up = "-";
      if (result.expansion.has_value()) {
        h_up = std::to_string(result.expansion->upper).substr(0, 6);
      }
      table.row()
          .cell(cases[e].name)
          .cell(std::size_t{sr.n})
          .cell(sr.alpha, 3)
          .cell(sr.epsilon, 3)
          .cell(probes[i], 3)
          .cell(probes[i] <= theorem_ps[e] ? "<= thm" : "beyond")
          .cell(std::size_t{result.prune.survivors.count()})
          .cell(std::size_t{sr.n / 2})
          .cell(bench::yesno(result.prune.survivors.count() >= sr.n / 2))
          .cell(h_up)
          .cell(result.threshold, 4)
          .cell(bench::yesno(result.trace.has_value() && result.trace->valid));
    }
  }
  bench::print_table(
      table,
      "paper prediction: at p <= 1/(2e·δ^{4σ}) every row has size ok / trace ok;\n"
      "the 'beyond' rows probe the slack between the conservative bound and actual resilience\n"
      "(the guarantee is expected to persist far beyond the theorem's p on meshes).");
  return 0;
}
