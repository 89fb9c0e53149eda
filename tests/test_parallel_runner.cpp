// Parallel campaign execution contracts (DESIGN.md §7/§8): a campaign's
// runs are bit-identical, field by field, for ANY thread count (seeds per
// repetition, engines cold at every lease) and for any engine-cache
// history, per-entry engine stats are placement-independent, a bad sweep
// fails before any job runs without poisoning the runner, and the
// percolation layer's chunk-merged stats are thread-count independent.
#include <gtest/gtest.h>

#include "api/campaign.hpp"
#include "api/runner.hpp"
#include "percolation/percolation.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {
namespace {

[[nodiscard]] Scenario parallel_scenario(bool fast) {
  Scenario s;
  s.name = "parallel-test";
  s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.25"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.fast = fast;
  s.repetitions = 6;
  s.seed = 424242;
  return s;
}

/// The single entry of a one-entry campaign run at `threads`.
[[nodiscard]] ScenarioReport run_entry(const Scenario& s, std::optional<SweepSpec> sweep,
                                       int threads) {
  Campaign campaign;
  campaign.name = "parallel";
  campaign.entries.push_back({s, std::move(sweep)});
  return CampaignRunner(std::move(campaign)).run(threads).scenarios.front();
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  EXPECT_EQ(a.repetition, b.repetition);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.finder_seed, b.finder_seed);
  EXPECT_TRUE(a.alive == b.alive);
  EXPECT_TRUE(a.prune.survivors == b.prune.survivors);
  EXPECT_EQ(a.prune.iterations, b.prune.iterations);
  ASSERT_EQ(a.prune.culled.size(), b.prune.culled.size());
  for (std::size_t i = 0; i < a.prune.culled.size(); ++i) {
    EXPECT_TRUE(a.prune.culled[i].set == b.prune.culled[i].set);
    EXPECT_EQ(a.prune.culled[i].boundary, b.prune.culled[i].boundary);
  }
}

void expect_identical(const std::vector<ScenarioRun>& a, const std::vector<ScenarioRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(ParallelRunner, RepetitionsAreBitIdenticalAcrossThreadCounts) {
  for (const bool fast : {false, true}) {
    SCOPED_TRACE(fast ? "fast" : "deterministic");
    const Scenario s = parallel_scenario(fast);
    const std::vector<ScenarioRun> serial = run_entry(s, std::nullopt, 1).runs;
    ASSERT_EQ(serial.size(), static_cast<std::size_t>(s.repetitions));
    bool any_culled = false;
    for (const ScenarioRun& r : serial) any_culled = any_culled || r.prune.total_culled > 0;
    EXPECT_TRUE(any_culled) << "workload too gentle to exercise the cull loop";
    for (const int threads : {2, 3}) {
      SCOPED_TRACE(threads);
      expect_identical(serial, run_entry(s, std::nullopt, threads).runs);
    }
  }
}

TEST(ParallelRunner, EngineCacheHistoryCannotLeakIntoCampaignRuns) {
  // An engine with prior history (warm Fiedler cache from run_once) goes
  // back to the idle pool when its runner dies; a campaign that leases it
  // must still produce the cold-cache runs: every lease starts cold.
  const Scenario s = parallel_scenario(true);
  EngineCache::instance().clear();
  const std::vector<ScenarioRun> fresh = run_entry(s, std::nullopt, 3).runs;
  EngineCache::instance().clear();
  {
    ScenarioRunner warmed(s);
    (void)warmed.run_once(0);
  }
  const EngineCacheStats before = EngineCache::instance().stats();
  const std::vector<ScenarioRun> after_history = run_entry(s, std::nullopt, 1).runs;
  EXPECT_GT((EngineCache::instance().stats() - before).engine_hits, 0u)
      << "the warmed engine must actually be reused";
  expect_identical(after_history, fresh);
}

TEST(ParallelRunner, SweepIsBitIdenticalAcrossThreadCounts) {
  const Scenario s = parallel_scenario(true);
  const SweepSpec sweep{"p", {0.05, 0.15, 0.25, 0.35}, SweepMode::kIndependent};
  const ScenarioReport serial = run_entry(s, sweep, 1);
  for (const int threads : {2, 3}) {
    SCOPED_TRACE(threads);
    expect_identical(serial.runs, run_entry(s, sweep, threads).runs);
  }
  // Sweep points run copies: the entry's own fault spec is untouched.
  EXPECT_EQ(serial.scenario.fault.params.get_double("p", 0.0), 0.25);
}

TEST(ParallelRunner, EntryStatsAccountForEveryRepetition) {
  const Scenario s = parallel_scenario(true);
  const EngineStats serial = run_entry(s, std::nullopt, 1).engine;
  EXPECT_EQ(serial.runs, static_cast<std::uint64_t>(s.repetitions));
  const EngineStats pooled = run_entry(s, std::nullopt, 3).engine;
  EXPECT_EQ(pooled.runs, static_cast<std::uint64_t>(s.repetitions));
  // Work totals are placement-independent: same culls, same iterations.
  EXPECT_EQ(serial.iterations, pooled.iterations);
  EXPECT_EQ(serial.eigensolves, pooled.eigensolves);
  EXPECT_EQ(serial.disconnected_culls, pooled.disconnected_culls);
}

TEST(ParallelRunner, BadSweepFailsBeforeAnyJobWithoutPoisoningTheRunner) {
  const Scenario s = parallel_scenario(false);
  Campaign bad;
  bad.name = "bad-sweep";
  bad.entries.push_back({s, std::nullopt});  // a good entry ahead of the bad one
  bad.entries.push_back({s, SweepSpec{"no_such_key", {0.1, 0.2}, SweepMode::kIndependent}});
  CampaignRunner runner(std::move(bad));
  const EngineCacheStats before = EngineCache::instance().stats();
  EXPECT_THROW((void)runner.run(2), PreconditionError);
  EXPECT_EQ((EngineCache::instance().stats() - before).leases, 0u)
      << "the sweep must be rejected before any job leases an engine";
  // A good campaign on the same scenario still runs afterwards.
  const ScenarioReport ok = run_entry(s, SweepSpec{"p", {0.1, 0.2}, SweepMode::kIndependent}, 2);
  EXPECT_EQ(ok.runs.size(), 2u);
  EXPECT_FALSE(ok.scenario.fault.params.has("no_such_key"));
}

TEST(ParallelRunner, PercolationStatsAreThreadCountIndependent) {
  const Mesh m = Mesh::cube(12, 2);
  const PercolationResult reference = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const PercolationResult again = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
    SCOPED_TRACE(threads);
    EXPECT_EQ(reference.gamma.count(), again.gamma.count());
    EXPECT_EQ(reference.gamma.mean(), again.gamma.mean());
    EXPECT_EQ(reference.gamma.variance(), again.gamma.variance());
    EXPECT_EQ(reference.gamma.min(), again.gamma.min());
    EXPECT_EQ(reference.gamma.max(), again.gamma.max());
  }
  omp_set_num_threads(saved);
#else
  const PercolationResult again = percolate(m.graph(), PercolationKind::Site, 0.7, 37, 5);
  EXPECT_EQ(reference.gamma.mean(), again.gamma.mean());
#endif
  EXPECT_EQ(reference.gamma.count(), 37u);
}

}  // namespace
}  // namespace fne
