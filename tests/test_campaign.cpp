// Executor/campaign layer contracts (DESIGN.md §8): ExecutorPool job
// coverage and error propagation, EngineCache sharing + lease isolation,
// monotone fault sweeps (registry gating, work saving, deterministic
// parity with independent points), campaign JSON parsing, and the
// campaign determinism story — the report's deterministic payload is
// byte-identical across thread counts and cache-hit patterns.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "store/result_store.hpp"
#include "topology/classic.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

// ---------------------------------------------------------------------------
// ExecutorPool
// ---------------------------------------------------------------------------

TEST(ExecutorPool, RunsEveryJobExactlyOnce) {
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    constexpr std::size_t kJobs = 100;
    std::vector<std::atomic<int>> hits(kJobs);
    ExecutorPool::run(kJobs, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ExecutorPool, ZeroJobsIsANoOp) {
  ExecutorPool::run(0, 4, [](std::size_t) { FAIL() << "no jobs to run"; });
}

TEST(ExecutorPool, FirstErrorPropagatesAndRemainingJobsStillRun) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ExecutorPool::run(20, 4,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 3) throw PreconditionError("job 3 failed");
                                 }),
               PreconditionError);
  EXPECT_EQ(ran.load(), 20);
}

// ---------------------------------------------------------------------------
// EngineCache
// ---------------------------------------------------------------------------

TEST(EngineCache, UnseededTopologiesShareOneGraphAcrossSeeds) {
  EngineCache& cache = EngineCache::instance();
  const Params mesh = Params{{"side", "10"}, {"dims", "2"}};
  const auto a = cache.graph("mesh", mesh, 1);
  const auto b = cache.graph("mesh", mesh, 99999);
  EXPECT_EQ(a.get(), b.get()) << "mesh ignores its seed; the cache must fold the key";

  const Params rr = Params{{"n", "64"}, {"degree", "4"}};
  const auto c = cache.graph("random_regular", rr, 1);
  const auto d = cache.graph("random_regular", rr, 2);
  EXPECT_NE(c.get(), d.get()) << "seeded topologies are distinct per seed";
  const auto c2 = cache.graph("random_regular", rr, 1);
  EXPECT_EQ(c.get(), c2.get());
}

TEST(EngineCache, LeasedEnginesReturnToTheIdlePoolAndAreReused) {
  EngineCache& cache = EngineCache::instance();
  const Params params = Params{{"side", "9"}, {"dims", "2"}};
  cache.clear();
  const EngineCacheStats before = cache.stats();
  {
    const EngineLease lease = cache.lease("mesh", params, 7, ExpansionKind::Edge);
    EXPECT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(lease.graph().num_vertices(), 81u);
  }
  EXPECT_GE(cache.idle_engines(), 1u);
  {
    const EngineLease again = cache.lease("mesh", params, 8, ExpansionKind::Edge);
    EXPECT_TRUE(static_cast<bool>(again));
  }
  const EngineCacheStats delta = cache.stats() - before;
  EXPECT_EQ(delta.leases, 2u);
  EXPECT_EQ(delta.engine_builds, 1u);
  EXPECT_EQ(delta.engine_hits, 1u) << "the second lease must be served from the idle pool";
}

TEST(EngineCache, LeaseDropsWarmStateSoHistoryCannotLeak) {
  // Run the same fast-mode repetition twice through cache leases with a
  // warm-history engine in between: bit-identical results either way.
  Scenario s;
  s.name = "cache-isolation";
  s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.25"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.fast = true;
  s.seed = 5150;

  ScenarioRunner fresh(s);
  const ScenarioRun cold = fresh.run_isolated(s.fault, 0);

  ScenarioRunner warmed(s);
  (void)warmed.run_isolated(s.fault, 1);  // returns an engine with a warm Fiedler cache
  const ScenarioRun after_history = warmed.run_isolated(s.fault, 0);
  EXPECT_TRUE(cold.prune.survivors == after_history.prune.survivors);
  EXPECT_EQ(cold.prune.iterations, after_history.prune.iterations);
}

// ---------------------------------------------------------------------------
// Monotone sweeps
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario sweep_scenario() {
  Scenario s;
  s.name = "sweep-test";
  s.topology = {"mesh", Params{{"side", "24"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 2.0 / 24.0;
  s.seed = 20240731;
  s.metrics.verify_trace = true;
  return s;
}

/// The single entry of a one-entry sweep campaign.
[[nodiscard]] ScenarioReport run_sweep(const Scenario& s, SweepSpec sweep, int threads = 1) {
  Campaign campaign;
  campaign.name = "sweep";
  campaign.entries.push_back({s, std::move(sweep)});
  return CampaignRunner(std::move(campaign)).run(threads).scenarios.front();
}

TEST(MonotoneSweep, DeterministicModeMatchesIndependentPointsBitForBit) {
  const std::vector<double> values{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35};
  const ScenarioReport indep =
      run_sweep(sweep_scenario(), SweepSpec{"p", values, SweepMode::kIndependent}, 2);
  const ScenarioReport mono =
      run_sweep(sweep_scenario(), SweepSpec{"p", values, SweepMode::kMonotone}, 2);
  ASSERT_EQ(indep.runs.size(), values.size());
  ASSERT_EQ(mono.runs.size(), values.size());
  bool any_culled = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE(values[i]);
    // The sweep's OUTPUT — the survivor set — is bit-identical in the
    // paper's subcritical prune2 regime; the chained trace (alive,
    // culled records) legitimately covers only the delta.
    EXPECT_TRUE(indep.runs[i].prune.survivors == mono.runs[i].prune.survivors);
    EXPECT_EQ(indep.runs[i].fault_seed, mono.runs[i].fault_seed);
    EXPECT_EQ(indep.runs[i].faults, mono.runs[i].faults)
        << "fault counts describe the fault model";
    EXPECT_TRUE(mono.runs[i].alive.is_subset_of(indep.runs[i].alive))
        << "chained start must be a subset of the fault-model mask";
    // Every monotone point is still a certified prune run.
    ASSERT_TRUE(mono.runs[i].trace.has_value());
    EXPECT_TRUE(mono.runs[i].trace->valid);
    any_culled = any_culled || indep.runs[i].prune.total_culled > 0;
  }
  EXPECT_TRUE(any_culled) << "workload too gentle to exercise the cull loop";

  // The fast path must actually save cull work (the acceptance criterion
  // bench_s4_campaign measures at scale).
  EXPECT_LT(mono.engine.iterations, indep.engine.iterations);
}

TEST(MonotoneSweep, MasksNestUnderTheSameSeed) {
  // The coupling the registry declaration promises: alive(p_hi) is a
  // subset of alive(p_lo) under one seed.
  const auto g = EngineCache::instance().graph("mesh", Params{{"side", "12"}}, 0);
  const VertexSet lo = FaultModelRegistry::instance().build("random", *g,
                                                            Params{{"p", "0.1"}}, 777);
  const VertexSet hi = FaultModelRegistry::instance().build("random", *g,
                                                            Params{{"p", "0.4"}}, 777);
  EXPECT_TRUE(hi.is_subset_of(lo));
  EXPECT_LT(hi.count(), lo.count());

  const VertexSet small_attack = FaultModelRegistry::instance().build(
      "high_degree", *g, Params{{"budget", "10"}}, 1);
  const VertexSet big_attack = FaultModelRegistry::instance().build(
      "high_degree", *g, Params{{"budget", "40"}}, 1);
  EXPECT_TRUE(big_attack.is_subset_of(small_attack));
}

TEST(MonotoneSweep, RequiresADeclaredParamAndAscendingValues) {
  // Each bad sweep sits BEHIND a good entry: the plan must reject it
  // before any job runs, so nothing is computed or committed to the store.
  const auto expect_rejected_up_front = [](const Scenario& s, SweepSpec sweep) {
    Campaign campaign;
    campaign.name = "bad-monotone";
    campaign.entries.push_back({sweep_scenario(), std::nullopt});
    campaign.entries.push_back({s, std::move(sweep)});
    const std::string dir = ::testing::TempDir() + "fne_bad_sweep_store";
    std::filesystem::remove_all(dir);
    {
      ResultStore store(dir);
      const EngineCacheStats before = EngineCache::instance().stats();
      EXPECT_THROW((void)CampaignPlan(campaign, 2), PreconditionError);
      EXPECT_THROW((void)CampaignRunner(campaign).run(2, &store), PreconditionError);
      EXPECT_EQ((EngineCache::instance().stats() - before).leases, 0u) << "a job ran";
      EXPECT_EQ(store.stats().records, 0u) << "a cell was committed";
    }
    std::filesystem::remove_all(dir);
  };
  Scenario undeclared = sweep_scenario();
  undeclared.fault = {"sweep_cut", Params{}};
  expect_rejected_up_front(undeclared, SweepSpec{"frac", {0.1, 0.2}, SweepMode::kMonotone});
  expect_rejected_up_front(sweep_scenario(),
                           SweepSpec{"p", {0.3, 0.2}, SweepMode::kMonotone});
  expect_rejected_up_front(sweep_scenario(),
                           SweepSpec{"no_such_param", {0.1, 0.2}, SweepMode::kMonotone});

  // A valid chain on the same scenario still runs.
  EXPECT_EQ(run_sweep(sweep_scenario(), SweepSpec{"p", {0.1, 0.2}, SweepMode::kMonotone})
                .runs.size(),
            2u);
}

// ---------------------------------------------------------------------------
// Campaign JSON
// ---------------------------------------------------------------------------

TEST(CampaignJson, ParsesPresetsOverridesAndSweeps) {
  const std::string text = R"({
    "name": "doc-example",
    "scenarios": [
      {"preset": "mesh-random", "repetitions": 3, "seed": 9},
      {"name": "sweepy",
       "topology": {"name": "mesh", "params": {"side": 16, "dims": 2}},
       "fault": {"name": "random", "params": {"p": 0.1}},
       "prune": {"kind": "edge", "alpha": 0.125, "fast": true},
       "metrics": {"verify_trace": true},
       "sweep": {"param": "p", "values": [0.1, 0.2, 0.3], "mode": "monotone"}}
    ]})";
  const Campaign c = campaign_from_json(text);
  EXPECT_EQ(c.name, "doc-example");
  ASSERT_EQ(c.entries.size(), 2u);

  const Scenario& preset = c.entries[0].scenario;
  EXPECT_EQ(preset.name, "mesh-random");
  EXPECT_EQ(preset.repetitions, 3);
  EXPECT_EQ(preset.seed, 9u);
  EXPECT_EQ(preset.topology.name, "mesh");
  EXPECT_FALSE(c.entries[0].sweep.has_value());

  const Scenario& sweepy = c.entries[1].scenario;
  EXPECT_EQ(sweepy.name, "sweepy");
  EXPECT_EQ(sweepy.topology.params.get_int("side", 0), 16);
  EXPECT_DOUBLE_EQ(sweepy.prune.alpha, 0.125);
  EXPECT_TRUE(sweepy.prune.fast);
  EXPECT_TRUE(sweepy.metrics.verify_trace);
  ASSERT_TRUE(c.entries[1].sweep.has_value());
  EXPECT_EQ(c.entries[1].sweep->param, "p");
  EXPECT_EQ(c.entries[1].sweep->values.size(), 3u);
  EXPECT_EQ(c.entries[1].sweep->mode, SweepMode::kMonotone);
}

TEST(CampaignJson, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": []})"), PreconditionError);
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [{"topologyy": {}}]})"),
               PreconditionError);
  EXPECT_THROW(
      (void)campaign_from_json(R"({"scenarios": [{"prune": {"kind": "sideways"}}]})"),
      PreconditionError);
  EXPECT_THROW(
      (void)campaign_from_json(R"({"scenarios": [{"sweep": {"param": "p", "values": []}}]})"),
      PreconditionError);
  EXPECT_THROW((void)campaign_from_file("/no/such/file.json"), PreconditionError);
}

TEST(JsonValueParser, CoversTheGrammar) {
  const JsonValue v = JsonValue::parse(
      R"({"s": "a\"b\nA", "i": -42, "f": 6.25e-2, "t": true, "n": null,
          "arr": [1, [2, 3], {"k": "v"}]})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\nA");
  EXPECT_EQ(v.at("i").as_int(), -42);
  EXPECT_DOUBLE_EQ(v.at("f").as_number(), 0.0625);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  ASSERT_EQ(v.at("arr").items().size(), 3u);
  EXPECT_EQ(v.at("arr").items()[1].items()[1].as_int(), 3);
  EXPECT_EQ(v.at("arr").items()[2].at("k").as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), PreconditionError);
  EXPECT_THROW((void)v.at("i").as_string(), PreconditionError);
  EXPECT_THROW((void)v.at("f").as_int(), PreconditionError);
}

TEST(JsonValueParser, RejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse("{"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("{} extra"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1, "a": 2})"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 01x})"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"(["unterminated)"), PreconditionError);
}

// ---------------------------------------------------------------------------
// Campaign determinism
// ---------------------------------------------------------------------------

[[nodiscard]] Campaign determinism_campaign() {
  Campaign campaign;
  campaign.name = "determinism";
  {
    Scenario s;
    s.name = "reps";
    s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.25"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.fast = true;
    s.repetitions = 5;
    s.seed = 71;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "monotone";
    s.topology = {"mesh", Params{{"side", "16"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;
    s.seed = 72;
    campaign.entries.push_back({s, SweepSpec{"p", {0.1, 0.2, 0.3}, SweepMode::kMonotone}});
  }
  {
    Scenario s;
    s.name = "hubs";
    s.topology = {"hypercube", Params{{"dims", "7"}}};
    s.fault = {"high_degree", Params{{"frac", "0.1"}}};
    s.prune.kind = ExpansionKind::Node;
    s.repetitions = 2;
    s.seed = 73;
    campaign.entries.push_back({s, std::nullopt});
  }
  return campaign;
}

TEST(Campaign, DeterministicPayloadIsByteIdenticalAcrossThreadCounts) {
  CampaignRunner runner(determinism_campaign());
  const CampaignReport serial = runner.run(1);
  const std::string payload = serial.to_json(/*include_timing=*/false);
  EXPECT_NE(payload.find("\"survivor_hash\""), std::string::npos);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const CampaignReport parallel = runner.run(threads);
    EXPECT_EQ(payload, parallel.to_json(false));
  }
}

TEST(Campaign, DeterministicPayloadIsIdenticalWarmAndColdCache) {
  EngineCache::instance().clear();
  CampaignRunner runner(determinism_campaign());
  const std::string cold = runner.run(3).to_json(false);
  // Second run: every graph and engine now comes from the cache.
  const EngineCacheStats before = EngineCache::instance().stats();
  const std::string warm = runner.run(3).to_json(false);
  const EngineCacheStats delta = EngineCache::instance().stats() - before;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(delta.graph_builds, 0u) << "warm run must reuse every cached graph";
  EXPECT_GT(delta.engine_hits, 0u);
}

TEST(Campaign, ReportAccountsEveryRunAndFoldsEngineStats) {
  CampaignRunner runner(determinism_campaign());
  const CampaignReport report = runner.run(2);
  ASSERT_EQ(report.scenarios.size(), 3u);
  EXPECT_EQ(report.scenarios[0].runs.size(), 5u);
  EXPECT_EQ(report.scenarios[1].runs.size(), 3u);
  EXPECT_EQ(report.scenarios[2].runs.size(), 2u);
  // 5 reps + 1 monotone chain of 3 + 2 reps = 10 engine runs.
  EXPECT_EQ(report.total_engine_stats().runs, 10u);
  for (const ScenarioReport& s : report.scenarios) {
    EXPECT_GT(s.n, 0u);
    EXPECT_GT(s.alpha, 0.0);
  }
  // The timing payload includes wall-clock and cache ops on top of the
  // deterministic payload.
  const std::string timed = report.to_json(true);
  EXPECT_NE(timed.find("\"millis\""), std::string::npos);
  EXPECT_NE(timed.find("\"cache\""), std::string::npos);
  EXPECT_EQ(report.to_json(false).find("\"millis\""), std::string::npos);
}

TEST(Campaign, ValidatesEntriesEagerly) {
  Campaign bad;
  bad.entries.push_back({Scenario{.topology = {"no_such_topology", Params{}}}, std::nullopt});
  EXPECT_THROW((void)CampaignRunner(std::move(bad)), PreconditionError);
  Campaign empty;
  EXPECT_THROW((void)CampaignRunner(std::move(empty)), PreconditionError);
}

// ---------------------------------------------------------------------------
// Lazy graph lease
// ---------------------------------------------------------------------------

std::atomic<int> g_counted_builds{0};

/// A cycle topology that counts its builds, registered once per process.
[[nodiscard]] const std::string& counted_topology() {
  static const std::string name = [] {
    const std::string n = "test_counted_cycle";
    TopologyEntry entry;
    entry.name = n;
    entry.doc = "cycle graph that counts its builds (tests only)";
    entry.params = {{"n", "32", "vertex count"}};
    entry.expected_n = [](const Params& p) { return static_cast<vid>(p.get_int("n", 32)); };
    entry.build = [](const Params& p, std::uint64_t) {
      g_counted_builds.fetch_add(1);
      return cycle_graph(static_cast<vid>(p.get_int("n", 32)));
    };
    entry.seeded = false;
    TopologyRegistry::instance().add(std::move(entry));
    return n;
  }();
  return name;
}

TEST(RunnerLease, ConstructionAndServedEpsilonLeaseNoGraph) {
  Scenario s;
  s.name = "counted";
  s.topology = {counted_topology(), Params{{"n", "24"}}};
  s.prune.alpha = 0.25;
  EngineCache::instance().clear();
  g_counted_builds = 0;

  s.prune.kind = ExpansionKind::Node;
  EXPECT_EQ(ScenarioRunner(s).epsilon(), 0.5);
  s.prune.kind = ExpansionKind::Edge;
  s.prune.epsilon = 0.3;
  EXPECT_EQ(ScenarioRunner(s).epsilon(), 0.3);
  s.prune.epsilon = 0.0;
  ScenarioRunner served(s);
  EXPECT_TRUE(served.set_alpha_epsilon(0.25, 0.125));
  EXPECT_FALSE(served.set_alpha_epsilon(0.25, 0.0625)) << "the first supplied values stay";
  EXPECT_EQ(served.epsilon(), 0.125) << "only the supplied value can say 0.125";
  EXPECT_EQ(g_counted_builds.load(), 0) << "no graph until a unit needs one";

  s.prune.alpha = 0.0;  // measured
  ScenarioRunner measuring(s);
  EXPECT_TRUE(measuring.set_alpha_epsilon(0.375, 0.125));
  EXPECT_EQ(measuring.alpha(), 0.375);
  EXPECT_FALSE(measuring.measured_alpha()) << "a supplied alpha is not a measurement";
  EXPECT_EQ(g_counted_builds.load(), 0);

  s.prune.alpha = 0.25;
  ScenarioRunner read(s);
  EXPECT_EQ(read.epsilon(), 0.25) << "a cycle's max degree is 2";
  EXPECT_EQ(g_counted_builds.load(), 1);
  EXPECT_FALSE(read.set_alpha_epsilon(0.25, 0.125)) << "epsilon was already read from the graph";
  EXPECT_EQ(read.epsilon(), 0.25);
  EXPECT_EQ(read.graph().num_vertices(), 24u);
  EXPECT_EQ(g_counted_builds.load(), 1);
}

TEST(RunnerLease, ConcurrentRepetitionsBuildTheGraphOnce) {
  Campaign campaign;
  campaign.name = "lease-once";
  Scenario s;
  s.name = "counted-reps";
  s.topology = {counted_topology(), Params{{"n", "40"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Edge;  // measured α and default ε
  s.repetitions = 6;
  s.seed = 3;
  campaign.entries.push_back({s, std::nullopt});

  EngineCache::instance().clear();
  g_counted_builds = 0;
  const CampaignReport report = CampaignRunner(campaign).run(2);
  EXPECT_EQ(g_counted_builds.load(), 1) << "six jobs on two threads lease one graph";
  EXPECT_EQ(report.cache.graph_builds, 1u);
  EXPECT_EQ(report.scenarios[0].n, 40u);
  EXPECT_EQ(report.scenarios[0].epsilon, 0.25);
  EXPECT_EQ(report.to_json(false), CampaignRunner(campaign).run(1).to_json(false));
}

}  // namespace
}  // namespace fne
