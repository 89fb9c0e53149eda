// MetricsRegistry contracts (DESIGN.md §9): registry round-trips and
// param validation, campaign-JSON metric requests (unknown names and
// undeclared params rejected loudly), per-run metric records through
// ScenarioRunner, byte-identical campaign payloads across thread counts
// and warm/cold EngineCache states, and property tests for mesh_span /
// embedding_quality on the shared graph-family fixtures.
#include <gtest/gtest.h>

#include <cmath>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "core/traversal.hpp"
#include "graph_cases.hpp"
#include "span/span.hpp"
#include "topology/mesh.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

// ---------------------------------------------------------------------------
// Registry basics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ListsTheBuiltins) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  for (const char* name : {"fragmentation", "expansion_bracket", "verify_trace", "mesh_span",
                           "span_estimate", "embedding_quality", "expander_certificate"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.at(name).doc.empty());
  }
  EXPECT_FALSE(reg.contains("no_such_metric"));
}

TEST(MetricsRegistry, UnknownNamesFailNamingTheRegisteredOnes) {
  try {
    (void)MetricsRegistry::instance().at("mesh_spam");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown metric 'mesh_spam'"), std::string::npos) << what;
    EXPECT_NE(what.find("mesh_span"), std::string::npos) << "must list registered names";
  }
}

TEST(MetricsRegistry, RejectsUndeclaredParams) {
  try {
    MetricsRegistry::instance().check("mesh_span", Params{{"sampels", "3"}});
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("has no param 'sampels'"), std::string::npos) << what;
    EXPECT_NE(what.find("samples"), std::string::npos) << "must list declared keys";
  }
  // Declared params pass.
  MetricsRegistry::instance().check("mesh_span", Params{{"samples", "3"}});
}

// ---------------------------------------------------------------------------
// Campaign JSON round-trip
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CampaignJsonRoundTripsMetricRequests) {
  const std::string text = R"({
    "scenarios": [
      {"name": "span-probe",
       "topology": {"name": "mesh", "params": {"side": 8, "dims": 2}},
       "prune": {"alpha": 0.25},
       "metrics": {"fragmentation": false,
                   "requests": [{"name": "mesh_span", "params": {"samples": 5}},
                                {"name": "embedding_quality"}]}}
    ]})";
  const Campaign c = campaign_from_json(text);
  ASSERT_EQ(c.entries.size(), 1u);
  const MetricsSpec& spec = c.entries[0].scenario.metrics;
  EXPECT_FALSE(spec.fragmentation);
  ASSERT_EQ(spec.requests.size(), 2u);
  EXPECT_EQ(spec.requests[0].name, "mesh_span");
  EXPECT_EQ(spec.requests[0].params.get_int("samples", 0), 5);
  EXPECT_EQ(spec.requests[1].name, "embedding_quality");
  EXPECT_TRUE(spec.requests[1].params.empty());
}

TEST(MetricsRegistry, CampaignJsonRejectsUnknownMetricsAndParams) {
  // Unknown metric name: rejected at parse time, naming the registry.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "mesh_spam"}]}}]})"),
               PreconditionError);
  // Undeclared metric param: same.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "mesh_span", "params": {"smaples": 2}}]}}]})"),
               PreconditionError);
  // Unknown key inside a request entry: same unknown-key style.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"nam": "mesh_span"}]}}]})"),
               PreconditionError);
}

TEST(MetricsRegistry, SpectralMetricsRejectSolverParams) {
  // The eigensolver picks its own mode from the graph size, so the
  // spectral metrics declare no solver knobs: spectral_mode and
  // filter_degree are undeclared params, rejected in check() (campaign
  // parse time) with the offending key named.
  for (const char* metric : {"embedding_quality", "expander_certificate"}) {
    for (const char* key : {"spectral_mode", "filter_degree"}) {
      try {
        MetricsRegistry::instance().check(metric, Params{{key, "1"}});
        FAIL() << "expected PreconditionError for " << metric << "." << key;
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      }
    }
  }
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "embedding_quality",
                                 "params": {"spectral_mode": "filtered"}}]}}]})"),
               PreconditionError);
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "expander_certificate",
                                 "params": {"filter_degree": 8}}]}}]})"),
               PreconditionError);
}

TEST(MetricsRegistry, CampaignJsonRejectsPruneSolverKeys) {
  // prune.spectral_mode / prune.filter_degree are unknown keys: the
  // parser fails naming the key instead of ignoring it.
  for (const char* doc : {R"({"scenarios": [{"prune": {"spectral_mode": "filtered"}}]})",
                          R"({"scenarios": [{"prune": {"filter_degree": 10}}]})"}) {
    try {
      (void)campaign_from_json(doc);
      FAIL() << "expected PreconditionError for " << doc;
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find("spectral_mode") != std::string::npos ||
                  what.find("filter_degree") != std::string::npos)
          << what;
    }
  }
}

TEST(MetricsRegistry, RunnerValidatesRequestsEagerly) {
  Scenario s;
  s.topology = {"mesh", Params{{"side", "8"}}};
  s.prune.alpha = 0.25;
  s.metrics.requests = {{"no_such_metric", Params{}}};
  EXPECT_THROW((void)ScenarioRunner(s), PreconditionError);
  Scenario bad_param = s;
  bad_param.metrics.requests = {{"mesh_span", Params{{"bogus", "1"}}}};
  EXPECT_THROW((void)ScenarioRunner(bad_param), PreconditionError);
}

TEST(MetricsRegistry, DuplicateRequestsAreRejectedEverywhere) {
  // Records are keyed by name in report payloads; a duplicate request
  // would silently emit duplicate JSON keys, so every seam rejects it.
  Scenario s;
  s.topology = {"mesh", Params{{"side", "8"}}};
  s.prune.alpha = 0.25;
  s.metrics.requests = {{"fragmentation", Params{}}, {"fragmentation", Params{}}};
  EXPECT_THROW((void)ScenarioRunner(s), PreconditionError);
  Campaign campaign;
  campaign.entries.push_back({s, std::nullopt});
  EXPECT_THROW((void)CampaignRunner(std::move(campaign)), PreconditionError);
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "fragmentation"},
                                {"name": "fragmentation"}]}}]})"),
               PreconditionError);
}

TEST(MetricsRegistry, CatalogPresetsCarryMetricRequests) {
  const Scenario e6 = named_scenario("mesh-span");
  ASSERT_EQ(e6.metrics.requests.size(), 2u);
  EXPECT_EQ(e6.metrics.requests[0].name, "mesh_span");
  const Scenario e8 = named_scenario("span-conjecture");
  ASSERT_EQ(e8.metrics.requests.size(), 2u);
  EXPECT_EQ(e8.metrics.requests[0].name, "span_estimate");
}

// ---------------------------------------------------------------------------
// Records through the runner
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario metric_scenario() {
  Scenario s;
  s.name = "metric-run";
  s.topology = {"mesh", Params{{"side", "10"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 0.2;
  s.seed = 4242;
  s.metrics.requests = {{"mesh_span", Params{{"samples", "6"}}},
                        {"embedding_quality", Params{}},
                        {"fragmentation", Params{}}};
  return s;
}

TEST(MetricsRegistry, RunnerProducesOneRecordPerRequestInOrder) {
  ScenarioRunner runner(metric_scenario());
  const ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  ASSERT_EQ(run.metrics.size(), 3u);
  EXPECT_EQ(run.metrics[0].name, "mesh_span");
  EXPECT_EQ(run.metrics[1].name, "embedding_quality");
  EXPECT_EQ(run.metrics[2].name, "fragmentation");
  for (const MetricRecord& m : run.metrics) {
    EXPECT_FALSE(m.brief.empty());
    const JsonValue payload = JsonValue::parse(m.payload);
    EXPECT_TRUE(payload.is_object()) << m.name;
  }
  // The registered fragmentation metric agrees with the legacy bool path.
  const JsonValue frag = JsonValue::parse(run.metrics[2].payload);
  EXPECT_DOUBLE_EQ(frag.at("gamma").as_number(), run.fragmentation.gamma);
  EXPECT_EQ(static_cast<std::size_t>(frag.at("components").as_int()),
            run.fragmentation.num_components);
}

TEST(MetricsRegistry, RecordsArePureFunctionsOfScenarioAndRep) {
  const FaultSpec fault = metric_scenario().fault;
  ScenarioRunner a(metric_scenario());
  ScenarioRunner b(metric_scenario());
  const ScenarioRun ra = a.run_isolated(fault, 1);
  const ScenarioRun rb = b.run_isolated(fault, 1);
  ASSERT_EQ(ra.metrics.size(), rb.metrics.size());
  for (std::size_t i = 0; i < ra.metrics.size(); ++i) {
    EXPECT_EQ(ra.metrics[i].payload, rb.metrics[i].payload) << ra.metrics[i].name;
  }
  // Different repetitions draw different metric seeds (sampled metrics
  // must not alias across reps).
  const ScenarioRun r0 = a.run_isolated(fault, 0);
  EXPECT_NE(r0.metrics[0].payload, ra.metrics[0].payload)
      << "rep 0 and rep 1 sampled identical compact sets — seed derivation collapsed";
}

TEST(MetricsRegistry, MeshSpanRejectsNonMeshTopologies) {
  Scenario s = metric_scenario();
  s.topology = {"hypercube", Params{{"dims", "4"}}};
  s.prune.alpha = 0.5;
  s.metrics.requests = {{"mesh_span", Params{}}};
  ScenarioRunner runner(s);
  EXPECT_THROW((void)runner.run_isolated(s.fault, 0), PreconditionError);
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and cache states (slow suite)
// ---------------------------------------------------------------------------

[[nodiscard]] Campaign metric_campaign() {
  Campaign campaign;
  campaign.name = "metrics-determinism";
  {
    Scenario s = metric_scenario();
    s.repetitions = 3;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "certificate";
    s.topology = {"random_regular", Params{{"n", "128"}, {"degree", "4"}}};
    s.fault = {"random", Params{{"p", "0.05"}}};
    s.prune.kind = ExpansionKind::Node;
    s.seed = 77;
    s.repetitions = 2;
    s.metrics.requests = {{"expander_certificate", Params{}},
                          {"span_estimate", Params{{"samples", "2"}}}};
    campaign.entries.push_back({s, std::nullopt});
  }
  return campaign;
}

TEST(MetricsDeterminismSlow, CampaignPayloadByteIdenticalAcrossThreadCounts) {
  CampaignRunner runner(metric_campaign());
  const std::string payload = runner.run(1).to_json(/*include_timing=*/false);
  EXPECT_NE(payload.find("\"metrics\""), std::string::npos);
  EXPECT_NE(payload.find("\"mesh_span\""), std::string::npos);
  EXPECT_NE(payload.find("\"expander_certificate\""), std::string::npos);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(payload, runner.run(threads).to_json(false));
  }
}

TEST(MetricsDeterminismSlow, CampaignPayloadByteIdenticalWarmAndColdCache) {
  EngineCache::instance().clear();
  CampaignRunner runner(metric_campaign());
  const std::string cold = runner.run(2).to_json(false);
  const EngineCacheStats before = EngineCache::instance().stats();
  const std::string warm = runner.run(2).to_json(false);
  const EngineCacheStats delta = EngineCache::instance().stats() - before;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(delta.graph_builds, 0u) << "warm run must reuse every cached graph";
}

// ---------------------------------------------------------------------------
// Property tests: mesh_span on tiny enumerable meshes (slow suite)
// ---------------------------------------------------------------------------

/// Compute a metric directly against a fabricated run (survivors = mask).
[[nodiscard]] MetricRecord compute_on_mask(const std::string& metric, const Params& params,
                                           const Scenario& scenario, const Graph& g,
                                           VertexSet mask, std::uint64_t seed) {
  ScenarioRun run;
  run.alive = mask;
  run.prune.survivors = std::move(mask);
  run.alpha = 0.5;
  run.epsilon = 0.5;
  const MetricContext ctx{g, scenario, run, seed};
  return MetricsRegistry::instance().compute(metric, ctx, params);
}

TEST(MeshSpanPropertySlow, ExactValuesOnTinyEnumerableMeshes) {
  struct Case {
    vid side, dims;
  };
  for (const Case c : {Case{8, 1}, Case{3, 2}, Case{4, 2}, Case{2, 3}}) {
    SCOPED_TRACE(std::to_string(c.side) + "^" + std::to_string(c.dims));
    Scenario s;
    s.topology = {"mesh", Params{}
                              .set("side", static_cast<std::int64_t>(c.side))
                              .set("dims", static_cast<std::int64_t>(c.dims))};
    const Mesh mesh = Mesh::cube(c.side, c.dims);
    const Graph& g = mesh.graph();
    const MetricRecord rec = compute_on_mask("mesh_span", Params{{"samples", "4"}}, s, g,
                                             VertexSet::full(g.num_vertices()), 3);
    const JsonValue payload = JsonValue::parse(rec.payload);
    // The metric's exhaustive branch must agree with the span oracle
    // (payload doubles round-trip through 12-digit JSON).
    const SpanResult oracle = exact_span(g);
    EXPECT_NEAR(payload.at("exact_span").as_number(), oracle.span, 1e-9);
    EXPECT_EQ(static_cast<std::uint64_t>(payload.at("exact_sets").as_int()),
              oracle.sets_examined);
    EXPECT_TRUE(payload.at("exact_bound_ok").as_bool());
    if (c.dims == 1) EXPECT_NEAR(payload.at("exact_span").as_number(), 1.0, 1e-9);
    // Theorem 3.6's own construction stays within its bound and Lemma 3.7
    // holds on every sampled set.
    EXPECT_TRUE(payload.at("tree_bound_ok").as_bool());
    EXPECT_EQ(payload.at("lemma37_ok").as_int(), payload.at("sampled_sets").as_int());
  }
}

TEST(MeshSpanPropertySlow, SampledBoundsHoldOnBiggerMeshes) {
  for (const vid side : {10U, 14U}) {
    SCOPED_TRACE(side);
    Scenario s;
    s.topology = {"mesh", Params{}.set("side", static_cast<std::int64_t>(side))};
    const Mesh mesh = Mesh::cube(side, 2);
    const Graph& g = mesh.graph();
    const MetricRecord rec = compute_on_mask("mesh_span", Params{{"samples", "12"}}, s, g,
                                             VertexSet::full(g.num_vertices()), side);
    const JsonValue payload = JsonValue::parse(rec.payload);
    EXPECT_GT(payload.at("sampled_sets").as_int(), 0);
    EXPECT_EQ(payload.at("lemma37_ok").as_int(), payload.at("sampled_sets").as_int());
    EXPECT_LE(payload.at("max_tree_ratio").as_number(), 2.0 + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Property tests: embedding_quality on the shared fixtures (slow suite)
// ---------------------------------------------------------------------------

class EmbeddingPropertySlow : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(EmbeddingPropertySlow, IdentityEmbeddingAndPigeonholeUnderGrowingFaults) {
  const Graph g = GetParam().make();
  const vid n = g.num_vertices();
  Scenario s;  // topology spec unused by embedding_quality

  // No faults: the embedding is the identity — load 1, every guest edge
  // routed on itself.
  {
    const MetricRecord rec = compute_on_mask("embedding_quality", Params{}, s, g,
                                             VertexSet::full(n), 1);
    const JsonValue payload = JsonValue::parse(rec.payload);
    ASSERT_TRUE(payload.at("defined").as_bool());
    EXPECT_EQ(payload.at("load").as_int(), 1);
    EXPECT_LE(payload.at("dilation").as_int(), 1);
    EXPECT_LE(payload.at("congestion").as_int(), 1);
    EXPECT_EQ(static_cast<vid>(payload.at("host").as_int()),
              largest_component(g, VertexSet::full(n)).count());
  }

  // Growing fault sets: the 'random' model's masks NEST under one seed
  // (the registry's monotone coupling), so the host shrinks monotonically
  // and the pigeonhole bound load >= ceil(n / host) tightens.
  vid prev_host = n + 1;
  for (const double p : {0.1, 0.25, 0.4}) {
    SCOPED_TRACE(p);
    const VertexSet mask = FaultModelRegistry::instance().build(
        "random", g, Params{}.set("p", p), 555);
    if (mask.empty()) break;
    const MetricRecord rec = compute_on_mask("embedding_quality", Params{}, s, g, mask, 2);
    const JsonValue payload = JsonValue::parse(rec.payload);
    ASSERT_TRUE(payload.at("defined").as_bool());
    const auto host = static_cast<vid>(payload.at("host").as_int());
    EXPECT_LE(host, prev_host) << "largest component cannot grow as the mask shrinks";
    prev_host = host;
    const auto load = static_cast<std::uint64_t>(payload.at("load").as_int());
    EXPECT_GE(load * host, static_cast<std::uint64_t>(n)) << "pigeonhole violated";
    EXPECT_LE(payload.at("average_dilation").as_number(),
              static_cast<double>(payload.at("dilation").as_int()) + 1e-12);
    // Spectral profile: k = 2 nontrivial eigenvalues of a connected host
    // are positive and ascending.
    if (payload.find("spectral") != nullptr) {
      const auto& lams = payload.at("spectral").items();
      ASSERT_EQ(lams.size(), 2u);
      EXPECT_GT(lams[0].as_number(), 0.0);
      EXPECT_LE(lams[0].as_number(), lams[1].as_number() + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EmbeddingPropertySlow,
    ::testing::Values(testing::GraphCase{testing::Family::Mesh2D, 12, 1},
                      testing::GraphCase{testing::Family::Mesh3D, 5, 1},
                      testing::GraphCase{testing::Family::Hypercube, 7, 1},
                      testing::GraphCase{testing::Family::DeBruijn, 7, 1},
                      testing::GraphCase{testing::Family::RandomRegular4, 128, 9},
                      testing::GraphCase{testing::Family::Butterfly, 4, 1}),
    testing::GraphCaseName{});

}  // namespace
}  // namespace fne
