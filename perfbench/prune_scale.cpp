// Workload `prune_scale`: a prune-heavy campaign generated from the seed.
//
// Set-up generates the campaign JSON and a seeded graph, written as a
// binary CSR file for the `file` topology; the library receives only
// those generated inputs.  There are no span metrics and no store.
//
// Untraced: repeated cycles of one cold pass (EngineCache cleared, as a
// fresh process) and one warm pass (graphs and engines already cached, as
// a resident process), both CampaignRunner::run on kExecThreads threads.
//   cold_s  = median cold pass,  warm_ms = median warm pass.
// Every pass must produce the same deterministic payload.
//
// Traced: one serial pass through CampaignPlan with a span per public
// call, untraced run(1) and run(kExecThreads) passes that must produce
// the same payload, and single-call probes of the ingest, spectral and
// cut-finder layers on the workload's own graphs.  The generated campaign
// (campaign.json) and the reason each entry exists (why.json) are written
// next to the span file.
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "bench.hpp"
#include "campaign_trace.hpp"
#include "core/csr_file.hpp"
#include "core/traversal.hpp"
#include "expansion/cut_finder.hpp"
#include "spectral/fiedler.hpp"
#include "util/json.hpp"

namespace fnebench {

namespace {

namespace fs = std::filesystem;

// Set-ups per timed block (one set-up generates and writes the graph and
// parses the campaign in ~2 ms).
constexpr int kSetupsPerBlock = 20;
constexpr fne::vid kFileGraphVertices = 3000;

struct Generated {
  std::string campaign_json;
  std::vector<std::pair<std::string, std::string>> why;  ///< entry name -> reason
  std::string csr_path;
};

/// A connected, skewed-degree graph standing in for an ingested real
/// dataset: a ring (connectivity) plus 2n chords whose endpoints favour
/// low ids (hubs).
[[nodiscard]] fne::Graph seeded_graph(std::mt19937_64& rng) {
  const fne::vid n = kFileGraphVertices;
  std::vector<fne::Edge> edges;
  for (fne::vid v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  std::uniform_real_distribution<double> u(0.0, 1.0);
  while (edges.size() < 3 * static_cast<std::size_t>(n)) {
    const auto a = static_cast<fne::vid>(u(rng) * u(rng) * n);
    const auto b = static_cast<fne::vid>(u(rng) * n);
    if (a != b) edges.push_back({a, b});
  }
  return fne::Graph::from_edges(n, std::move(edges));
}

/// The campaign, one entry per reason to exist.
[[nodiscard]] Generated generate(const Options& opt, const std::string& csr_path) {
  std::mt19937_64 rng(opt.seed ^ 0x70a2'5ca1'eULL);
  const auto seed = [&] { return std::to_string(rng() % 1000000007ULL); };

  Generated g;
  g.csr_path = csr_path;
  fne::CsrFile::write(csr_path, seeded_graph(rng));

  std::vector<std::string> entries;
  const auto add = [&](const std::string& name, const std::string& body, const std::string& why) {
    entries.push_back("{\"name\": \"" + name + "\", " + body + "}");
    g.why.emplace_back(name, why);
  };
  // Fault rates are fixed: the seed moves fault placement, graph builds
  // and cut-finder seeds only, and many moderate repetitions keep the
  // pass cost from hinging on any one draw.
  const auto mesh = [](int side) {
    return "\"topology\": {\"name\": \"mesh\", \"params\": {\"side\": " +
           std::to_string(side) + ", \"dims\": 2}}, ";
  };
  const auto random_faults = [](const char* p) {
    return std::string("\"fault\": {\"name\": \"random\", \"params\": {\"p\": ") + p + "}}, ";
  };
  add("mesh40-prune2",
      mesh(40) + random_faults("0.15") +
          "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125}, \"repetitions\": 4, \"seed\": " + seed(),
      "faulty meshes under Prune2: spectral solves and cut search with culls on a 1600-vertex grid");
  add("mesh48-prune2",
      mesh(48) + random_faults("0.1") +
          "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125}, \"repetitions\": 2, \"seed\": " + seed(),
      "the largest mesh: eigensolves on a 2304-vertex component");
  add("mesh48-prune2-fast",
      mesh(48) + random_faults("0.05") +
          "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125, \"fast\": true}, "
          "\"repetitions\": 6, \"seed\": " + seed(),
      "shares its topology with mesh48-prune2 (one graph, one engine pool) and runs the "
      "fast-mode engine (warm starts, stale sweeps)");
  add("rr-node-measured",
      "\"topology\": {\"name\": \"random_regular\", \"params\": {\"n\": 1024, \"degree\": 4}}, " +
          random_faults("0.1") +
          "\"prune\": {\"kind\": \"node\", \"alpha\": 0}, \"repetitions\": 4, \"seed\": " + seed(),
      "node expansion (Prune) on a seeded expander, alpha measured by expansion_bracket");
  add("hypercube-hubs",
      "\"topology\": {\"name\": \"hypercube\", \"params\": {\"dims\": 12}}, "
      "\"fault\": {\"name\": \"high_degree\", \"params\": {\"frac\": 0.1}}, "
      "\"prune\": {\"kind\": \"node\", \"alpha\": 0}, \"repetitions\": 4, \"seed\": " + seed(),
      "adversarial hub attack on a hypercube, alpha measured");
  add("mesh32-chain",
      mesh(32) + random_faults("0.04") +
          "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125}, \"seed\": " + seed() + ", "
          "\"sweep\": {\"param\": \"p\", \"values\": [0.04, 0.09, 0.14], \"mode\": \"monotone\"}",
      "a short monotone sweep chain: one serial job whose points start from the previous "
      "survivors");
  add("file-graph",
      "\"topology\": {\"name\": \"file\", \"params\": {\"path\": \"" + csr_path + "\"}}, " +
          random_faults("0.1") +
          "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.1, \"fast\": true}, \"repetitions\": 4, "
          "\"seed\": " + seed(),
      "an ingested graph: the file topology over a seeded skewed-degree CSR written at set-up");

  g.campaign_json = "{\"name\": \"prune_scale\", \"scenarios\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    g.campaign_json += (i == 0 ? "" : ", ") + entries[i];
  }
  g.campaign_json += "]}";
  return g;
}

/// Median single fiedler_vector and find_violating_set calls on the
/// pre-prune survivor masks of the first run of every entry.
void layer_probes(Tracer& tracer, const fne::Campaign& campaign,
                  const fne::CampaignReport& report, Result& out) {
  std::vector<double> fiedler_ms, cut_ms;
  for (std::size_t e = 0; e < report.scenarios.size(); ++e) {
    const fne::Scenario& s = campaign.entries[e].scenario;
    const fne::ScenarioRun& run = report.scenarios[e].runs.front();
    const auto graph = fne::EngineCache::instance().graph(s.topology.name, s.topology.params,
                                                          fne::scenario_build_seed(s));
    const fne::VertexSet component = fne::largest_component(*graph, run.alive);
    if (component.count() >= 2) {
      const Clock::time_point t0 = Clock::now();
      const Span span(tracer, "spectral.fiedler");
      const fne::FiedlerResult f = fne::fiedler_vector(*graph, component, run.finder_seed);
      fiedler_ms.push_back(ms_since(t0));
      out.check(f.lambda2 >= 0.0, s.name + ": negative algebraic connectivity");
    }
    fne::CutFinderOptions options = s.prune.finder;
    options.seed = run.finder_seed;
    const Clock::time_point t0 = Clock::now();
    const Span span(tracer, "expansion.find_cut");
    const auto witness =
        fne::find_violating_set(*graph, run.alive, s.prune.kind, run.threshold, options);
    cut_ms.push_back(ms_since(t0));
    if (witness.has_value()) {
      out.check(witness->expansion <= run.threshold,
                s.name + ": cut finder returned a non-violating set");
    }
  }
  out.set("spectral.fiedler_ms", median(fiedler_ms));
  out.set("expansion.find_cut_ms", median(cut_ms));
}

}  // namespace

void run_prune_scale(const Options& opt, Tracer& tracer, Result& out) {
  fs::create_directories(opt.work);
  Generated gen;
  fne::Campaign campaign;
  SetupTimer setup(kSetupsPerBlock, opt.seconds, [&] {
    gen = generate(opt, opt.work + "/graph.csr");
    campaign = fne::campaign_from_json(gen.campaign_json);
  });

  if (!opt.trace) {
    const Clock::time_point start = Clock::now();
    std::vector<double> cold, warm;
    std::string reference;
    const auto pass = [&](std::vector<double>& into) {
      double wall = 0.0;
      const std::string payload = run_campaign(campaign, kExecThreads, "", &wall);
      if (reference.empty()) reference = payload;
      out.check(payload == reference, "prune_scale payload changed between passes");
      into.push_back(wall);
      setup.maybe_sample();
    };
    // Cold+warm cycles until the run's time is used up; the last cycle may
    // run past it, so no part of the run goes unmeasured.
    while (cold.size() < 2 || ms_since(start) < opt.seconds * 1000.0) {
      fne::EngineCache::instance().clear();
      pass(cold);
      pass(warm);
    }
    print_samples("cold_ms", cold);
    print_samples("warm_ms", warm);
    out.set("setup_s", setup.median_s());
    out.set("cold_s", median(cold) / 1000.0);
    out.set("warm_ms", median(warm));
    out.info["cold_passes"] = static_cast<double>(cold.size());
    out.info["warm_passes"] = static_cast<double>(warm.size());
    return;
  }

  // The generated campaign and why each entry exists, kept with the spans.
  {
    fne::JsonObject why;
    for (const auto& [name, reason] : gen.why) why.put(name, reason);
    std::ofstream(opt.work + "/campaign.json") << gen.campaign_json << "\n";
    std::ofstream(opt.work + "/why.json") << why.dump() << "\n";
  }

  // Ingest probe: the CSR file the `file` entry reads.
  {
    const Clock::time_point t0 = Clock::now();
    fne::CsrFile file;
    {
      const Span span(tracer, "ingest.open");
      file = fne::CsrFile::open(gen.csr_path);
    }
    const double open_ms = ms_since(t0);
    const Clock::time_point t1 = Clock::now();
    fne::Graph g;
    {
      const Span span(tracer, "ingest.to_graph");
      g = file.to_graph();
    }
    out.set("ingest.open_ms", open_ms);
    out.set("ingest.to_graph_ms", ms_since(t1));
    out.set("ingest.bytes", static_cast<double>(fs::file_size(gen.csr_path)));
    out.check(g.num_vertices() == kFileGraphVertices, "ingested graph has the wrong size");
  }

  fne::EngineCache::instance().clear();
  const fne::EngineCacheStats cache_before = fne::EngineCache::instance().stats();
  fne::CampaignReport report;
  const std::size_t first_span = tracer.spans().size();
  const Clock::time_point t0 = Clock::now();
  std::string serial;
  {
    const Span span(tracer, "campaign", 1);
    serial = traced_campaign(tracer, campaign, "", &report);
  }
  const double traced_ms = ms_since(t0);
  const fne::EngineCacheStats cache_delta = fne::EngineCache::instance().stats() - cache_before;
  const std::vector<SpanRecord> spans =
      spans_between(tracer.spans(), first_span, tracer.spans().size());

  fne::EngineCache::instance().clear();
  double run1_ms = 0.0, run2_ms = 0.0;
  out.check(run_campaign(campaign, 1, "", &run1_ms) == serial,
            "prune_scale run(1) payload differs from the traced serial pass");
  fne::EngineCache::instance().clear();
  out.check(run_campaign(campaign, kExecThreads, "", &run2_ms) == serial,
            "prune_scale run(2) payload differs from the traced serial pass");

  const double alpha_ms = alpha_probe(tracer, campaign, report, out);
  layer_probes(tracer, campaign, report, out);

  put_campaign_job_metrics(spans, run2_ms, out);
  put_phase_metrics(spans, out);
  put_prune_metrics({report}, out);
  put_cache_metrics(cache_delta, out);
  const double prune_ms = out.metrics["prune.ms"];
  out.set("expansion.alpha_ms", alpha_ms);
  out.set("spectral.share_est",
          prune_ms > 0.0 ? out.metrics["spectral.fiedler_ms"] * out.metrics["prune.eigensolves"] /
                               prune_ms
                         : 0.0);
  out.set("trace.overhead_frac", traced_ms / run1_ms - 1.0);
  out.set("trace.coverage", layer_ms(spans) / traced_ms);

  // Layer shape: prune is the largest share of the pass.
  out.info["prune_share_of_pass"] = prune_ms / traced_ms;
  out.info["traced_ms"] = traced_ms;
  out.info["untraced_run1_ms"] = run1_ms;
  out.info["untraced_run2_ms"] = run2_ms;
}

}  // namespace fnebench
