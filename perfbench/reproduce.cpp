// Workload `reproduce`: the paper's own E1–E12 campaigns, pinned by
// reproduce/<experiment>/golden.json.
//
// Untraced: repeated cycles of one cold pass (every experiment into an
// empty result store) followed by warm replay passes from that store.
// Every experiment run starts with a cleared EngineCache and a freshly
// opened ResultStore, as one CLI process per experiment would.
//   cold_s  = median cold pass,  warm_ms = median warm pass.
// The goldens pin the inputs, so the seed does not change this workload:
// the experiments run in order, as reproduce/validate.sh runs them.
//
// Traced: one serial cold pass and one serial warm pass driven through
// CampaignPlan with a span per public call, then untraced
// CampaignRunner::run(1) and run(2) cold passes for the tracing overhead
// and the parallel efficiency, and the alpha probe.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "bench.hpp"
#include "campaign_trace.hpp"

namespace fnebench {

namespace {

namespace fs = std::filesystem;

constexpr const char* kExperiments[] = {
    "e1_adversarial_prune", "e2_chain_expander",  "e3_uniform_shatter",  "e4_random_chain",
    "e5_random_prune2",     "e6_mesh_span",       "e7_percolation",      "e8_span_conjecture",
    "e9_diameter_stretch",  "e10_subgraph_count", "e11_multibutterfly", "e12_emulation",
};
// Set-ups per timed block (one set-up reads and parses 12 files in ~0.3 ms).
constexpr int kSetupsPerBlock = 200;
// Cold passes per run, at least: a cold pass fills the store the warm
// passes after it replay.
constexpr int kMinCycles = 2;

struct Experiment {
  int number = 0;  ///< the N of eN
  std::string name;
  fne::Campaign campaign;
  std::string golden;  ///< to_json(false) + "\n", as reproduce/ stores it
};

/// Every experiment with its golden; the campaigns are left to
/// load_campaigns.
[[nodiscard]] std::vector<Experiment> load_goldens() {
  std::vector<Experiment> out;
  for (int i = 0; i < static_cast<int>(std::size(kExperiments)); ++i) {
    Experiment e;
    e.number = i + 1;
    e.name = kExperiments[i];
    e.golden = read_file("reproduce/" + e.name + "/golden.json");
    out.push_back(std::move(e));
  }
  return out;
}

/// The set-up: parse every experiment's campaign file.
void load_campaigns(std::vector<Experiment>& experiments) {
  for (Experiment& e : experiments) {
    e.campaign = fne::campaign_from_file("campaigns/" + e.name + ".json");
  }
}

/// One untraced pass over every experiment through the store at `dir`;
/// returns its wall time in ms.
double pass(const std::vector<Experiment>& experiments, const std::string& dir, bool warm,
            int threads, Result& out) {
  double total = 0.0;
  for (const Experiment& e : experiments) {
    fne::EngineCache::instance().clear();
    double wall = 0.0;
    fne::CampaignReport report;
    const std::string payload = run_campaign(e.campaign, threads, dir, &wall, &report);
    total += wall;
    out.check(payload + "\n" == e.golden,
              e.name + (warm ? " warm" : " cold") + " payload differs from its golden");
    if (warm) out.check(report.store.misses == 0, e.name + " warm pass recomputed cells");
  }
  return total;
}

}  // namespace

void run_reproduce(const Options& opt, Tracer& tracer, Result& out) {
  // The goldens are what the payloads are checked against, not part of the
  // program's set-up, so they are read once, untimed.
  std::vector<Experiment> experiments = load_goldens();
  SetupTimer setup(kSetupsPerBlock, opt.seconds, [&] { load_campaigns(experiments); });
  int store_seq = 0;
  const auto fresh_store = [&] {
    const std::string dir = opt.work + "/store-" + std::to_string(store_seq++);
    fs::remove_all(dir);
    return dir;
  };

  if (!opt.trace) {
    // The run is split into kMinCycles or more equal windows, each a cold
    // pass into a fresh store followed by warm passes from that store until
    // the window ends, so that about half of the run is warm passes spread
    // over every window.
    const Clock::time_point start = Clock::now();
    const double budget_ms = opt.seconds * 1000.0;
    std::vector<double> cold, warm;
    int cycles = kMinCycles;
    for (int c = 0; c < cycles; ++c) {
      const std::string dir = fresh_store();
      cold.push_back(pass(experiments, dir, false, kExecThreads, out));
      setup.maybe_sample();
      if (c == 0) {
        cycles = std::max(kMinCycles, static_cast<int>(budget_ms / (2.0 * cold.front())));
      }
      const double window_end_ms = budget_ms * (c + 1) / cycles;
      do {
        warm.push_back(pass(experiments, dir, true, kExecThreads, out));
        setup.maybe_sample();
      } while (ms_since(start) < window_end_ms);
      fs::remove_all(dir);
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

  // Traced serial passes: cold into an empty store, then warm from it.
  const std::string dir = fresh_store();
  const fne::EngineCacheStats cache_before = fne::EngineCache::instance().stats();
  std::vector<fne::CampaignReport> cold_reports(experiments.size());
  std::size_t first_span = tracer.spans().size();
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const Experiment& e = experiments[i];
    const Span span(tracer, "experiment", static_cast<std::uint64_t>(e.number));
    fne::EngineCache::instance().clear();
    const std::string payload = traced_campaign(tracer, e.campaign, dir, &cold_reports[i]);
    out.check(payload + "\n" == e.golden, e.name + " traced cold payload differs from its golden");
  }
  const double traced_cold_ms = ms_since(t0);
  const fne::EngineCacheStats cache_delta = fne::EngineCache::instance().stats() - cache_before;
  const std::vector<SpanRecord> cold_spans =
      spans_between(tracer.spans(), first_span, tracer.spans().size());
  std::uint64_t misses = 0, committed = 0;
  for (const fne::CampaignReport& r : cold_reports) {
    misses += r.store.misses;
    committed += r.store.bytes_committed;
  }

  first_span = tracer.spans().size();
  t0 = Clock::now();
  std::uint64_t hits = 0, loaded = 0;
  for (const Experiment& e : experiments) {
    const Span span(tracer, "experiment", static_cast<std::uint64_t>(100 + e.number));
    fne::EngineCache::instance().clear();
    fne::CampaignReport report;
    const std::string payload = traced_campaign(tracer, e.campaign, dir, &report);
    out.check(payload + "\n" == e.golden, e.name + " traced warm payload differs from its golden");
    out.check(report.store.misses == 0, e.name + " traced warm pass recomputed cells");
    hits += report.store.hits;
    loaded += report.store.bytes_loaded;
  }
  const double traced_warm_ms = ms_since(t0);
  const std::vector<SpanRecord> warm_spans =
      spans_between(tracer.spans(), first_span, tracer.spans().size());
  std::uint64_t records = 0;
  {
    const fne::ResultStore store(dir);
    records = store.stats().records;
  }
  fs::remove_all(dir);

  // The warm pass must do no prune or span work at all.
  std::size_t warm_jobs = 0;
  for (const SpanRecord& s : warm_spans) {
    if (s.name == "campaign.cell" || s.name.rfind("metric.", 0) == 0) ++warm_jobs;
  }
  out.check(warm_jobs == 0, "traced warm pass computed jobs");

  // Untraced baselines: serial (tracing overhead) and kExecThreads wide
  // (parallel efficiency), each a cold pass into an empty store.
  const std::string dir1 = fresh_store();
  const double run1_ms = pass(experiments, dir1, false, 1, out);
  fs::remove_all(dir1);
  const std::string dir2 = fresh_store();
  const double run2_ms = pass(experiments, dir2, false, kExecThreads, out);
  fs::remove_all(dir2);

  double alpha_ms = 0.0;
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    alpha_ms += alpha_probe(tracer, experiments[i].campaign, cold_reports[i], out);
  }

  put_campaign_job_metrics(cold_spans, run2_ms, out);
  put_phase_metrics(warm_spans, out);
  put_prune_metrics(cold_reports, out);
  put_cache_metrics(cache_delta, out);
  for (const SpanRecord& s : cold_spans) {
    if (s.name == "experiment") {
      out.set("reproduce.e" + std::to_string(s.trace) + "_ms", s.duration_ms());
    }
  }
  out.set("expansion.alpha_ms", alpha_ms);
  out.set("store.hits", static_cast<double>(hits));
  out.set("store.bytes_loaded", static_cast<double>(loaded));
  out.set("store.records", static_cast<double>(records));
  out.set("store.misses", static_cast<double>(misses));
  out.set("store.bytes_committed", static_cast<double>(committed));
  out.set("trace.overhead_frac", traced_cold_ms / run1_ms - 1.0);
  out.set("trace.coverage", (layer_ms(cold_spans) + layer_ms(warm_spans)) /
                                (traced_cold_ms + traced_warm_ms));

  // Layer shape: span_estimate is the largest share of the cold pass.
  const double span_ms = out.metrics["metric.span_estimate_ms"];
  out.info["span_estimate_share_of_cold"] = span_ms / traced_cold_ms;
  out.info["traced_cold_ms"] = traced_cold_ms;
  out.info["traced_warm_ms"] = traced_warm_ms;
  out.info["untraced_run1_ms"] = run1_ms;
  out.info["untraced_run2_ms"] = run2_ms;
}

}  // namespace fnebench
