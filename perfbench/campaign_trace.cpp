#include "campaign_trace.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "api/executor.hpp"
#include "api/metrics.hpp"
#include "api/runner.hpp"
#include "expansion/bracket.hpp"
#include "util/rng.hpp"
#include "util/require.hpp"

namespace fnebench {

std::string traced_campaign(Tracer& tracer, const fne::Campaign& campaign,
                            const std::string& store_dir, fne::CampaignReport* report) {
  const fne::EngineCacheStats cache_before = fne::EngineCache::instance().stats();
  const Clock::time_point t0 = Clock::now();
  for (const fne::CampaignEntry& e : campaign.entries) {
    const Span span(tracer, "topology.build");
    (void)fne::EngineCache::instance().graph(e.scenario.topology.name, e.scenario.topology.params,
                                             fne::scenario_build_seed(e.scenario));
  }
  std::unique_ptr<fne::CampaignPlan> plan;
  {
    const Span span(tracer, "campaign.plan");
    plan = std::make_unique<fne::CampaignPlan>(campaign, 1);
  }
  std::unique_ptr<fne::ResultStore> store;
  if (!store_dir.empty()) {
    {
      const Span span(tracer, "store.open");
      store = std::make_unique<fne::ResultStore>(store_dir);
    }
    const Span span(tracer, "campaign.attach_store");
    (void)plan->attach_store(*store);
  }
  // The local runner's order: every pending cell, then every pending
  // split metric job.
  for (std::size_t i = 0; i < plan->num_jobs(); ++i) {
    if (plan->done(i) || plan->job(i).kind == fne::CampaignJob::Kind::kMetric) continue;
    std::vector<fne::ScenarioRun> runs;
    {
      const Span span(tracer, "campaign.cell");
      runs = plan->compute_cell(i);
    }
    const Span span(tracer, "campaign.accept");
    FNE_REQUIRE(plan->accept_cell(i, std::move(runs)), "traced campaign: cell rejected");
  }
  for (std::size_t i = 0; i < plan->num_jobs(); ++i) {
    if (plan->done(i)) continue;
    const fne::CampaignJob& job = plan->job(i);
    const std::string& metric =
        campaign.entries[job.entry].scenario.metrics.requests[job.request].name;
    fne::MetricRecord record;
    {
      const Span span(tracer, "metric." + metric);
      record = plan->compute_metric(i, plan->parent_run(i));
    }
    const Span span(tracer, "campaign.accept");
    FNE_REQUIRE(plan->accept_metric(i, std::move(record)), "traced campaign: metric rejected");
  }
  {
    const Span span(tracer, "campaign.finish");
    *report = plan->finish(1, ms_since(t0), fne::EngineCache::instance().stats() - cache_before);
  }
  const Span span(tracer, "campaign.encode");
  return report->to_json(false);
}

std::string run_campaign(const fne::Campaign& campaign, int threads, const std::string& store_dir,
                         double* wall_ms, fne::CampaignReport* report) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<fne::ResultStore> store;
  if (!store_dir.empty()) store = std::make_unique<fne::ResultStore>(store_dir);
  fne::CampaignRunner runner(campaign);
  fne::CampaignReport r = runner.run(threads, store.get());
  std::string payload = r.to_json(false);
  *wall_ms = ms_since(t0);
  if (report != nullptr) *report = std::move(r);
  return payload;
}

void put_prune_metrics(const std::vector<fne::CampaignReport>& reports, Result& out) {
  fne::EngineStats total;
  double prune_ms = 0.0;
  for (const fne::CampaignReport& report : reports) {
    total += report.total_engine_stats();
    for (const fne::ScenarioReport& s : report.scenarios) prune_ms += s.millis;
  }
  out.set("prune.ms", prune_ms);
  out.set("prune.runs", static_cast<double>(total.runs));
  out.set("prune.iterations", static_cast<double>(total.iterations));
  out.set("prune.eigensolves", static_cast<double>(total.eigensolves));
  out.set("prune.stale_sweeps", static_cast<double>(total.stale_sweeps));
  out.set("prune.stale_hit_ratio",
          total.stale_sweeps == 0 ? 0.0
                                  : static_cast<double>(total.stale_sweep_hits) /
                                        static_cast<double>(total.stale_sweeps));
  out.set("prune.disconnected_culls", static_cast<double>(total.disconnected_culls));
  out.set("prune.relabel_bfs_vertices", static_cast<double>(total.relabel_bfs_vertices));
}

void put_cache_metrics(const fne::EngineCacheStats& delta, Result& out) {
  out.set("cache.leases", static_cast<double>(delta.leases));
  out.set("cache.engine_hit_ratio",
          delta.leases == 0 ? 0.0
                            : static_cast<double>(delta.engine_hits) /
                                  static_cast<double>(delta.leases));
  out.set("cache.graph_builds", static_cast<double>(delta.graph_builds));
  out.set("cache.evictions", static_cast<double>(delta.evictions));
  out.set("cache.peak_mb", static_cast<double>(delta.peak_bytes) / (1024.0 * 1024.0));
}

void put_campaign_job_metrics(const std::vector<SpanRecord>& spans, double parallel_wall_ms,
                              Result& out) {
  double cell_ms = 0.0, metric_ms = 0.0, max_job = 0.0, span_ms = 0.0, span_max = 0.0;
  double topo_ms = 0.0, accept_ms = 0.0;
  std::uint64_t cells = 0, metric_jobs = 0;
  for (const SpanRecord& s : spans) {
    const double d = s.duration_ms();
    if (s.name == "campaign.cell") {
      cell_ms += d;
      ++cells;
      max_job = std::max(max_job, d);
    } else if (s.name.rfind("metric.", 0) == 0) {
      metric_ms += d;
      ++metric_jobs;
      max_job = std::max(max_job, d);
      if (s.name == "metric.span_estimate") {
        span_ms += d;
        span_max = std::max(span_max, d);
      }
    } else if (s.name == "topology.build") {
      topo_ms += d;
    } else if (s.name == "campaign.accept") {
      accept_ms += d;
    }
  }
  out.set("campaign.cell_ms", cell_ms);
  out.set("campaign.metric_job_ms", metric_ms);
  out.set("campaign.max_job_ms", max_job);
  out.set("campaign.accept_ms", accept_ms);
  out.set("campaign.parallel_eff", (cell_ms + metric_ms) / (kExecThreads * parallel_wall_ms));
  out.set("campaign.jobs", static_cast<double>(cells + metric_jobs));
  out.set("campaign.cells", static_cast<double>(cells));
  out.set("metric.span_estimate_ms", span_ms);
  out.set("metric.span_estimate_max_ms", span_max);
  out.set("metric.split_jobs", static_cast<double>(metric_jobs));
  out.set("topology.build_ms", topo_ms);
}

void put_phase_metrics(const std::vector<SpanRecord>& spans, Result& out) {
  const auto total = [&](const char* name) {
    double ms = 0.0;
    for (const SpanRecord& s : spans) {
      if (s.name == name) ms += s.duration_ms();
    }
    return ms;
  };
  out.set("campaign.plan_ms", total("campaign.plan"));
  out.set("campaign.attach_store_ms", total("campaign.attach_store"));
  out.set("campaign.finish_ms", total("campaign.finish"));
  out.set("campaign.encode_ms", total("campaign.encode"));
  out.set("store.open_ms", total("store.open"));
}

namespace {
/// The alpha-measurement seed a ScenarioRunner derives from scenario.seed
/// (derive_seed(seed, 1, 0) in api/runner.cpp).
[[nodiscard]] std::uint64_t alpha_seed(std::uint64_t base) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * 2);
  (void)fne::splitmix64(state);
  return fne::splitmix64(state);
}
}  // namespace

double alpha_probe(Tracer& tracer, const fne::Campaign& campaign,
                   const fne::CampaignReport& report, Result& out) {
  double total = 0.0;
  for (std::size_t e = 0; e < campaign.entries.size(); ++e) {
    const fne::Scenario& s = campaign.entries[e].scenario;
    if (s.prune.alpha > 0.0) continue;
    const auto graph = fne::EngineCache::instance().graph(s.topology.name, s.topology.params,
                                                          fne::scenario_build_seed(s));
    fne::BracketOptions options;
    options.exact_limit = s.metrics.bracket_exact_limit;
    options.seed = alpha_seed(s.seed);
    const Clock::time_point t0 = Clock::now();
    double alpha = 0.0;
    {
      const Span span(tracer, "expansion.alpha");
      alpha = fne::expansion_bracket(*graph, s.prune.kind, options).upper;
    }
    total += ms_since(t0);
    out.check(alpha == report.scenarios[e].alpha,
              campaign.name + "/" + s.name + ": alpha probe disagrees with the plan's alpha");
  }
  return total;
}

double layer_ms(const std::vector<SpanRecord>& spans) {
  std::set<std::uint64_t> top;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) top.insert(s.id);
  }
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (top.count(s.parent) != 0) total += s.duration_ms();
  }
  return total;
}

std::vector<SpanRecord> spans_between(const std::vector<SpanRecord>& all, std::size_t after,
                                      std::size_t until) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : all) {
    if (s.id > after && s.id <= until) out.push_back(s);
  }
  return out;
}

}  // namespace fnebench
