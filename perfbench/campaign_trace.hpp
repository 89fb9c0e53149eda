// The traced campaign drive shared by the reproduce and prune_scale
// workloads, plus the per-layer metrics both derive from a campaign pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "bench.hpp"
#include "store/result_store.hpp"
#include "trace.hpp"

namespace fnebench {

/// Drive `campaign` through CampaignPlan on the calling thread with a span
/// around every public call: the topology builds (EngineCache::graph),
/// plan construction, store open + attach_store (when `store_dir` is not
/// empty), every compute_cell / compute_metric with its accept_*, finish
/// and to_json.  Returns the deterministic payload (to_json(false)).
[[nodiscard]] std::string traced_campaign(Tracer& tracer, const fne::Campaign& campaign,
                                          const std::string& store_dir,
                                          fne::CampaignReport* report);

/// Untraced CampaignRunner::run, optionally through a store at
/// `store_dir`; returns the payload and the wall time in ms.
[[nodiscard]] std::string run_campaign(const fne::Campaign& campaign, int threads,
                                       const std::string& store_dir, double* wall_ms,
                                       fne::CampaignReport* report = nullptr);

/// prune.* metrics folded over every run of `reports`.
void put_prune_metrics(const std::vector<fne::CampaignReport>& reports, Result& out);

/// cache.* metrics from the cache-stat delta of one pass.
void put_cache_metrics(const fne::EngineCacheStats& delta, Result& out);

/// campaign.* job metrics and the span_estimate / topology / accept times
/// of one serial pass's `spans`; `parallel_wall_ms` is the untraced
/// kExecThreads-wide wall of the same pass (campaign.parallel_eff).
void put_campaign_job_metrics(const std::vector<SpanRecord>& spans, double parallel_wall_ms,
                              Result& out);

/// campaign.plan / attach_store / finish / encode and store.open times of
/// one pass's `spans`.
void put_phase_metrics(const std::vector<SpanRecord>& spans, Result& out);

/// Summed durations of the layer spans directly under the top-level spans
/// of `spans`: the part of the traced wall time attributed to a layer.
[[nodiscard]] double layer_ms(const std::vector<SpanRecord>& spans);

/// Time, under "expansion.alpha" spans, the expansion_bracket calls with
/// which plan construction resolves every entry whose alpha is <= 0, and
/// check each against the alpha `report` resolved.  Returns the summed ms.
double alpha_probe(Tracer& tracer, const fne::Campaign& campaign,
                   const fne::CampaignReport& report, Result& out);

/// Spans whose ids lie in (after, until] — the spans of one pass.
[[nodiscard]] std::vector<SpanRecord> spans_between(const std::vector<SpanRecord>& all,
                                                    std::size_t after, std::size_t until);

}  // namespace fnebench
