#include "api/campaign.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "store/key.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

// ---------------------------------------------------------------------------
// JSON -> Campaign
// ---------------------------------------------------------------------------

/// Registry-style hygiene for config files: an unknown key is a typo and
/// fails loudly, naming the offender and the context.
void check_keys(const JsonValue& obj, const std::string& context,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members()) {
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&](const char* a) { return key == a; });
    if (!known) {
      std::string list;
      for (const char* a : allowed) {
        if (!list.empty()) list += ", ";
        list += a;
      }
      FNE_REQUIRE(false, "campaign: " + context + " has no key '" + key +
                             "' (allowed: " + list + ")");
    }
  }
}

[[nodiscard]] Params params_from_json(const JsonValue& obj, const std::string& context) {
  Params out;
  for (const auto& [key, value] : obj.members()) {
    switch (value.kind()) {
      case JsonValue::Kind::kString:
        out.set(key, value.as_string());
        break;
      case JsonValue::Kind::kBool:
        out.set(key, std::string(value.as_bool() ? "1" : "0"));
        break;
      case JsonValue::Kind::kNumber: {
        const double d = value.as_number();
        // Integral numbers round-trip as integers so "side": 24 matches
        // the flag form side=24 byte-for-byte in Params::to_string().
        if (static_cast<double>(static_cast<std::int64_t>(d)) == d) {
          out.set(key, static_cast<std::int64_t>(d));
        } else {
          out.set(key, d);
        }
        break;
      }
      default:
        FNE_REQUIRE(false, "campaign: " + context + "." + key +
                               " must be a scalar (string, number or bool)");
    }
  }
  return out;
}

void apply_scenario_json(Scenario& s, const JsonValue& obj) {
  check_keys(obj, "scenario entry",
             {"preset", "name", "seed", "repetitions", "topology", "fault", "prune", "metrics",
              "sweep"});
  if (const JsonValue* v = obj.find("name")) s.name = v->as_string();
  if (const JsonValue* v = obj.find("seed")) s.seed = static_cast<std::uint64_t>(v->as_int());
  if (const JsonValue* v = obj.find("repetitions")) {
    s.repetitions = static_cast<int>(v->as_int());
  }
  if (const JsonValue* v = obj.find("topology")) {
    check_keys(*v, "topology", {"name", "params"});
    if (const JsonValue* name = v->find("name")) {
      if (name->as_string() != s.topology.name) s.topology = {name->as_string(), Params{}};
    }
    if (const JsonValue* params = v->find("params")) {
      const Params parsed = params_from_json(*params, "topology.params");
      for (const auto& [k, val] : parsed.values()) s.topology.params.set(k, val);
    }
  }
  if (const JsonValue* v = obj.find("fault")) {
    check_keys(*v, "fault", {"name", "params"});
    if (const JsonValue* name = v->find("name")) {
      if (name->as_string() != s.fault.name) s.fault = {name->as_string(), Params{}};
    }
    if (const JsonValue* params = v->find("params")) {
      const Params parsed = params_from_json(*params, "fault.params");
      for (const auto& [k, val] : parsed.values()) s.fault.params.set(k, val);
    }
  }
  if (const JsonValue* v = obj.find("prune")) {
    check_keys(*v, "prune",
               {"kind", "alpha", "epsilon", "fast", "max_iterations"});
    if (const JsonValue* kind = v->find("kind")) {
      const std::string& k = kind->as_string();
      FNE_REQUIRE(k == "node" || k == "edge", "campaign: prune.kind must be node or edge");
      s.prune.kind = k == "node" ? ExpansionKind::Node : ExpansionKind::Edge;
    }
    if (const JsonValue* a = v->find("alpha")) s.prune.alpha = a->as_number();
    if (const JsonValue* e = v->find("epsilon")) s.prune.epsilon = e->as_number();
    if (const JsonValue* f = v->find("fast")) s.prune.fast = f->as_bool();
    if (const JsonValue* m = v->find("max_iterations")) {
      s.prune.max_iterations = static_cast<int>(m->as_int());
    }
  }
  if (const JsonValue* v = obj.find("metrics")) {
    check_keys(*v, "metrics",
               {"fragmentation", "expansion", "verify_trace", "bracket_exact_limit",
                "requests"});
    if (const JsonValue* f = v->find("fragmentation")) s.metrics.fragmentation = f->as_bool();
    if (const JsonValue* e = v->find("expansion")) s.metrics.expansion = e->as_bool();
    if (const JsonValue* t = v->find("verify_trace")) s.metrics.verify_trace = t->as_bool();
    if (const JsonValue* b = v->find("bracket_exact_limit")) {
      s.metrics.bracket_exact_limit = static_cast<vid>(b->as_int());
    }
    if (const JsonValue* r = v->find("requests")) {
      // Registered-metric requests replace the preset's list wholesale
      // (like a topology name change: a partial merge of two metric
      // lists has no sensible semantics).  Unknown metric names and
      // undeclared params fail here, at parse time, with the registered
      // alternatives listed — same hygiene as every other unknown key.
      s.metrics.requests.clear();
      for (const JsonValue& item : r->items()) {
        check_keys(item, "metrics.requests entry", {"name", "params"});
        MetricRequest request;
        request.name = item.at("name").as_string();
        if (const JsonValue* p = item.find("params")) {
          request.params =
              params_from_json(*p, "metrics.requests." + request.name + ".params");
        }
        MetricsRegistry::instance().check(request.name, request.params);
        for (const MetricRequest& prev : s.metrics.requests) {
          FNE_REQUIRE(prev.name != request.name,
                      "campaign: metrics.requests lists '" + request.name +
                          "' twice (records are keyed by name)");
        }
        s.metrics.requests.push_back(std::move(request));
      }
    }
  }
}

[[nodiscard]] std::optional<SweepSpec> sweep_from_json(const JsonValue& obj) {
  const JsonValue* v = obj.find("sweep");
  if (v == nullptr) return std::nullopt;
  check_keys(*v, "sweep", {"param", "values", "mode"});
  SweepSpec sweep;
  sweep.param = v->at("param").as_string();
  for (const JsonValue& value : v->at("values").items()) {
    sweep.values.push_back(value.as_number());
  }
  FNE_REQUIRE(!sweep.values.empty(), "campaign: sweep.values must be non-empty");
  if (const JsonValue* mode = v->find("mode")) {
    const std::string& m = mode->as_string();
    FNE_REQUIRE(m == "independent" || m == "monotone",
                "campaign: sweep.mode must be independent or monotone");
    sweep.mode = m == "monotone" ? SweepMode::kMonotone : SweepMode::kIndependent;
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// Report serialization
// ---------------------------------------------------------------------------

void put_engine_stats(JsonObject& obj, const EngineStats& st) {
  obj.put("runs", st.runs)
      .put("iterations", st.iterations)
      .put("eigensolves", st.eigensolves)
      .put("stale_sweeps", st.stale_sweeps)
      .put("stale_sweep_hits", st.stale_sweep_hits)
      .put("disconnected_culls", st.disconnected_culls)
      .put("relabel_bfs_calls", st.relabel_bfs_calls)
      .put("relabel_bfs_vertices", st.relabel_bfs_vertices);
}

[[nodiscard]] std::string run_record_json(const ScenarioRun& run, const MetricsSpec& metrics,
                                          bool include_timing) {
  JsonObject obj;
  obj.put("rep", run.repetition)
      .put("fault_seed", run.fault_seed)
      .put("finder_seed", run.finder_seed)
      .put("faults", static_cast<std::uint64_t>(run.faults))
      .put("alive", static_cast<std::uint64_t>(run.alive.count()))
      .put("survivors", static_cast<std::uint64_t>(run.prune.survivors.count()))
      .put("survivor_hash", mask_hash(run.prune.survivors))
      .put("culled", static_cast<std::uint64_t>(run.prune.total_culled))
      .put("iterations", run.prune.iterations);
  if (metrics.fragmentation) {
    obj.put("gamma", run.fragmentation.gamma)
        .put("components", static_cast<std::uint64_t>(run.fragmentation.num_components));
  }
  if (run.expansion.has_value()) {
    obj.put("expansion_lower", run.expansion->lower)
        .put("expansion_upper", run.expansion->upper);
  }
  if (run.trace.has_value()) obj.put("trace_valid", run.trace->valid);
  if (!run.metrics.empty()) {
    // Registered-metric payloads are deterministic by the MetricsRegistry
    // contract, so they belong to the thread-count-independent payload.
    JsonObject metrics_obj;
    for (const MetricRecord& m : run.metrics) metrics_obj.put_json(m.name, m.payload);
    obj.put_json("metrics", metrics_obj.dump());
  }
  if (include_timing) obj.put("millis", run.millis);
  return obj.dump();
}

[[nodiscard]] std::string scenario_report_json(const ScenarioReport& report,
                                               bool include_timing) {
  JsonObject obj;
  const Scenario& s = report.scenario;
  obj.put("name", s.name)
      .put("topology", s.topology.name)
      .put("topo_params", s.topology.params.to_string())
      .put("fault", s.fault.name)
      .put("fault_params", s.fault.params.to_string())
      .put("kind", s.prune.kind == ExpansionKind::Node ? "node" : "edge")
      .put("fast", s.prune.fast)
      .put("n", static_cast<std::uint64_t>(report.n))
      .put("alpha", report.alpha)
      .put("epsilon", report.epsilon)
      .put("seed", s.seed)
      .put("repetitions", s.repetitions);
  if (!s.metrics.requests.empty()) {
    std::string requested;
    for (const MetricRequest& r : s.metrics.requests) {
      if (!requested.empty()) requested += ";";
      requested += r.name;
      if (!r.params.empty()) requested += "[" + r.params.to_string() + "]";
    }
    obj.put("metrics_requested", requested);
  }
  if (report.sweep.has_value()) {
    obj.put("sweep_param", report.sweep->param)
        .put("sweep_mode",
             report.sweep->mode == SweepMode::kMonotone ? "monotone" : "independent")
        .put_numbers("sweep_values", report.sweep->values);
  }
  std::string runs = "[";
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    if (i > 0) runs += ", ";
    runs += run_record_json(report.runs[i], s.metrics, include_timing);
  }
  obj.put_json("runs", runs + "]");
  JsonObject engine;
  put_engine_stats(engine, report.engine);
  obj.put_json("engine", engine.dump());
  if (include_timing) obj.put("millis", report.millis);
  return obj.dump();
}

/// A sweep's soundness, checked when the plan is built — before any job
/// runs, so a bad sweep can never leave other cells committed to a store.
/// Chaining (kMonotone) is only sound when the fault model's alive mask
/// at value[j] is a SUBSET of the mask at value[j-1] under one seed (the
/// coupling random/high_degree declare); ascending values make them nest.
void check_sweep(const Scenario& scenario, const SweepSpec& sweep) {
  const std::string context = "campaign entry '" + scenario.name + "': sweep";
  FNE_REQUIRE(!sweep.values.empty(), context + " needs values");
  const FaultModelEntry& model = FaultModelRegistry::instance().at(scenario.fault.name);
  FNE_REQUIRE(std::any_of(model.params.begin(), model.params.end(),
                          [&](const ParamSpec& p) { return p.key == sweep.param; }),
              context + " param '" + sweep.param + "' is not a param of fault model '" +
                  scenario.fault.name + "'");
  if (sweep.mode != SweepMode::kMonotone) return;
  FNE_REQUIRE(std::find(model.monotone_params.begin(), model.monotone_params.end(),
                        sweep.param) != model.monotone_params.end(),
              context + ": fault model '" + scenario.fault.name + "' does not declare param '" +
                  sweep.param + "' monotone; use mode independent");
  for (std::size_t i = 1; i < sweep.values.size(); ++i) {
    FNE_REQUIRE(sweep.values[i - 1] < sweep.values[i],
                context + ": monotone sweep values must be strictly ascending");
  }
}

[[nodiscard]] Campaign campaign_from_doc(const JsonValue& doc) {
  check_keys(doc, "campaign", {"name", "scenarios"});
  Campaign campaign;
  if (const JsonValue* name = doc.find("name")) campaign.name = name->as_string();
  const JsonValue& entries = doc.at("scenarios");
  FNE_REQUIRE(!entries.items().empty(), "campaign: scenarios must be non-empty");
  for (const JsonValue& entry : entries.items()) {
    CampaignEntry e;
    if (const JsonValue* preset = entry.find("preset")) {
      e.scenario = named_scenario(preset->as_string());
    }
    apply_scenario_json(e.scenario, entry);
    e.sweep = sweep_from_json(entry);
    campaign.entries.push_back(std::move(e));
  }
  return campaign;
}

}  // namespace

Campaign campaign_from_json(const std::string& text) {
  return campaign_from_doc(JsonValue::parse(text));
}

Campaign campaign_from_file(const std::string& path) {
  Campaign campaign = campaign_from_doc(JsonValue::parse_file(path));
  if (campaign.name == "campaign") campaign.name = path;  // unnamed files report their path
  return campaign;
}

Campaign catalog_campaign(int repetitions) {
  FNE_REQUIRE(repetitions >= 1, "catalog campaign needs >= 1 repetition");
  Campaign campaign;
  campaign.name = "catalog";
  for (Scenario s : scenario_catalog()) {
    s.repetitions = repetitions;
    campaign.entries.push_back({std::move(s), std::nullopt});
  }
  return campaign;
}

EngineStats CampaignReport::total_engine_stats() const {
  EngineStats total;
  for (const ScenarioReport& s : scenarios) total += s.engine;
  return total;
}

std::string CampaignReport::to_json(bool include_timing) const {
  JsonObject top;
  top.put("name", name).put("kind", "campaign_report");
  std::string entries = "[";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i > 0) entries += ", ";
    entries += scenario_report_json(scenarios[i], include_timing);
  }
  top.put_json("scenarios", entries + "]");
  JsonObject engine;
  put_engine_stats(engine, total_engine_stats());
  top.put_json("engine_total", engine.dump());
  if (include_timing) {
    top.put("threads", threads).put("millis", millis);
    JsonObject cache_obj;
    cache_obj.put("leases", cache.leases)
        .put("engine_hits", cache.engine_hits)
        .put("engine_builds", cache.engine_builds)
        .put("graph_hits", cache.graph_hits)
        .put("graph_builds", cache.graph_builds)
        .put("evictions", cache.evictions)
        .put("bytes_resident", cache.bytes_resident)
        .put("peak_bytes", cache.peak_bytes);
    top.put_json("cache", cache_obj.dump());
    if (store_enabled) {
      // The hit/miss split depends on store state, not on the campaign —
      // timing payload only, like the cache counters above.
      JsonObject store_obj;
      store_obj.put("hits", store.hits)
          .put("misses", store.misses)
          .put("bytes_loaded", store.bytes_loaded)
          .put("bytes_committed", store.bytes_committed)
          .put("corrupt_records", store.corrupt_records)
          .put("truncated_bytes", store.truncated_bytes)
          .put("rotated_files", store.rotated_files)
          .put("alpha_measured", store.alpha_measured);
      top.put_json("store", store_obj.dump());
    }
  }
  return top.dump();
}

Table runs_table(const ScenarioReport& report) {
  const MetricsSpec& metrics = report.scenario.metrics;
  std::vector<std::string> headers{"run", "n", "faults", "alive", "|H|", "|H|/n",
                                   "culled", "iters", "ms"};
  if (metrics.fragmentation) {
    headers.push_back("gamma(H)");
    headers.push_back("comps");
  }
  if (metrics.expansion) headers.push_back("exp(H) [lo,up]");
  if (metrics.verify_trace) headers.push_back("trace");
  for (const MetricRequest& request : metrics.requests) headers.push_back(request.name);

  Table table(std::move(headers));
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const ScenarioRun& r = report.runs[i];
    const bool sweep_row = report.sweep.has_value() && i < report.sweep->values.size();
    table.row()
        .cell(sweep_row ? report.sweep->param + "=" +
                              std::to_string(report.sweep->values[i]).substr(0, 6)
                        : "rep " + std::to_string(r.repetition))
        .cell(std::size_t{report.n})
        .cell(std::size_t{r.faults})
        .cell(std::size_t{r.alive.count()})
        .cell(std::size_t{r.prune.survivors.count()})
        .cell(r.survivor_fraction(report.n), 3)
        .cell(std::size_t{r.prune.total_culled})
        .cell(r.prune.iterations)
        .cell(r.millis, 1);
    if (metrics.fragmentation) {
      table.cell(r.fragmentation.gamma, 3).cell(r.fragmentation.num_components);
    }
    if (metrics.expansion) {
      if (r.expansion.has_value()) {
        table.cell("[" + std::to_string(r.expansion->lower).substr(0, 6) + "," +
                   std::to_string(r.expansion->upper).substr(0, 6) + "]");
      } else {
        table.cell("-");
      }
    }
    if (metrics.verify_trace) {
      table.cell(r.trace.has_value() ? (r.trace->valid ? "valid" : "INVALID") : "-");
    }
    for (std::size_t m = 0; m < metrics.requests.size(); ++m) {
      table.cell(m < r.metrics.size() ? r.metrics[m].brief : "-");
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// CampaignPlan
// ---------------------------------------------------------------------------

CampaignPlan::CampaignPlan(const Campaign& campaign, int threads) : campaign_(campaign) {
  FNE_REQUIRE(!campaign_.entries.empty(), "campaign needs >= 1 entry");
  FNE_REQUIRE(threads >= 1, "campaign threads must be >= 1");
  for (const CampaignEntry& entry : campaign_.entries) {
    if (entry.sweep.has_value()) check_sweep(entry.scenario, *entry.sweep);
  }

  // One runner per entry, serially: a runner leases its graph, measures
  // α and reads the max degree at first use, so construction builds
  // nothing, and a store-served entry takes α and ε from its cells
  // instead.  The registry's vertex-count contract gives n without a
  // build (and validates the topology params early).
  const std::size_t num_entries = campaign_.entries.size();
  runners_.reserve(num_entries);
  sizes_.reserve(num_entries);
  for (const CampaignEntry& entry : campaign_.entries) {
    const Scenario& scenario = entry.scenario;
    runners_.push_back(std::make_unique<ScenarioRunner>(scenario));
    sizes_.push_back(
        TopologyRegistry::instance().expected_n(scenario.topology.name, scenario.topology.params));
  }

  // Flatten the schedule.  A monotone sweep chain is ONE serial cell (its
  // points are order-dependent); everything else is one cell per run.
  // Non-chain cells whose entry requests split-declared metrics get one
  // kMetric child per such request, scheduled right after their parent.
  // Keys are computed unconditionally: the store wants them, and the dist
  // protocol names every job by its cell key on the wire.
  results_.resize(num_entries);
  for (std::size_t e = 0; e < num_entries; ++e) {
    const CampaignEntry& entry = campaign_.entries[e];
    std::vector<std::size_t> split_requests;
    for (std::size_t i = 0; i < entry.scenario.metrics.requests.size(); ++i) {
      if (MetricsRegistry::instance().at(entry.scenario.metrics.requests[i].name).split_job) {
        split_requests.push_back(i);
      }
    }
    const auto push_cell = [&](CampaignJob job) {
      const std::size_t cell = jobs_.size();
      jobs_.push_back(std::move(job));
      children_.emplace_back();
      ++num_cells_;
      if (jobs_[cell].kind == CampaignJob::Kind::kChain) return;
      for (const std::size_t r : split_requests) {
        CampaignJob m;
        m.kind = CampaignJob::Kind::kMetric;
        m.entry = e;
        m.rep = jobs_[cell].rep;
        m.sweep_point = jobs_[cell].sweep_point;
        m.request = r;
        m.parent = cell;
        m.key = jobs_[cell].key;
        children_[cell].push_back(jobs_.size());
        jobs_.push_back(std::move(m));
        children_.emplace_back();
      }
    };
    if (entry.sweep.has_value() && entry.sweep->mode == SweepMode::kMonotone) {
      results_[e].resize(0);
      CampaignJob job;
      job.kind = CampaignJob::Kind::kChain;
      job.entry = e;
      job.key = store_cell_key(entry.scenario, entry.scenario.fault, 0, &*entry.sweep);
      push_cell(std::move(job));
    } else if (entry.sweep.has_value()) {
      results_[e].resize(entry.sweep->values.size());
      for (std::size_t j = 0; j < entry.sweep->values.size(); ++j) {
        CampaignJob job;
        job.kind = CampaignJob::Kind::kSweepPoint;
        job.entry = e;
        job.sweep_point = static_cast<int>(j);
        FaultSpec fault = entry.scenario.fault;
        fault.params.set(entry.sweep->param, entry.sweep->values[j]);
        job.key = store_cell_key(entry.scenario, fault, 0);
        push_cell(std::move(job));
      }
    } else {
      results_[e].resize(static_cast<std::size_t>(entry.scenario.repetitions));
      for (int r = 0; r < entry.scenario.repetitions; ++r) {
        CampaignJob job;
        job.kind = CampaignJob::Kind::kRep;
        job.entry = e;
        job.rep = r;
        job.key = store_cell_key(entry.scenario, entry.scenario.fault, r);
        push_cell(std::move(job));
      }
    }
  }

  job_done_.assign(jobs_.size(), 0);
  served_.assign(jobs_.size(), 0);
  missing_metrics_.assign(jobs_.size(), 0);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    missing_metrics_[i] = children_[i].size();
  }
  remaining_ = jobs_.size();

  Fnv1a h;
  h.text(campaign_.name);
  for (const CampaignJob& job : jobs_) {
    h.word(static_cast<std::uint64_t>(job.kind));
    h.word(job.entry);
    h.word(static_cast<std::uint64_t>(job.rep));
    h.word(static_cast<std::uint64_t>(static_cast<std::int64_t>(job.sweep_point)));
    h.word(job.request);
    h.word(job.parent);
    h.text(job.key);
  }
  fingerprint_ = h.value();
}

const CampaignJob& CampaignPlan::job(std::size_t i) const {
  FNE_REQUIRE(i < jobs_.size(), "campaign plan: job index out of range");
  return jobs_[i];
}

std::size_t CampaignPlan::cell_slot(const CampaignJob& job) const {
  return job.sweep_point >= 0 ? static_cast<std::size_t>(job.sweep_point)
                              : static_cast<std::size_t>(job.rep);
}

std::size_t CampaignPlan::expected_runs(std::size_t i) const {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind != CampaignJob::Kind::kMetric,
              "campaign plan: expected_runs on a metric job");
  return job.kind == CampaignJob::Kind::kChain
             ? campaign_.entries[job.entry].sweep->values.size()
             : 1;
}

std::vector<ScenarioRun> CampaignPlan::compute_cell(std::size_t i) const {
  const CampaignJob& job = this->job(i);
  const CampaignEntry& entry = campaign_.entries[job.entry];
  const ScenarioRunner& runner = *runners_[job.entry];
  switch (job.kind) {
    case CampaignJob::Kind::kChain:
      return runner.run_chain(*entry.sweep);
    case CampaignJob::Kind::kSweepPoint: {
      FaultSpec fault = entry.scenario.fault;
      fault.params.set(entry.sweep->param,
                       entry.sweep->values[static_cast<std::size_t>(job.sweep_point)]);
      return {children_[i].empty() ? runner.run_isolated(fault, 0)
                                   : runner.run_isolated_deferred(fault, 0)};
    }
    case CampaignJob::Kind::kRep:
      return {children_[i].empty() ? runner.run_isolated(entry.scenario.fault, job.rep)
                                   : runner.run_isolated_deferred(entry.scenario.fault,
                                                                  job.rep)};
    case CampaignJob::Kind::kMetric:
      break;
  }
  FNE_REQUIRE(false, "campaign plan: compute_cell on a metric job");
  return {};
}

MetricRecord CampaignPlan::compute_metric(std::size_t i,
                                          const ScenarioRun& parent_run) const {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind == CampaignJob::Kind::kMetric,
              "campaign plan: compute_metric on a cell job");
  return runners_[job.entry]->compute_metric_request(parent_run, job.request);
}

ScenarioRun CampaignPlan::parent_run(std::size_t metric_job) const {
  const CampaignJob& job = this->job(metric_job);
  FNE_REQUIRE(job.kind == CampaignJob::Kind::kMetric,
              "campaign plan: parent_run on a cell job");
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(job_done_[job.parent] != 0,
              "campaign plan: parent cell not done for metric job");
  return results_[job.entry][cell_slot(job)];
}

void CampaignPlan::commit_locked(std::size_t cell) {
  // Commit a COMPLETE cell (all split metrics merged) so a killed run
  // resumed from the store never serves half-measured records.  Served
  // cells came from the store and are never re-written (first write wins
  // there anyway).
  if (store_ == nullptr || served_[cell] != 0) return;
  const CampaignJob& job = jobs_[cell];
  const std::vector<ScenarioRun>& entry_runs = results_[job.entry];
  if (job.kind == CampaignJob::Kind::kChain) {
    store_->put(job.key, encode_runs(entry_runs));
  } else {
    store_->put(job.key, encode_runs({&entry_runs[cell_slot(job)], 1}));
  }
}

bool CampaignPlan::accept_cell(std::size_t i, std::vector<ScenarioRun> runs) {
  const CampaignJob& job = this->job(i);
  FNE_REQUIRE(job.kind != CampaignJob::Kind::kMetric,
              "campaign plan: accept_cell on a metric job");
  if (runs.size() != expected_runs(i)) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job_done_[i] != 0) return false;  // duplicate completion: first write won
  if (job.kind == CampaignJob::Kind::kChain) {
    results_[job.entry] = std::move(runs);
  } else {
    results_[job.entry][cell_slot(job)] = std::move(runs.front());
  }
  job_done_[i] = 1;
  --remaining_;
  if (missing_metrics_[i] == 0) commit_locked(i);
  return true;
}

bool CampaignPlan::accept_metric(std::size_t i, MetricRecord record) {
  const CampaignJob& job = this->job(i);
  if (job.kind != CampaignJob::Kind::kMetric) return false;
  const std::string& expected_name =
      campaign_.entries[job.entry].scenario.metrics.requests[job.request].name;
  if (record.name != expected_name) return false;  // wrong/forged record
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job_done_[job.parent] == 0) return false;  // parent not merged yet
  if (job_done_[i] != 0) return false;           // duplicate completion
  results_[job.entry][cell_slot(job)].metrics[job.request] = std::move(record);
  job_done_[i] = 1;
  --remaining_;
  if (--missing_metrics_[job.parent] == 0) commit_locked(job.parent);
  return true;
}

bool CampaignPlan::done(std::size_t i) const {
  (void)this->job(i);
  const std::lock_guard<std::mutex> lock(mutex_);
  return job_done_[i] != 0;
}

bool CampaignPlan::all_done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return remaining_ == 0;
}

std::uint64_t CampaignPlan::attach_store(ResultStore& store) {
  store.refresh();  // pick up cells committed by other processes
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(store_ == nullptr, "campaign plan: store already attached");
  store_ = &store;
  store_before_ = store.stats();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const CampaignJob& job = jobs_[i];
    if (job.kind == CampaignJob::Kind::kMetric || job_done_[i] != 0) continue;
    const std::optional<std::string> payload = store.load(job.key);
    if (!payload.has_value()) continue;
    std::optional<std::vector<ScenarioRun>> runs = decode_runs(*payload);
    // Undecodable or wrong-shape records degrade to a miss — recompute,
    // never crash.  Committed cells are always complete, so their metric
    // children complete with them.
    if (!runs.has_value() || runs->size() != expected_runs(i)) continue;
    // The first served cell of an entry hands its α and ε to the runner,
    // so the entry's missing cells prune with these exact bits.
    (void)runners_[job.entry]->set_alpha_epsilon(runs->front().alpha, runs->front().epsilon);
    if (job.kind == CampaignJob::Kind::kChain) {
      results_[job.entry] = std::move(*runs);
    } else {
      results_[job.entry][cell_slot(job)] = std::move(runs->front());
    }
    job_done_[i] = 1;
    served_[i] = 1;
    --remaining_;
    ++served_cells_;
    for (const std::size_t child : children_[i]) {
      job_done_[child] = 1;
      --remaining_;
      --missing_metrics_[i];
    }
  }
  return served_cells_;
}

std::uint64_t CampaignPlan::cells_served() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return served_cells_;
}

CampaignReport CampaignPlan::finish(int threads, double millis,
                                    const EngineCacheStats& cache_delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FNE_REQUIRE(remaining_ == 0, "campaign plan: finish() before all jobs merged");
  // Per-entry engine stats fold from the runs themselves (run.engine is
  // the delta around each engine.run call): placement-independent like
  // runner totals, but ALSO reproducible from stored records — a fully
  // store-served entry reports the same stats as a computed one, keeping
  // the deterministic payload byte-identical.  α and ε come from the
  // first run the same way: every run of an entry carries the same bits,
  // whether it was served, computed here or received from a dist worker.
  CampaignReport report;
  report.name = campaign_.name;
  report.threads = threads;
  report.scenarios.reserve(campaign_.entries.size());
  for (std::size_t e = 0; e < campaign_.entries.size(); ++e) {
    ScenarioReport sr;
    sr.scenario = runners_[e]->scenario();
    sr.sweep = campaign_.entries[e].sweep;
    sr.n = sizes_[e];
    sr.runs = std::move(results_[e]);
    sr.alpha = sr.runs.front().alpha;
    sr.epsilon = sr.runs.front().epsilon;
    for (const ScenarioRun& r : sr.runs) {
      sr.engine += r.engine;
      sr.millis += r.millis;
    }
    report.scenarios.push_back(std::move(sr));
  }
  report.millis = millis;
  report.cache = cache_delta;
  if (store_ != nullptr) {
    const StoreStats store_after = store_->stats();
    report.store_enabled = true;
    report.store.hits = served_cells_;
    report.store.misses = num_cells_ - served_cells_;
    report.store.bytes_loaded = store_after.bytes_loaded - store_before_.bytes_loaded;
    report.store.bytes_committed =
        store_after.bytes_committed - store_before_.bytes_committed;
    report.store.corrupt_records = store_after.corrupt_records;
    report.store.truncated_bytes = store_after.truncated_bytes;
    report.store.rotated_files = store_after.rotated_files;
    report.store.alpha_measured = static_cast<std::uint64_t>(
        std::count_if(runners_.begin(), runners_.end(),
                      [](const auto& runner) { return runner->measured_alpha(); }));
  }
  return report;
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(Campaign campaign) : campaign_(std::move(campaign)) {
  FNE_REQUIRE(!campaign_.entries.empty(), "campaign needs >= 1 entry");
  for (const CampaignEntry& e : campaign_.entries) {
    // Validate names eagerly so a typo fails at construction, not after
    // half the campaign ran.
    (void)TopologyRegistry::instance().at(e.scenario.topology.name);
    (void)FaultModelRegistry::instance().at(e.scenario.fault.name);
    const auto& requests = e.scenario.metrics.requests;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      MetricsRegistry::instance().check(requests[i].name, requests[i].params);
      for (std::size_t j = 0; j < i; ++j) {
        FNE_REQUIRE(requests[j].name != requests[i].name,
                    "campaign entry '" + e.scenario.name + "': metric '" + requests[i].name +
                        "' requested twice (records are keyed by name)");
      }
    }
  }
}

CampaignReport CampaignRunner::run(int threads) { return run(threads, nullptr); }

CampaignReport CampaignRunner::run(int threads, ResultStore* store, const CancelToken* cancel) {
  FNE_REQUIRE(threads >= 1, "campaign threads must be >= 1");
  const EngineCacheStats cache_before = EngineCache::instance().stats();
  Timer wall;

  CampaignPlan plan(campaign_, threads);
  if (store != nullptr) (void)plan.attach_store(*store);

  // Pass A — pending cells on one pool; pass B — pending metric jobs.
  // The barrier between the passes is what a local runner wants (every
  // parent is done before any metric job starts); the dist coordinator
  // schedules the same plan with per-job readiness instead.
  std::vector<std::size_t> cells;
  std::vector<std::size_t> metric_jobs;
  for (std::size_t i = 0; i < plan.num_jobs(); ++i) {
    if (plan.done(i)) continue;
    (plan.job(i).kind == CampaignJob::Kind::kMetric ? metric_jobs : cells).push_back(i);
  }
  ExecutorPool::run(
      cells.size(), threads,
      [&](std::size_t p) {
        const std::size_t i = cells[p];
        FNE_REQUIRE(plan.accept_cell(i, plan.compute_cell(i)),
                    "campaign: local cell result rejected (duplicate or wrong shape)");
      },
      cancel);
  ExecutorPool::run(
      metric_jobs.size(), threads,
      [&](std::size_t p) {
        const std::size_t i = metric_jobs[p];
        FNE_REQUIRE(plan.accept_metric(i, plan.compute_metric(i, plan.parent_run(i))),
                    "campaign: local metric result rejected (duplicate or mismatched)");
      },
      cancel);

  return plan.finish(threads, wall.millis(), EngineCache::instance().stats() - cache_before);
}

}  // namespace fne
