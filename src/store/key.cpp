#include "store/key.hpp"

#include <cstdio>
#include <string>

#include "api/campaign.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "expansion/types.hpp"

namespace fne {

namespace {

/// Hexfloat rendering: exact bits, locale-independent, round-trips any
/// double the sweep parser or the CLI can produce.  "%a" alone would do,
/// but pin the format so two libcs cannot disagree on padding.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void append_finder(std::string& key, const CutFinderOptions& finder) {
  key += "|finder=exact_limit:" + std::to_string(finder.exact_limit);
  key += ",ball_sources:" + std::to_string(finder.ball_sources);
  key += ",refine_passes:" + std::to_string(finder.refine_passes);
  key += ",use_spectral:" + std::to_string(finder.use_spectral ? 1 : 0);
  key += ",use_balls:" + std::to_string(finder.use_balls ? 1 : 0);
  key += ",use_exact:" + std::to_string(finder.use_exact ? 1 : 0);
  // Fast mode was once three switches: the key still prints all three
  // fields, from the one bool, so its text did not change with the merge.
  const std::string fast = std::to_string(finder.fast ? 1 : 0);
  key += ",warm:" + fast;
  key += ",stale:" + fast;
  key += ",early:" + fast;
  // finder.seed is deliberately absent: the runner overrides it per
  // repetition from (scenario.seed, rep), which the key already names.
}

void append_metrics(std::string& key, const MetricsSpec& metrics) {
  key += "|metrics=frag:" + std::to_string(metrics.fragmentation ? 1 : 0);
  key += ",exp:" + std::to_string(metrics.expansion ? 1 : 0);
  key += ",trace:" + std::to_string(metrics.verify_trace ? 1 : 0);
  key += ",bx:" + std::to_string(metrics.bracket_exact_limit);
  key += "|requests=";
  bool first = true;
  for (const MetricRequest& req : metrics.requests) {
    if (!first) key += ';';
    first = false;
    key += req.name;
    key += '[';
    key += req.params.to_string();
    key += ']';
  }
}

}  // namespace

std::string store_cell_key(const Scenario& scenario, const FaultSpec& effective_fault,
                           int rep, const SweepSpec* monotone) {
  std::string key = "fne-cell|schema=1";
  key += "|topo=" + scenario.topology.name;
  key += "|topo_params=" + scenario.topology.params.to_string();
  // Entries whose build output depends on state beyond the params (the
  // `file` topology's on-disk bytes) declare a cache_salt.  The store
  // outlives the process, so folding the salt in matters even more here
  // than in the EngineCache: without it, rewriting a .csr in place would
  // resume a campaign from records computed on the OLD graph.
  const std::string topo_salt =
      topology_cache_salt(scenario.topology.name, scenario.topology.params);
  if (!topo_salt.empty()) key += "|topo_salt=" + topo_salt;
  key += "|build_seed=" + std::to_string(scenario_build_seed(scenario));
  key += "|fault=" + effective_fault.name;
  key += "|fault_params=" + effective_fault.params.to_string();
  key += scenario.prune.kind == ExpansionKind::Node ? "|kind=node" : "|kind=edge";
  key += "|alpha=" + hexf(scenario.prune.alpha);
  key += "|epsilon=" + hexf(scenario.prune.epsilon);
  key += "|fast=" + std::to_string(scenario.prune.fast ? 1 : 0);
  key += "|max_iter=" + std::to_string(scenario.prune.max_iterations);
  append_finder(key, scenario.prune.finder);
  append_metrics(key, scenario.metrics);
  key += "|seed=" + std::to_string(scenario.seed);
  key += "|rep=" + std::to_string(rep);
  if (monotone != nullptr) {
    key += "|sweep=" + monotone->param + ":monotone:";
    bool first = true;
    for (const double v : monotone->values) {
      if (!first) key += ',';
      first = false;
      key += hexf(v);
    }
  }
  return key;
}

}  // namespace fne
