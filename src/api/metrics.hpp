// fne::MetricsRegistry — named, param-validated analysis metrics over a
// completed prune run (DESIGN.md §9).
//
// PRs 2–4 put topologies and fault models behind string-keyed registries
// so a Scenario is fully describable as flat data; the ANALYSES stayed
// hard-coded as MetricsSpec bools, and the paper's headline measurements
// beyond raw pruning — mesh span (E6), the span conjecture (E8), the
// embedding/certificate uses — lived in hand-rolled bench loops.  This
// registry is the same seam for analyses:
//
//   MetricsRegistry: name × MetricContext × Params -> MetricRecord
//
// A MetricRecord's payload is a flat JSON object computed only from the
// deterministic parts of the run (survivors, masks, the scenario value,
// a derived seed), so campaign reports splice it into the deterministic
// payload byte-identically for any thread count and any cache state.
// Contracts mirror the other registries: declared params only (typos
// fail loudly with the declared keys listed), unknown metric names fail
// naming the registered ones, REQUIRE-style errors for config mistakes
// (e.g. mesh_span on a topology without mesh structure).  Data-dependent
// degeneracies (an empty or shattered survivor set) are NOT errors: the
// payload carries "defined": false instead, so one collapsed repetition
// cannot abort a campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/params.hpp"
#include "api/registry.hpp"  // ParamSpec
#include "api/scenario.hpp"
#include "core/graph.hpp"

namespace fne {

struct ScenarioRun;  // api/runner.hpp

/// Everything a metric may read.  All fields are deterministic functions
/// of (scenario, repetition): the seed is derived per (scenario.seed,
/// request index, repetition) by the runner, never from placement.
struct MetricContext {
  const Graph& graph;        ///< fault-free topology
  const Scenario& scenario;  ///< as resolved (topology/fault/prune specs)
  const ScenarioRun& run;    ///< completed repetition (prune result, α, ε, alive mask)
  std::uint64_t seed = 0;
};

struct MetricEntry {
  std::string name;
  std::string doc;
  std::vector<ParamSpec> params;
  std::function<MetricRecord(const MetricContext&, const Params&)> compute;
  /// Expensive metrics declare split_job: the campaign/dist schedulers
  /// compute them as their OWN jobs keyed (entry, rep, request) instead
  /// of inline in the run's job, so stragglers shrink and a retry re-does
  /// one metric, not the whole prune.  Purity requirement is unchanged —
  /// the record is a function of (run, request, derived seed) only.
  bool split_job = false;
};

class MetricsRegistry {
 public:
  /// The process-wide registry, with all builtin metrics registered.
  [[nodiscard]] static MetricsRegistry& instance();

  void add(MetricEntry entry);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const MetricEntry& at(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Validate `params` against the entry's declaration without computing
  /// — the campaign parser's eager typo check.
  void check(const std::string& name, const Params& params) const;

  /// Validate and compute.  The record's name is always the registry key.
  [[nodiscard]] MetricRecord compute(const std::string& name, const MetricContext& ctx,
                                     const Params& params) const;

 private:
  MetricsRegistry();
  std::map<std::string, MetricEntry> entries_;
};

}  // namespace fne
