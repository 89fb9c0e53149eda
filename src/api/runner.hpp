// fne::ScenarioRunner — the per-job units of Scenario execution
// (DESIGN.md §6, §8).
//
// A runner is bound to one Scenario: it resolves ε at construction and
// α at first use (a measured α costs an expansion_bracket of the
// fault-free graph, which a store-served campaign never needs), and it
// reads its graph and engines from the process-wide EngineCache
// (api/executor.hpp).
// It schedules nothing itself — CampaignPlan (api/campaign.hpp) is the
// one scheduler, and every batch (repetitions, sweeps, ad-hoc CLI runs)
// is a campaign whose cells call the units below.  The runner owns one
// PRIMARY engine lease for the single-shot surfaces (run_once,
// run_churn) whose workspace — Krylov basis, BFS queues, degree tables,
// cached Fiedler vector — survives across calls; the campaign units
// (run_isolated, run_chain) lease one engine per job so the buffers
// amortize across every scenario in the process that shares the
// topology.
//
// Determinism contract: a ScenarioRunner is a pure function of its
// Scenario.  Repetition r derives its fault seed from (scenario.seed, r)
// via splitmix64 and its finder seed likewise, and every campaign unit
// runs on an engine whose warm state was dropped at lease time
// (EngineCache contract), so each ScenarioRun is a pure function of
// (scenario, fault, rep): bit-identical for ANY thread count and any
// cache-hit pattern.  run_once/run_churn keep the cross-run Fiedler
// cache on the primary lease — churn rounds are serially dependent
// anyway and profit most from it.
//
// Monotone sweeps (DESIGN.md §8): for fault models whose registry entry
// declares the swept param monotone (same seed, larger value -> alive
// mask shrinks as a SUBSET), run_chain chains the sweep: point j starts
// the cull loop from survivors(j-1) ∩ alive(j) instead of alive(j).  The
// chain is one serial job on one lease, so campaign placement cannot
// reorder it.  Every culled set still satisfies its cull condition at
// cull time (verify_prune_trace certifies a monotone run like any
// other); in the paper's subcritical sweep regimes the chained survivors
// are additionally bit-identical to the independent points — tests and
// bench_s4_campaign parity-check that in deterministic mode.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "analysis/fragmentation.hpp"
#include "api/executor.hpp"
#include "api/scenario.hpp"
#include "expansion/bracket.hpp"
#include "faults/churn.hpp"
#include "prune/engine.hpp"
#include "prune/verify.hpp"

namespace fne {

/// One executed repetition of a Scenario.
struct ScenarioRun {
  int repetition = 0;
  std::uint64_t fault_seed = 0;
  std::uint64_t finder_seed = 0;  ///< cut-finder seed used; replays via prune()/prune2()
  vid faults = 0;          ///< n - |fault-model survivors|
  VertexSet alive;         ///< pre-prune engine input (== fault-model survivors,
                           ///< except monotone sweep points: chained start mask)
  PruneResult prune;
  double threshold = 0.0;  ///< α·ε actually used
  FragmentationProfile fragmentation;           ///< of prune.survivors (if requested)
  std::optional<ExpansionBracket> expansion;    ///< of prune.survivors (if requested)
  std::optional<TraceVerification> trace;       ///< replay certificate (if requested)
  /// Registered-metric results, one per MetricsSpec request in request
  /// order (api/metrics.hpp).  Payloads are deterministic — computed from
  /// the run and a per-(request, repetition) derived seed — so campaign
  /// reports splice them into the thread-count-independent payload.
  std::vector<MetricRecord> metrics;
  /// Engine work this run's prune performed (stats delta around the
  /// engine.run call).  Placement- and cache-history-independent, so the
  /// campaign layer folds per-entry stats as Σ runs.engine — which is
  /// what lets a store-served run (store/result_store.hpp) reproduce the
  /// deterministic report payload without re-running the engine.
  EngineStats engine;
  double millis = 0.0;     ///< prune time only (topology/fault excluded)

  [[nodiscard]] double survivor_fraction(vid n) const {
    return n == 0 ? 0.0 : static_cast<double>(prune.survivors.count()) / n;
  }
};

/// One churn round executed through the runner's persistent engine.
struct ChurnRoundRun {
  ChurnStep churn;         ///< the raw process observables (parity with simulate_churn)
  vid survivors = 0;       ///< |H| after re-pruning this round's alive mask
  vid culled = 0;
  int iterations = 0;
  std::uint64_t finder_seed = 0;  ///< cut-finder seed used this round
  double prune_millis = 0.0;
};

struct ChurnRunTrace {
  std::vector<ChurnRoundRun> rounds;
  VertexSet final_alive;       ///< churn process state after the last round
  VertexSet final_survivors;   ///< prune survivors of the last round
  [[nodiscard]] double total_prune_millis() const;
};

/// The graph-build seed a ScenarioRunner derives from scenario.seed
/// (domain-0 splitmix64 stream).  Exposed for the result store's content
/// keys (store/key.hpp), which name the build seed explicitly.
[[nodiscard]] std::uint64_t scenario_build_seed(const Scenario& scenario);
/// The expansion_bracket seed a runner measures α with (domain-1
/// stream), named by the result store's α keys (store/key.hpp).
[[nodiscard]] std::uint64_t scenario_alpha_seed(const Scenario& scenario);

struct SweepSpec;  // api/campaign.hpp

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario);

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  /// α every unit prunes with: prune.alpha when > 0, else the
  /// fault-free graph's measured expansion (constructive bracket upper
  /// bound), measured once, on first call, from any thread (concurrent
  /// first callers wait for that one measurement).  A measured α of 0
  /// (disconnected topology) throws PreconditionError naming the
  /// scenario, here and at every later call.
  [[nodiscard]] double alpha() const;
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  /// True when alpha() measures (prune.alpha <= 0).
  [[nodiscard]] bool measures_alpha() const noexcept { return scenario_.prune.alpha <= 0.0; }
  /// Supply the measured α from elsewhere (the campaign's result store)
  /// so alpha() never measures.  Only for measuring runners and α > 0;
  /// returns false, changing nothing, when α was already resolved.
  bool set_measured_alpha(double alpha);

  /// Work accrued on the runner's PRIMARY engine lease (run_once,
  /// run_churn).  Deltas since the lease was taken, so a cache-served
  /// engine's prior history never shows up.  Campaign units report
  /// their work per run (ScenarioRun::engine) instead.
  [[nodiscard]] EngineStats engine_stats() const {
    return primary_ ? primary_.stats_delta() : EngineStats{};
  }

  /// Execute repetition `rep`: inject faults, prune through the primary
  /// engine, measure the requested metrics.  Keeps the engine's cross-run
  /// warm cache (legacy single-shot semantics).
  [[nodiscard]] ScenarioRun run_once(int rep = 0);

  /// Execute repetition `rep` on a freshly leased cache engine (warm
  /// state dropped at lease): a pure function of (scenario, fault, rep),
  /// safe to call concurrently from any number of threads.  This is the
  /// unit a CampaignPlan kRep / kSweepPoint cell executes.
  [[nodiscard]] ScenarioRun run_isolated(const FaultSpec& fault, int rep) const;

  /// run_isolated, but metric requests whose registry entry declares
  /// split_job are NOT computed: their run.metrics slot holds a
  /// placeholder {name, "", ""} for a later compute_metric_request to
  /// fill.  The campaign/dist schedulers use this to run expensive
  /// metrics as separate (entry, rep, request) jobs; filling every
  /// placeholder reproduces run_isolated's result field-for-field.
  [[nodiscard]] ScenarioRun run_isolated_deferred(const FaultSpec& fault, int rep) const;

  /// Compute metric request `request_index` for a completed run, with the
  /// SAME derived seed the inline path uses — the record is bit-identical
  /// whether it was computed inline, deferred locally, or on a remote
  /// worker.  Pure and thread-safe.
  [[nodiscard]] MetricRecord compute_metric_request(const ScenarioRun& run,
                                                    std::size_t request_index) const;

  /// Run a MONOTONE sweep chain (sweep.mode is not consulted): one run
  /// per value at repetition 0's seeds, point j starting from
  /// survivors(j-1) ∩ alive(j), all on ONE freshly leased engine — the
  /// unit a CampaignPlan kChain cell executes.  CampaignPlan validates
  /// the sweep (declared monotone param, strictly ascending values)
  /// before any job runs; this unit trusts it.
  [[nodiscard]] std::vector<ScenarioRun> run_chain(const SweepSpec& sweep) const;

  /// Drive a churn process and re-prune EVERY round through the
  /// primary engine.  The fault stream is bit-identical to
  /// simulate_churn(graph(), options) — the scenario's fault spec is not
  /// used here.
  [[nodiscard]] ChurnRunTrace run_churn(const ChurnOptions& options);

 private:
  [[nodiscard]] PruneEngineOptions engine_options(std::uint64_t finder_seed) const;
  [[nodiscard]] PruneEngine& primary_engine();
  [[nodiscard]] EngineLease lease_engine() const;
  /// One repetition on an explicit engine and fault spec — the unit of
  /// work every surface reduces to.  Pure given (scenario, fault, rep)
  /// when the engine's warm state was dropped.  `chain_start` non-null
  /// intersects the fault-model mask with it before pruning (the
  /// monotone-sweep chaining hook); run.faults always counts the
  /// fault-model mask.
  [[nodiscard]] ScenarioRun run_point(PruneEngine& engine, const FaultSpec& fault, int rep,
                                      const VertexSet* chain_start = nullptr,
                                      bool defer_split_metrics = false) const;
  void measure(ScenarioRun& run, bool defer_split_metrics) const;

  Scenario scenario_;
  std::shared_ptr<const Graph> graph_;
  // A mutex, not std::call_once: libstdc++'s call_once can leave the
  // other waiters blocked for good when the callable throws, and the
  // measurement throws on a disconnected topology.
  mutable std::mutex alpha_mutex_;
  mutable bool alpha_resolved_ = false;  ///< measured or supplied (measuring runners)
  mutable double alpha_ = 0.0;
  double epsilon_ = 0.0;
  EngineLease primary_;  ///< leased lazily; held for the runner's lifetime
};

}  // namespace fne
