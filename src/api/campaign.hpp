// fne::Campaign — a batch of Scenarios executed as one schedule over the
// process-wide engine cache (DESIGN.md §8).
//
// The paper's experiments are CAMPAIGNS: the same prune/prune2 analysis
// swept across many topologies, fault regimes and parameters.  A
// Campaign names that whole study as a value — a list of entries, each a
// Scenario plus an optional fault-parameter sweep — loadable from a JSON
// file (campaign_from_file, parsed via util/json.hpp), assembled from
// scenario_catalog() presets, or built ad hoc.
//
// CampaignPlan is the one scheduler: every batch — a campaign file, the
// catalog, an ad-hoc CLI run (a one-entry campaign), a bench study — is
// a Campaign.  CampaignRunner flattens every entry into
// scenario×repetition (or sweep-point) jobs and runs ALL of them on one
// ExecutorPool: a campaign with 40 one-rep scenarios parallelizes as
// well as one 40-rep scenario.
// Jobs lease engines from the EngineCache, so entries sharing a topology
// share graphs and warm buffer pools, and the whole run produces one
// aggregated CampaignReport: per-entry ScenarioRuns plus folded
// EngineStats and cache telemetry.
//
// Determinism: every job is a pure function of (scenario, rep) — seeds
// per repetition, warm state dropped at engine lease — and monotone
// sweep chains run as single serial jobs, so the report's DETERMINISTIC
// PAYLOAD (to_json(/*include_timing=*/false)) is byte-identical for any
// thread count and any cache-hit pattern.  Wall-clock fields and cache
// hit/miss counters are placement-dependent by nature and only appear
// when include_timing is true.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "store/result_store.hpp"
#include "util/table.hpp"

namespace fne {

/// How a SweepSpec walks its values.
enum class SweepMode {
  kIndependent,  ///< every point prunes the full fault-model mask
  kMonotone,     ///< chained: point j starts from survivors(j-1) ∩ alive(j)
};

/// One fault-parameter sweep attached to a campaign entry.  `param` must
/// be a declared param of the entry's fault model; kMonotone further
/// needs it declared monotone (FaultModelEntry::monotone_params) and
/// `values` strictly ascending.  CampaignPlan checks all of it before
/// any job runs.
struct SweepSpec {
  std::string param;
  std::vector<double> values;
  SweepMode mode = SweepMode::kIndependent;
};

/// One campaign line: a Scenario, run either as scenario.repetitions
/// independent repetitions or as a sweep over `sweep->values`.
struct CampaignEntry {
  Scenario scenario;
  std::optional<SweepSpec> sweep;
};

struct Campaign {
  std::string name = "campaign";
  std::vector<CampaignEntry> entries;
};

/// Build a Campaign from a JSON document / file.  Schema (all scenario
/// fields optional on top of the preset or the defaults; unknown keys
/// are rejected with the offending key named):
///
///   {"name": "smoke",
///    "scenarios": [
///      {"preset": "mesh-random", "repetitions": 3, "seed": 7},
///      {"name": "sweep-example",
///       "topology": {"name": "mesh", "params": {"side": 16, "dims": 2}},
///       "fault":    {"name": "random", "params": {"p": 0.1}},
///       "prune":    {"kind": "edge", "alpha": 0.125, "epsilon": 0,
///                    "fast": true, "max_iterations": 100000},
///       "metrics":  {"fragmentation": true, "expansion": false,
///                    "verify_trace": false, "bracket_exact_limit": 14,
///                    "requests": [{"name": "mesh_span",
///                                  "params": {"samples": 16}}]},
///       "sweep":    {"param": "p", "values": [0.05, 0.15, 0.25],
///                    "mode": "monotone"}}]}
[[nodiscard]] Campaign campaign_from_json(const std::string& text);
[[nodiscard]] Campaign campaign_from_file(const std::string& path);

/// The whole scenario_catalog() as a campaign (the CI smoke workload).
[[nodiscard]] Campaign catalog_campaign(int repetitions = 1);

/// One executed campaign entry.
struct ScenarioReport {
  Scenario scenario;           ///< as resolved (preset + overrides)
  std::optional<SweepSpec> sweep;
  double alpha = 0.0;
  double epsilon = 0.0;
  vid n = 0;
  std::vector<ScenarioRun> runs;  ///< one per repetition / sweep point
  EngineStats engine;          ///< work attributed to this entry (placement-independent)
  double millis = 0.0;         ///< summed job wall-clock (timing payload only)
};

/// One row per run of an executed entry: counts, |H|/n, prune time, and
/// one column per requested metric (MetricsSpec).  Repetition rows are
/// labelled "rep r", sweep-point rows "param=value" (from report.sweep).
[[nodiscard]] Table runs_table(const ScenarioReport& report);

/// How the run split between the result store and fresh compute.  Like
/// cache telemetry this depends on store STATE, not on the campaign, so
/// it only appears in the timing payload.  The corruption counters are
/// ABSOLUTE store-health values (StoreStats), not per-run deltas: disk
/// trouble heals silently into recompute, and this block is where it
/// stays visible.
struct CampaignStoreStats {
  std::uint64_t hits = 0;             ///< cells served from the store
  std::uint64_t misses = 0;           ///< cells computed (and committed)
  std::uint64_t bytes_loaded = 0;
  std::uint64_t bytes_committed = 0;
  std::uint64_t corrupt_records = 0;  ///< checksum-skipped frames (store lifetime)
  std::uint64_t truncated_bytes = 0;  ///< torn-tail bytes dropped at open
  std::uint64_t rotated_files = 0;    ///< foreign/versioned logs moved aside
  /// Measured-α entries (prune.alpha <= 0) whose α this process measured
  /// during the run: entries with a cell computed here and no cell served
  /// from the store.  A fully served run, or a dist coordinator whose
  /// workers computed the cells, measures none.  Not a cell count: hits +
  /// misses still add up to the cells.
  std::uint64_t alpha_measured = 0;
};

struct CampaignReport {
  std::string name;
  std::vector<ScenarioReport> scenarios;
  int threads = 1;             ///< as requested (timing payload only)
  double millis = 0.0;         ///< wall-clock of the whole run
  EngineCacheStats cache;      ///< cache ops during the run (placement-dependent)
  bool store_enabled = false;  ///< run went through a ResultStore
  CampaignStoreStats store;    ///< hit/miss split (timing payload only)

  [[nodiscard]] EngineStats total_engine_stats() const;
  /// Serialize.  include_timing=false yields the deterministic payload:
  /// byte-identical across thread counts and cache-hit patterns (the
  /// campaign determinism tests and bench_s4_campaign compare exactly
  /// this string).
  [[nodiscard]] std::string to_json(bool include_timing = true) const;
};

/// One schedulable unit of a campaign.  Cells (kRep / kSweepPoint /
/// kChain) are also the unit of STORAGE: one cell, one content key
/// (store/key.hpp), one record.  kMetric jobs compute one split-declared
/// metric request (api/metrics.hpp MetricEntry::split_job) of a finished
/// cell's run — they ride the same schedulers but merge INTO their
/// parent cell, which is only committed to the store once complete.
struct CampaignJob {
  enum class Kind { kRep, kSweepPoint, kChain, kMetric };
  Kind kind = Kind::kRep;
  std::size_t entry = 0;
  int rep = 0;            ///< kRep (and kMetric of a kRep parent)
  int sweep_point = -1;   ///< >= 0: kSweepPoint (and kMetric of one)
  std::size_t request = 0;  ///< kMetric: index into metrics.requests
  std::size_t parent = 0;   ///< kMetric: job index of the parent cell
  std::string key;          ///< cell content key (kMetric: the parent's)
};

/// The flattened, deterministic schedule of a campaign plus the merge
/// state every executor shares.  Construction is a PURE function of the
/// Campaign, so two plans of the same campaign — a coordinator and its
/// workers, or two processes racing one store — agree on job indices,
/// content keys and fingerprint().  It builds no graph and starts no
/// thread: each entry's runner leases its graph at first use.
///
/// Split of responsibilities:
///   compute_cell / compute_metric  — pure, any thread; an entry's
///     runner measures α and reads the max degree at first need, once
///     per plan, unless a served cell supplied them;
///   accept_cell / accept_metric    — synchronized merge, idempotent
///     (first write wins; a duplicate or late completion returns false
///     and changes nothing), committing completed cells to the attached
///     store;
///   finish                         — assemble the CampaignReport (once),
///     taking each entry's α and ε from its first merged run, so it
///     leases no graph and measures nothing.
///
/// Construction also validates every entry's sweep (declared param;
/// monotone: declared monotone, strictly ascending values), so a bad
/// sweep throws PreconditionError before any job runs or any cell
/// reaches a store.
///
/// CampaignRunner::run and the dist coordinator/workers (src/dist/) are
/// thin schedulers over this class, and nothing else schedules scenario
/// work — which is what makes "the distributed payload is byte-identical
/// to the local one" a structural property instead of a test-enforced
/// coincidence.
class CampaignPlan {
 public:
  /// `threads` (>= 1) no longer affects construction, which is serial
  /// and cheap; it is checked and kept for existing callers.
  CampaignPlan(const Campaign& campaign, int threads);

  [[nodiscard]] const Campaign& campaign() const noexcept { return campaign_; }
  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }
  [[nodiscard]] const CampaignJob& job(std::size_t i) const;
  /// FNV-1a over the schedule (campaign name, every job's identity and
  /// key).  The dist handshake compares fingerprints so a worker serving
  /// a DIFFERENT campaign is turned away instead of poisoning results.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Expected run count of a cell job (chain: all sweep values, else 1).
  [[nodiscard]] std::size_t expected_runs(std::size_t i) const;
  /// Execute a cell job (pure; any thread).  Split-declared metrics are
  /// deferred iff the cell has kMetric children.
  [[nodiscard]] std::vector<ScenarioRun> compute_cell(std::size_t i) const;
  /// Execute a metric job against its parent's completed run.
  [[nodiscard]] MetricRecord compute_metric(std::size_t i,
                                            const ScenarioRun& parent_run) const;
  /// Copy of the parent cell's run for a metric job; REQUIREs the parent
  /// to be done (metric jobs are blocked until then).
  [[nodiscard]] ScenarioRun parent_run(std::size_t metric_job) const;

  /// Merge a completed cell.  Returns false (and changes nothing) when
  /// the runs are the wrong shape or the cell is already done — the
  /// duplicate-completion and garbage-rejection path.
  bool accept_cell(std::size_t i, std::vector<ScenarioRun> runs);
  /// Merge a completed metric record into its parent cell.  False when
  /// the record mismatches the request, the parent is not done, or the
  /// job already merged.
  bool accept_metric(std::size_t i, MetricRecord record);
  [[nodiscard]] bool done(std::size_t i) const;
  [[nodiscard]] bool all_done() const;

  /// Attach a store: serve every already-committed cell from disk (their
  /// metric jobs complete with them) and commit cells as they complete
  /// from here on.  A served cell's runs carry the α and ε they pruned
  /// with; the entry's runner takes them, so the entry's missing cells
  /// neither measure α nor read the max degree.  Returns the number of
  /// cells served.  A record that fails to decode or has the wrong run
  /// count degrades to a miss.
  std::uint64_t attach_store(ResultStore& store);
  [[nodiscard]] std::uint64_t cells_served() const;
  [[nodiscard]] std::uint64_t num_cells() const noexcept { return num_cells_; }

  /// Assemble the report (single use: moves the merged runs out).
  /// REQUIREs all_done().
  [[nodiscard]] CampaignReport finish(int threads, double millis,
                                      const EngineCacheStats& cache_delta);

 private:
  [[nodiscard]] std::size_t cell_slot(const CampaignJob& job) const;
  void commit_locked(std::size_t cell);

  Campaign campaign_;
  std::vector<std::unique_ptr<ScenarioRunner>> runners_;
  std::vector<vid> sizes_;  ///< per entry: n, from the registry contract
  std::vector<CampaignJob> jobs_;
  std::vector<std::vector<std::size_t>> children_;  ///< cell -> metric jobs
  std::vector<std::vector<ScenarioRun>> results_;   ///< per entry
  std::uint64_t fingerprint_ = 0;
  std::size_t num_cells_ = 0;

  mutable std::mutex mutex_;
  std::vector<char> job_done_;
  std::vector<std::size_t> missing_metrics_;  ///< per job (cells only)
  std::vector<char> served_;                  ///< cell came from the store
  std::size_t remaining_ = 0;
  std::uint64_t served_cells_ = 0;
  ResultStore* store_ = nullptr;
  StoreStats store_before_;  ///< snapshot at attach (byte deltas for finish)
};

class CampaignRunner {
 public:
  explicit CampaignRunner(Campaign campaign);

  [[nodiscard]] const Campaign& campaign() const noexcept { return campaign_; }

  /// Execute every entry's jobs on `threads` ExecutorPool workers.
  /// Graphs are leased by the first job that needs them.  May be called
  /// repeatedly; each call reports only its own work.
  [[nodiscard]] CampaignReport run(int threads = 1);

  /// Store-backed execution (DESIGN.md §11).  Every job is keyed
  /// (store/key.hpp); a key already in `store` is served from disk —
  /// bit-identical to fresh compute by the determinism contract — and a
  /// miss is computed then committed, so a killed campaign resumed on
  /// the same store recomputes only the missing cells.  The DETERMINISTIC
  /// payload (to_json(false)) is byte-identical for any hit/miss split,
  /// any thread count, and store == nullptr (which is exactly run(threads)).
  ///
  /// `cancel` (optional) is the scenario service's abandonment hook
  /// (DESIGN.md §13): polled between jobs by both executor passes.  A
  /// cancelled run throws CancelledError; completed cells were still
  /// committed to the store, so a resubmission resumes rather than
  /// restarts.
  [[nodiscard]] CampaignReport run(int threads, ResultStore* store,
                                   const CancelToken* cancel = nullptr);

 private:
  Campaign campaign_;
};

}  // namespace fne
