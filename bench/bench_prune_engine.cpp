// PERF — PruneEngine vs the stateless prune loop.
//
// The stateless reference recomputes connected components, alive degrees
// and a cold-started Fiedler solve on every cull iteration; the engine
// maintains them incrementally and (in fast mode) skips eigensolves
// whenever sweeping the stale Fiedler ordering already exposes a
// violating set.  This bench times both on the ISSUE's acceptance
// workload — a 64x64 mesh with 30% random node faults —
// and checks the two correctness contracts:
//   * deterministic engine output is bit-identical to the reference;
//   * fast-mode traces replay (verify_prune_trace), i.e. every culled set
//     satisfied its culling condition — the paper-level validity notion.
//
// The spectral-kernel section isolates this PR's eigensolve speedup: the
// seed's spectral path (MaskedLaplacian full-graph walk + two-pass
// modified Gram–Schmidt Lanczos, kept verbatim below as the baseline)
// against the production path (compact SubCsr apply + CGS2/DGKS
// lanczos_smallest) at the staged iteration caps the engine actually
// runs (40/120), plus the raw operator apply.  Acceptance: the staged
// solves are >= 1.5x single-threaded.
//
// Flags: --side=N (default 64), --faults=P (default 0.3), --trials=N
// (default 1), --alpha=A (default 0.5), --eps=E (default 0.5), --seed=S,
// --json=out.json (machine-readable results), --filtered-side=N (default
// 96), and the gate thresholds --min-spectral-speedup (1.5) /
// --min-filtered-speedup (3.0, the Chebyshev-filter acceptance).
#include "bench_common.hpp"

#include <cmath>
#include <utility>

#include "core/traversal.hpp"
#include "faults/fault_model.hpp"
#include "prune/engine.hpp"
#include "prune/prune.hpp"
#include "prune/verify.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "spectral/tridiag.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

bool identical(const PruneResult& a, const PruneResult& b) {
  if (!(a.survivors == b.survivors) || a.iterations != b.iterations ||
      a.culled.size() != b.culled.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.culled.size(); ++i) {
    if (!(a.culled[i].set == b.culled[i].set) || a.culled[i].boundary != b.culled[i].boundary) {
      return false;
    }
  }
  return true;
}

// --- seed-era spectral path, kept verbatim as the speedup baseline ----
// MGS with two unconditional full passes over the basis, serial
// reductions, MaskedLaplacian operator.  This is what every eigensolve
// cost before the sub-CSR kernels; do not "fix" it.
namespace seed_path {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}
void project_out(const std::vector<std::vector<double>>& basis, std::size_t count,
                 std::vector<double>& x) {
  for (std::size_t i = 0; i < count; ++i) {
    const double c = dot(basis[i], x);
    if (c != 0.0) axpy(-c, basis[i], x);
  }
}

LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n,
                               const std::vector<std::vector<double>>& deflation,
                               const LanczosOptions& options) {
  LanczosResult result;
  std::vector<std::vector<double>> defl = deflation;
  for (auto& b : defl) {
    const double nb = norm(b);
    for (auto& x : b) x /= nb;
  }
  const std::size_t usable = n > defl.size() ? n - defl.size() : 0;
  if (usable == 0) {
    result.converged = true;
    return result;
  }
  const int max_iter = static_cast<int>(
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));
  std::vector<std::vector<double>> basis;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };
  std::vector<double> alpha;
  std::vector<double> beta;
  Rng rng(options.seed);
  std::vector<double> q(n);
  for (auto& x : q) x = rng.uniform01() - 0.5;
  project_out(defl, defl.size(), q);
  {
    const double nq = norm(q);
    for (auto& x : q) x /= nq;
  }
  push_basis(q);
  std::vector<double> w(n);
  for (int j = 0; j < max_iter; ++j) {
    op(basis[basis_count - 1], w);
    const double a = dot(basis[basis_count - 1], w);
    alpha.push_back(a);
    axpy(-a, basis[basis_count - 1], w);
    if (j > 0) axpy(-beta.back(), basis[basis_count - 2], w);
    project_out(defl, defl.size(), w);
    for (int pass = 0; pass < 2; ++pass) project_out(basis, basis_count, w);
    const double b = norm(w);
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if (last || (j + 1) % 10 == 0) {
      std::vector<double> values;
      std::vector<double> z;
      tridiag_eigen(alpha, beta, values, &z, 1);
      const std::size_t k = alpha.size();
      const bool conv = std::fabs(b * z[k - 1]) <= options.tolerance;
      if (conv || last) {
        result.iterations = j + 1;
        result.converged = conv || b < 1e-13;
        result.values.assign(values.begin(), values.begin() + 1);
        result.vectors.assign(1, std::vector<double>(n, 0.0));
        for (std::size_t i = 0; i < k; ++i) axpy(z[i], basis[i], result.vectors[0]);
        return result;
      }
    }
    if (b < 1e-13) break;
    beta.push_back(b);
    for (auto& x : w) x /= b;
    push_basis(w);
  }
  return result;
}

}  // namespace seed_path

/// The Chebyshev-filter gate: 4 deflated pairs (one filtered rank-1 solve
/// each) vs the same pairs solved plain, at matched tolerance on the
/// largest surviving component of a large faulty mesh, whose clustered
/// bottom spectrum is exactly the regime the filter exists for.  The plain
/// side gets a per-pair cap large enough to actually converge — the ratio
/// measures work-to-answer at the SAME accuracy, not who hit a cap first.
bool filtered_lanczos_section(const SubCsrLaplacian& lap, const SubCsr& sub, std::uint64_t seed,
                              double min_speedup, bench::JsonReport* json) {
  const std::size_t dim = lap.dim();
  const std::vector<std::vector<double>> ones{std::vector<double>(dim, 1.0)};
  const auto apply = [&lap](const std::vector<double>& x, std::vector<double>& y) {
    lap.apply(x, y);
  };
  constexpr int kPairs = 4;
  constexpr double kTol = 1e-5;
  Timer timer;

  LanczosOptions opts;
  opts.num_eigenpairs = kPairs;
  opts.tolerance = kTol;
  opts.max_iterations = 2600;  // generous: the plain side must reach convergence
  opts.seed = seed;
  opts.accel.mode = SpectralMode::kPlain;
  timer.reset();
  const LanczosResult plain = lanczos_smallest(apply, dim, ones, opts);
  const double plain_ms = timer.millis();

  LanczosOptions fopts = opts;
  fopts.accel.mode = SpectralMode::kFiltered;
  fopts.accel.op_upper_bound = gershgorin_upper_bound(sub);
  timer.reset();
  const LanczosResult filtered = lanczos_smallest(apply, dim, ones, fopts);
  const double filtered_ms = timer.millis();

  double max_dev = 0.0;
  for (int e = 0; e < kPairs; ++e) {
    const auto idx = static_cast<std::size_t>(e);
    max_dev = std::max(max_dev, std::fabs(plain.values.at(idx) - filtered.values.at(idx)));
  }
  const bool parity = max_dev <= 1e-4 && plain.converged && filtered.converged;
  const double speedup = filtered_ms > 0.0 ? plain_ms / filtered_ms : 0.0;
  const bool pass = parity && speedup >= min_speedup;

  Table table({"mode", "ms", "iterations", "speedup", "max |dλ|", "pass"});
  table.row()
      .cell("plain (dim " + std::to_string(dim) + ")")
      .cell(plain_ms, 2)
      .cell(plain.iterations)
      .cell(1.0, 2)
      .cell(0.0, 8)
      .cell(plain.converged ? "(baseline)" : "UNCONVERGED");
  table.row()
      .cell("filtered")
      .cell(filtered_ms, 2)
      .cell(filtered.iterations)
      .cell(speedup, 2)
      .cell(max_dev, 8)
      .cell(bench::yesno(pass));
  bench::print_table(
      table,
      "4 deflated rank-1 pairs on the largest component at matched tolerance 1e-5;\n"
      "iterations = Krylov vectors consumed over the 4 solves (the filtered count\n"
      "includes each solve's 16-iteration plain probe that places the cut).\n"
      "Acceptance: filtered speedup >= threshold AND both sides converged AND\n"
      "eigenvalue parity to 1e-4.");
  if (json != nullptr) {
    json->record("kernel")
        .put("workload", "filtered_k4")
        .put("seed_ms", plain_ms)
        .put("sub_csr_ms", filtered_ms)
        .put("speedup", speedup)
        .put("max_eigenvalue_dev", max_dev)
        .put("parity", parity);
  }
  return pass;
}

/// Time the seed path against the production path on the post-fault mask;
/// prints the table, fills the JSON records, returns whether both staged
/// solves cleared >= 1.5x.
bool spectral_kernel_section(const Graph& g, const VertexSet& alive, std::uint64_t seed,
                             double min_speedup, bench::JsonReport* json) {
  MaskedLaplacian masked(g, alive);
  SubCsr sub;
  sub.build(g, alive);
  SubCsrLaplacian compact(sub);
  const std::size_t k = masked.dim();
  const std::vector<std::vector<double>> defl{std::vector<double>(k, 1.0)};

  Table table({"workload", "seed path ms", "sub-CSR path ms", "speedup", ">= 1.5x"});
  bool pass = true;
  Timer timer;

  // Raw operator apply: the SpMV at the heart of every Lanczos iteration.
  {
    std::vector<double> x(k), y(k);
    for (std::size_t i = 0; i < k; ++i) x[i] = 0.1 * static_cast<double>(i % 7);
    const int applies = 2000;
    timer.reset();
    for (int i = 0; i < applies; ++i) masked.apply(x, y);
    const double masked_ms = timer.millis();
    timer.reset();
    for (int i = 0; i < applies; ++i) compact.apply(x, y);
    const double sub_ms = timer.millis();
    const double speedup = masked_ms / sub_ms;
    table.row()
        .cell("apply x" + std::to_string(applies))
        .cell(masked_ms, 1)
        .cell(sub_ms, 1)
        .cell(speedup, 2)
        .cell("(info)");
    if (json != nullptr) {
      json->record("kernel")
          .put("workload", "apply")
          .put("seed_ms", masked_ms)
          .put("sub_csr_ms", sub_ms)
          .put("speedup", speedup);
    }
  }

  // Staged eigensolves at the caps the engine's fiedler_sweep escalation
  // actually uses (spectral/sweep: 40 then 120).  The 40-cap stage is the
  // one EVERY fast-mode eigensolve runs (escalation is the rare case), so
  // it carries the acceptance; the 120-cap row is informational — its
  // ratio also carries the seed path's full O(k³) eigenvector accumulation
  // at every convergence check, which the library's last-row checks skip.
  for (const int cap : {40, 120}) {
    LanczosOptions opts;
    opts.max_iterations = cap;
    opts.tolerance = 1e-8;
    opts.seed = seed;
    const int reps = 6;
    timer.reset();
    for (int r = 0; r < reps; ++r) {
      (void)seed_path::lanczos_smallest(
          [&](const std::vector<double>& x, std::vector<double>& y) { masked.apply(x, y); }, k,
          defl, opts);
    }
    const double old_ms = timer.millis() / reps;
    LanczosScratch scratch;
    LanczosOptions nopts = opts;
    nopts.scratch = &scratch;
    timer.reset();
    for (int r = 0; r < reps; ++r) {
      (void)lanczos_smallest(
          [&](const std::vector<double>& x, std::vector<double>& y) { compact.apply(x, y); }, k,
          defl, nopts);
    }
    const double new_ms = timer.millis() / reps;
    const double speedup = old_ms / new_ms;
    const bool gating = cap == 40;
    if (gating) pass = pass && speedup >= min_speedup;
    table.row()
        .cell("staged solve cap " + std::to_string(cap))
        .cell(old_ms, 2)
        .cell(new_ms, 2)
        .cell(speedup, 2)
        .cell(gating ? bench::yesno(speedup >= min_speedup) : "(info)");
    if (json != nullptr) {
      json->record("kernel")
          .put("workload", "staged_solve_" + std::to_string(cap))
          .put("seed_ms", old_ms)
          .put("sub_csr_ms", new_ms)
          .put("speedup", speedup);
    }
  }

  bench::print_table(
      table,
      "seed path = MaskedLaplacian full-graph walk + two-pass MGS Lanczos (the\n"
      "pre-sub-CSR implementation, kept above as the baseline); sub-CSR path =\n"
      "compact SubCsr apply + CGS2/DGKS lanczos_smallest.  Acceptance: the 40-cap\n"
      "staged solve — the stage every fast-mode eigensolve runs — is >= 1.5x.");
  return pass;
}

}  // namespace
}  // namespace fne

int main(int argc, char** argv) {
  using namespace fne;
  const Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_seed();
  const auto side = static_cast<vid>(cli.get_int("side", 64));
  const double fault_p = cli.get_double("faults", 0.3);
  const int trials = static_cast<int>(cli.get_int("trials", 1));
  // Default alpha = the fault-free mesh's straight-cut node expansion
  // (~2/side), a cut the mesh actually has; 0.5·alpha as the threshold
  // keeps Prune in the regime where H stays large and every iteration
  // exercises a full-size cut search.
  const double alpha = cli.get_double("alpha", 2.0 / static_cast<double>(side));
  const double eps = cli.get_double("eps", 0.5);

  bench::print_header(
      "PERF-ENGINE",
      "Incremental PruneEngine vs stateless prune loop (target: >= 3x end-to-end)");

  const Mesh mesh = Mesh::cube(side, 2);
  const Graph& g = mesh.graph();
  const double threshold = alpha * eps;

  Table table({"trial", "n", "alive", "ref ms", "det ms", "fast ms", "det speedup",
               "fast speedup", "det identical", "fast trace ok", "|H| ref", "|H| fast"});

  double total_ref = 0.0;
  double total_fast = 0.0;
  bool all_identical = true;
  bool all_valid = true;

  // One engine per mode: the workspace's Fiedler cache now survives
  // across runs, so sharing an engine would hand the fast run a warm
  // ordering for the *identical* alive mask the det run just solved —
  // inflating the measured fast-mode speedup with work it never paid for.
  // Separate engines still amortize buffers across trials (the honest
  // reuse), but each mode earns its own eigensolves.
  bench::JsonReport json("bench_prune_engine");
  json.top()
      .put("workload", "mesh " + std::to_string(side) + "x" + std::to_string(side) + ", " +
                           std::to_string(fault_p) + " random node faults")
      .put("n", std::size_t{g.num_vertices()})
      .put("trials", trials)
      .put("threads", bench::max_threads());

  PruneEngine det_engine(g, ExpansionKind::Node);
  PruneEngine fast_engine(g, ExpansionKind::Node);
  EngineStats det_stats;
  EngineStats fast_stats;
  VertexSet first_alive;
  for (int t = 0; t < trials; ++t) {
    const VertexSet alive = random_node_faults(g, fault_p, seed + static_cast<std::uint64_t>(t));
    if (t == 0) first_alive = alive;
    PruneOptions popts;
    popts.finder.seed = seed + 100 + static_cast<std::uint64_t>(t);

    Timer timer;
    const PruneResult ref = prune_reference(g, alive, alpha, eps, popts);
    const double ref_ms = timer.millis();

    PruneEngineOptions det;
    det.finder = popts.finder;
    EngineStats snapshot = det_engine.stats();
    timer.reset();
    const PruneResult engine_det = det_engine.run(alive, alpha, eps, det);
    const double det_ms = timer.millis();
    det_stats += det_engine.stats() - snapshot;

    PruneEngineOptions fast = PruneEngineOptions::fast();
    fast.finder.seed = popts.finder.seed;
    snapshot = fast_engine.stats();
    timer.reset();
    const PruneResult engine_fast = fast_engine.run(alive, alpha, eps, fast);
    const double fast_ms = timer.millis();
    fast_stats += fast_engine.stats() - snapshot;

    const bool det_identical = identical(ref, engine_det);
    const TraceVerification trace =
        verify_prune_trace(g, alive, engine_fast, ExpansionKind::Node, threshold);
    all_identical = all_identical && det_identical;
    all_valid = all_valid && trace.valid;
    total_ref += ref_ms;
    total_fast += fast_ms;

    json.record("per_trial")
        .put("trial", t)
        .put("ref_ms", ref_ms)
        .put("det_ms", det_ms)
        .put("fast_ms", fast_ms)
        .put("det_identical", det_identical)
        .put("fast_trace_valid", trace.valid);

    table.row()
        .cell(std::size_t(t))
        .cell(std::size_t{g.num_vertices()})
        .cell(std::size_t{alive.count()})
        .cell(ref_ms, 1)
        .cell(det_ms, 1)
        .cell(fast_ms, 1)
        .cell(ref_ms / det_ms, 2)
        .cell(ref_ms / fast_ms, 2)
        .cell(bench::yesno(det_identical))
        .cell(bench::yesno(trace.valid))
        .cell(std::size_t{ref.survivors.count()})
        .cell(std::size_t{engine_fast.survivors.count()});
  }

  bench::print_table(
      table,
      "acceptance: 'det identical' and 'fast trace ok' = yes everywhere, and the fast\n"
      "engine's end-to-end speedup over the stateless path is >= 3x.");

  // Engine telemetry (ROADMAP: expose counters so benches can report how
  // many eigensolves fast mode actually skipped).
  Table stats({"mode", "iters", "eigensolves", "solves/iter", "stale sweeps", "stale hits",
               "hit rate", "disconnected culls", "relabel BFS", "relabel verts"});
  for (const auto& [mode, st] : {std::pair<const char*, const EngineStats*>{"det", &det_stats},
                                 {"fast", &fast_stats}}) {
    stats.row()
        .cell(mode)
        .cell(st->iterations)
        .cell(st->eigensolves)
        .cell(st->iterations > 0
                  ? static_cast<double>(st->eigensolves) / static_cast<double>(st->iterations)
                  : 0.0,
              2)
        .cell(st->stale_sweeps)
        .cell(st->stale_sweep_hits)
        .cell(st->stale_sweeps > 0 ? static_cast<double>(st->stale_sweep_hits) /
                                         static_cast<double>(st->stale_sweeps)
                                   : 0.0,
              2)
        .cell(st->disconnected_culls)
        .cell(st->relabel_bfs_calls)
        .cell(st->relabel_bfs_vertices);
  }
  bench::print_table(stats,
                     "every stale hit is an eigensolve skipped; det mode runs one staged solve\n"
                     "per connected iteration, fast mode's solves/iter shows what remains.");

  // The staged-solve ratio is noise-bound at reduced sizes on loaded
  // 1-2 core CI boxes; --min-spectral-speedup relaxes the gate there
  // (the 64x64 acceptance default stays 1.5).
  const double min_spectral = cli.get_double("min-spectral-speedup", 1.5);
  const bool kernel_pass = spectral_kernel_section(g, first_alive, seed, min_spectral, &json);

  // Chebyshev-filter acceptance: filtered vs plain deflated pairs on the
  // largest component of a --filtered-side mesh (default 96; the side-64
  // CI run and the side-96 run are both far above kFilteredAutoDim = 256,
  // where kAuto itself picks the filter).
  // --min-filtered-speedup relaxes the 3x default on reduced-size CI runs.
  const double min_filtered = cli.get_double("min-filtered-speedup", 3.0);
  const auto filtered_side = static_cast<vid>(cli.get_int("filtered-side", 96));
  const Mesh filtered_mesh = Mesh::cube(filtered_side, 2);
  const VertexSet filtered_alive =
      largest_component(filtered_mesh.graph(),
                        random_node_faults(filtered_mesh.graph(), fault_p, seed));
  SubCsr filtered_sub;
  filtered_sub.build(filtered_mesh.graph(), filtered_alive);
  const SubCsrLaplacian filtered_lap(filtered_sub);
  const bool filtered_pass =
      filtered_lanczos_section(filtered_lap, filtered_sub, seed, min_filtered, &json);

  const double speedup = total_fast > 0.0 ? total_ref / total_fast : 0.0;
  json.top()
      .put("ref_ms", total_ref)
      .put("fast_ms", total_fast)
      .put("speedup", speedup)
      .put("det_identical", all_identical)
      .put("traces_valid", all_valid)
      .put("kernel_pass", kernel_pass)
      .put("filtered_pass", filtered_pass);
  if (cli.has("json")) json.write(bench::json_path(cli, "bench_prune_engine.json"));

  std::cout << "\noverall fast-mode speedup: " << speedup << "x ("
            << (speedup >= 3.0 ? "PASS" : "FAIL") << " >= 3x), deterministic bit-identical: "
            << (all_identical ? "PASS" : "FAIL")
            << ", fast traces certified: " << (all_valid ? "PASS" : "FAIL")
            << ", spectral kernel >= 1.5x: " << (kernel_pass ? "PASS" : "FAIL")
            << ", filtered k=4 >= " << min_filtered << "x: " << (filtered_pass ? "PASS" : "FAIL")
            << "\n";
  return (speedup >= 3.0 && all_identical && all_valid && kernel_pass && filtered_pass) ? 0 : 1;
}
