#include "api/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/embedding.hpp"
#include "analysis/fragmentation.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "core/traversal.hpp"
#include "expansion/bracket.hpp"
#include "prune/verify.hpp"
#include "span/compact_sets.hpp"
#include "span/mesh_span.hpp"
#include "span/span.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "topology/mesh.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fne {

namespace {

/// Same declared-params hygiene as the other registries.
void check_declared(const MetricEntry& entry, const Params& params) {
  for (const auto& [key, value] : params.values()) {
    const bool known = std::any_of(entry.params.begin(), entry.params.end(),
                                   [&](const ParamSpec& s) { return s.key == key; });
    if (!known) {
      std::string declared;
      for (const ParamSpec& s : entry.params) {
        if (!declared.empty()) declared += ", ";
        declared += s.key;
      }
      FNE_REQUIRE(false, "metric '" + entry.name + "' has no param '" + key +
                             "' (declared: " + (declared.empty() ? "none" : declared) + ")");
    }
  }
}

/// Short fixed-point rendering for table briefs (payloads carry the full
/// 12-digit values; briefs are for humans).
[[nodiscard]] std::string brief_num(double v, int digits = 3) {
  std::string s = std::to_string(v);
  const std::size_t dot = s.find('.');
  if (dot != std::string::npos) s = s.substr(0, dot + 1 + static_cast<std::size_t>(digits));
  return s;
}

[[nodiscard]] MetricRecord record(const std::string& name, const JsonObject& payload,
                                  std::string brief) {
  return MetricRecord{name, payload.dump(), std::move(brief)};
}

[[nodiscard]] MetricRecord undefined_record(const std::string& name, const char* why) {
  JsonObject obj;
  obj.put("defined", false).put("why", why);
  return record(name, obj, "-");
}

/// Shared spectral_mode/filter_degree param handling for the two spectral
/// metrics (DESIGN.md §10).  validate_spectral_params runs at campaign
/// parse time via MetricEntry::validate; accel_from_params re-parses at
/// compute time and fills the operator-specific Gershgorin bound.
void validate_spectral_params(const Params& params) {
  (void)spectral_mode_from_string(params.get_str("spectral_mode", "auto"));
  FNE_REQUIRE(params.get_int("filter_degree", 0) >= 0, "filter_degree must be >= 0");
}

[[nodiscard]] SpectralAccel accel_from_params(const Params& params, const SubCsr& sub) {
  SpectralAccel accel;
  accel.mode = spectral_mode_from_string(params.get_str("spectral_mode", "auto"));
  accel.filter_degree = static_cast<int>(params.get_int("filter_degree", 0));
  accel.op_upper_bound = gershgorin_upper_bound(sub);
  return accel;
}

/// Smallest k nontrivial Laplacian eigenvalues over a prebuilt compact
/// operator (host assumed connected), via ONE blocked solve — the k >= 2
/// consumer the blocked kernel exists for.
[[nodiscard]] LanczosResult host_spectrum(const SubCsrLaplacian& lap, int k,
                                          std::uint64_t seed, const SpectralAccel& accel) {
  BlockLanczosOptions opts;
  opts.num_eigenpairs = k;
  opts.tolerance = 1e-8;
  opts.seed = seed;
  opts.accel = accel;
  const std::vector<std::vector<double>> defl{std::vector<double>(lap.dim(), 1.0)};
  return lanczos_smallest_block(
      [&lap](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); },
      lap.dim(), defl, opts);
}

// ---------------------------------------------------------------------------
// Builtin metrics
// ---------------------------------------------------------------------------

[[nodiscard]] MetricRecord metric_fragmentation(const MetricContext& ctx, const Params&) {
  const FragmentationProfile p = fragmentation_profile(ctx.graph, ctx.run.prune.survivors);
  JsonObject obj;
  obj.put("largest", static_cast<std::uint64_t>(p.largest))
      .put("gamma", p.gamma)
      .put("components", static_cast<std::uint64_t>(p.num_components));
  return record("fragmentation", obj, "gamma " + brief_num(p.gamma));
}

[[nodiscard]] MetricRecord metric_expansion_bracket(const MetricContext& ctx,
                                                    const Params& params) {
  if (ctx.run.prune.survivors.count() < 2) {
    return undefined_record("expansion_bracket", "needs >= 2 survivors");
  }
  BracketOptions opts;
  opts.exact_limit = static_cast<vid>(params.get_int("exact_limit", 14));
  opts.seed = ctx.seed;
  const ExpansionBracket b =
      expansion_bracket(ctx.graph, ctx.run.prune.survivors, ctx.scenario.prune.kind, opts);
  JsonObject obj;
  obj.put("defined", true).put("lower", b.lower).put("upper", b.upper).put("exact", b.exact);
  // Built by append: the equivalent operator+ chain trips GCC 12's bogus
  // -Wrestrict diagnostic (PR 105329).
  std::string brief = "[";
  brief += brief_num(b.lower);
  brief += ",";
  brief += brief_num(b.upper);
  brief += "]";
  return record("expansion_bracket", obj, std::move(brief));
}

[[nodiscard]] MetricRecord metric_verify_trace(const MetricContext& ctx, const Params&) {
  const TraceVerification t = verify_prune_trace(ctx.graph, ctx.run.alive, ctx.run.prune,
                                                 ctx.scenario.prune.kind, ctx.run.threshold);
  JsonObject obj;
  obj.put("valid", t.valid).put("failed_record", t.failed_record);
  return record("verify_trace", obj, t.valid ? "valid" : "INVALID");
}

[[nodiscard]] MetricRecord metric_mesh_span(const MetricContext& ctx, const Params& params) {
  // A config error, not a data degeneracy: mesh_span on a topology
  // without mesh structure (or on a torus, where Lemma 3.7 fails — see
  // span/mesh_span.hpp) should abort the campaign loudly.
  const Mesh mesh = mesh_for(ctx.scenario.topology.name, ctx.scenario.topology.params);
  FNE_REQUIRE(!mesh.wraps(),
              "metric 'mesh_span': Lemma 3.7 does not extend to tori (see span/mesh_span.hpp); "
              "use a 'mesh' topology");
  const vid n = mesh.num_vertices();
  const auto samples = static_cast<int>(params.get_int("samples", 24));
  FNE_REQUIRE(samples >= 1, "metric 'mesh_span': samples must be >= 1");
  const bool exact = params.get_bool("exact", n <= kCompactEnumLimit);

  JsonObject obj;
  obj.put("n", static_cast<std::uint64_t>(n));
  std::string brief;
  if (exact) {
    const SpanResult r = exact_span(mesh.graph());
    obj.put("exact_span", r.span)
        .put("exact_sets", r.sets_examined)
        .put("exact_bound_ok", r.span <= 2.0 + 1e-9);
    brief = "span " + brief_num(r.span, 2);
  }

  // Theorem 3.6's own construction on sampled compact sets, plus the
  // Lemma 3.7 connectivity check (E6's parts (b) and (c)).
  Rng rng(ctx.seed);
  int produced = 0;
  int lemma_ok = 0;
  double max_ratio = 0.0;
  vid max_boundary = 0;
  for (int s = 0; s < samples; ++s) {
    const vid target = 2 + static_cast<vid>(rng.uniform(std::max<vid>(n / 3, 1)));
    const VertexSet u = sample_compact_set(mesh.graph(), target, rng.next());
    if (u.empty()) continue;
    ++produced;
    if (virtual_boundary_connected(mesh, u)) ++lemma_ok;
    const ConstructiveSpanTree tree = mesh_boundary_span_tree(mesh, u);
    max_ratio = std::max(max_ratio, tree.ratio);
    max_boundary = std::max(max_boundary, tree.boundary_size);
  }
  obj.put("sampled_sets", produced)
      .put("lemma37_ok", lemma_ok)
      .put("max_tree_ratio", max_ratio)
      .put("max_boundary", static_cast<std::uint64_t>(max_boundary))
      .put("tree_bound_ok", max_ratio <= 2.0 + 1e-9);
  if (brief.empty()) brief = "ratio " + brief_num(max_ratio, 2) + "<=2";
  return record("mesh_span", obj, brief);
}

[[nodiscard]] MetricRecord metric_span_estimate(const MetricContext& ctx, const Params& params) {
  SpanEstimateOptions opts;
  opts.samples_per_size = static_cast<int>(params.get_int("samples", 8));
  FNE_REQUIRE(opts.samples_per_size >= 1, "metric 'span_estimate': samples must be >= 1");
  opts.seed = ctx.seed;
  const std::string fractions = params.get_str("fractions", "0.05,0.1,0.2,0.35,0.5");
  opts.size_fractions = parse_double_list(fractions);
  FNE_REQUIRE(!opts.size_fractions.empty(),
              "metric 'span_estimate': fractions must be a non-empty list");
  const SpanResult r = estimate_span(ctx.graph, opts);
  JsonObject obj;
  obj.put("span", r.span)
      .put("sets_examined", r.sets_examined)
      .put("exact", r.exact)
      .put("worst_boundary", static_cast<std::uint64_t>(r.worst_boundary))
      .put("worst_tree_nodes", static_cast<std::uint64_t>(r.worst_tree_nodes));
  return record("span_estimate", obj, "sigma~" + brief_num(r.span, 2));
}

[[nodiscard]] MetricRecord metric_embedding_quality(const MetricContext& ctx,
                                                    const Params& params) {
  const auto spectral_dims = static_cast<int>(params.get_int("spectral_dims", 2));
  FNE_REQUIRE(spectral_dims >= 0, "metric 'embedding_quality': spectral_dims must be >= 0");
  if (ctx.run.prune.survivors.empty()) {
    return undefined_record("embedding_quality", "empty survivor set");
  }
  // The host is the largest surviving component: the paper's emulation
  // story embeds the fault-free guest into the usable part of the
  // survivor, and prune output can legitimately be shattered.
  const VertexSet host = largest_component(ctx.graph, ctx.run.prune.survivors);
  const SelfEmbedding e = embed_into_survivors(ctx.graph, host);
  JsonObject obj;
  obj.put("defined", true)
      .put("host", static_cast<std::uint64_t>(host.count()))
      .put("host_fraction",
           static_cast<double>(host.count()) / static_cast<double>(ctx.graph.num_vertices()))
      .put("load", static_cast<std::uint64_t>(e.quality.load))
      .put("congestion", static_cast<std::uint64_t>(e.quality.congestion))
      .put("dilation", static_cast<std::uint64_t>(e.quality.dilation))
      .put("average_dilation", e.quality.average_dilation)
      .put("slowdown", static_cast<std::uint64_t>(e.quality.slowdown()));
  // Spectral coordinates of the host: the k smallest nontrivial
  // Laplacian eigenvalues in ONE blocked solve — the geometry the host
  // offers a k-dimensional guest, and λ₂'s decay under growing faults is
  // the emulation-slowdown early warning.
  if (spectral_dims >= 1 && host.count() >= static_cast<vid>(spectral_dims) + 2) {
    SubCsr sub;
    sub.build(ctx.graph, host);
    const SubCsrLaplacian lap(sub);
    const LanczosResult spec =
        host_spectrum(lap, spectral_dims, ctx.seed, accel_from_params(params, sub));
    obj.put_numbers("spectral", spec.values).put("spectral_converged", spec.converged);
  }
  return record("embedding_quality", obj,
                "slowdown " + std::to_string(e.quality.slowdown()));
}

[[nodiscard]] MetricRecord metric_expander_certificate(const MetricContext& ctx,
                                                       const Params& params) {
  const auto eigenpairs = static_cast<int>(params.get_int("eigenpairs", 2));
  FNE_REQUIRE(eigenpairs >= 1, "metric 'expander_certificate': eigenpairs must be >= 1");
  if (ctx.run.prune.survivors.count() < 3) {
    return undefined_record("expander_certificate", "needs >= 3 survivors");
  }
  const VertexSet comp = largest_component(ctx.graph, ctx.run.prune.survivors);
  if (comp.count() < 3) {
    return undefined_record("expander_certificate", "largest component < 3");
  }

  // Bottom of the spectrum (λ₂..λ_{k+1}) in one blocked solve; top (λ_max)
  // via the k = 1 kernel on -L over the SAME compact operator.  λ₂/2 is
  // the certified Cheeger-type edge expansion lower bound for ANY graph;
  // the mixing-lemma fields only exist when the component is regular.
  SubCsr sub;
  sub.build(ctx.graph, comp);
  const SubCsrLaplacian lap(sub);
  const SpectralAccel accel = accel_from_params(params, sub);
  const LanczosResult bottom = host_spectrum(lap, eigenpairs, ctx.seed, accel);
  if (bottom.values.empty()) {
    return undefined_record("expander_certificate", "eigensolve failed");
  }
  LanczosOptions top_opts;
  top_opts.num_eigenpairs = 1;
  top_opts.seed = ctx.seed + 1;
  top_opts.tolerance = 1e-8;
  top_opts.max_iterations = 400;
  // The -L operator's spectrum lives in [-gershgorin, 0]: its upper bound
  // is 0, and a useful shift must sit below -lambda_max (see
  // spectral/expander_certificate.cpp for the same construction).
  top_opts.accel = accel;
  top_opts.accel.op_upper_bound = 0.0;
  if (resolve_spectral_mode(top_opts.accel, lap.dim()) == SpectralMode::kShiftInvert) {
    top_opts.accel.shift = -(gershgorin_upper_bound(sub) + 1.0);
  }
  const LanczosResult top = lanczos_smallest(
      [&lap](const std::vector<double>& x, std::vector<double>& y) {
        lap.apply(x, y);
        for (auto& v : y) v = -v;
      },
      lap.dim(), {}, top_opts);
  const double lambda2 = bottom.values.front();
  const double lambda_max = top.values.empty() ? 0.0 : -top.values.front();

  JsonObject obj;
  obj.put("defined", true)
      .put("component", static_cast<std::uint64_t>(comp.count()))
      .put_numbers("lambdas", bottom.values)
      .put("lambda_max", lambda_max)
      .put("edge_expansion_lower", lambda2 / 2.0)
      .put("converged", bottom.converged && top.converged);

  // d-regularity within the component unlocks the expander mixing lemma
  // (spectral/expander_certificate.hpp): adjacency spectrum = d - L
  // spectrum.
  vid degree = kInvalidVertex;
  bool regular = true;
  comp.for_each([&](vid v) {
    vid d = 0;
    for (vid w : ctx.graph.neighbors(v)) {
      if (comp.test(w)) ++d;
    }
    if (degree == kInvalidVertex) degree = d;
    regular = regular && d == degree;
  });
  obj.put("regular", regular);
  if (regular) {
    const double d = static_cast<double>(degree);
    const double lambda_mixing = std::max(std::fabs(d - lambda2), std::fabs(d - lambda_max));
    obj.put("degree", d)
        .put("lambda_mixing", lambda_mixing)
        .put("is_ramanujan", lambda_mixing <= 2.0 * std::sqrt(std::max(d - 1.0, 0.0)) + 1e-6);
  }
  return record("expander_certificate", obj, "h>=" + brief_num(lambda2 / 2.0));
}

}  // namespace

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::add(MetricEntry entry) {
  FNE_REQUIRE(!entry.name.empty(), "metric entry needs a name");
  FNE_REQUIRE(static_cast<bool>(entry.compute), "metric '" + entry.name + "' needs a compute fn");
  entries_[entry.name] = std::move(entry);
}

bool MetricsRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

const MetricEntry& MetricsRegistry::at(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [n, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    FNE_REQUIRE(false, "unknown metric '" + name + "' (registered: " + known + ")");
  }
  return it->second;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

void MetricsRegistry::check(const std::string& name, const Params& params) const {
  const MetricEntry& entry = at(name);
  check_declared(entry, params);
  if (entry.validate) entry.validate(params);
}

MetricRecord MetricsRegistry::compute(const std::string& name, const MetricContext& ctx,
                                      const Params& params) const {
  const MetricEntry& entry = at(name);
  check_declared(entry, params);
  if (entry.validate) entry.validate(params);
  MetricRecord out = entry.compute(ctx, params);
  out.name = name;
  return out;
}

MetricsRegistry::MetricsRegistry() {
  add({"fragmentation",
       "fragmentation profile of the survivor set (largest component, gamma)",
       {},
       metric_fragmentation,
       {}});
  add({"expansion_bracket",
       "certified expansion bracket of the survivor set (costly: extra cut searches)",
       {{"exact_limit", "14", "exact enumeration cap"}},
       metric_expansion_bracket,
       {},
       /*split_job=*/true});
  add({"verify_trace",
       "replay-verify the prune trace (prune/verify.hpp certification)",
       {},
       metric_verify_trace,
       {}});
  add({"mesh_span",
       "Theorem 3.6 / Lemma 3.7 on the scenario's mesh: constructive span tree on sampled "
       "compact sets, exact span on tiny meshes",
       {{"samples", "24", "sampled compact sets"},
        {"exact", "auto", "exhaustive exact span (default: n <= 24)"}},
       metric_mesh_span,
       {}});
  add({"span_estimate",
       "sampled span estimate of the fault-free topology (paper Eq. 1, the §4 conjecture)",
       {{"samples", "8", "samples per size fraction"},
        {"fractions", "0.05,0.1,0.2,0.35,0.5", "target sizes as fractions of n"}},
       metric_span_estimate,
       {},
       /*split_job=*/true});
  add({"embedding_quality",
       "load/congestion/dilation of embedding the fault-free guest into the largest "
       "surviving component, plus its blocked-Lanczos spectral profile",
       {{"spectral_dims", "2", "smallest nontrivial Laplacian eigenvalues to report (0: skip)"},
        {"spectral_mode", "auto", "eigensolver: plain|filtered|shift_invert|auto"},
        {"filter_degree", "0", "Chebyshev degree for filtered solves (0: auto)"}},
       metric_embedding_quality,
       validate_spectral_params});
  add({"expander_certificate",
       "spectral expansion certificate of the largest surviving component (Cheeger lower "
       "bound; mixing-lemma fields when regular)",
       {{"eigenpairs", "2", "bottom eigenpairs from one blocked solve"},
        {"spectral_mode", "auto", "eigensolver: plain|filtered|shift_invert|auto"},
        {"filter_degree", "0", "Chebyshev degree for filtered solves (0: auto)"}},
       metric_expander_certificate,
       validate_spectral_params});
}

}  // namespace fne
