#include "store/record.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "store/codec.hpp"

namespace fne {

namespace {

// Count ceilings for decode (size/length ceilings live in codec.hpp): a
// record claiming more than these is corrupt, not big.
constexpr std::uint32_t kMaxRuns = 1u << 20;
constexpr std::uint32_t kMaxMetrics = 1u << 12;

void encode_engine(ByteWriter& w, const EngineStats& st) {
  w.u64(st.runs);
  w.u64(st.iterations);
  w.u64(st.eigensolves);
  w.u64(st.stale_sweeps);
  w.u64(st.stale_sweep_hits);
  w.u64(st.disconnected_culls);
  w.u64(st.relabel_bfs_calls);
  w.u64(st.relabel_bfs_vertices);
}

EngineStats decode_engine(ByteReader& r) {
  EngineStats st;
  st.runs = r.u64();
  st.iterations = r.u64();
  st.eigensolves = r.u64();
  st.stale_sweeps = r.u64();
  st.stale_sweep_hits = r.u64();
  st.disconnected_culls = r.u64();
  st.relabel_bfs_calls = r.u64();
  st.relabel_bfs_vertices = r.u64();
  return st;
}

void encode_run(ByteWriter& w, const ScenarioRun& run) {
  w.i32(run.repetition);
  w.u64(run.fault_seed);
  w.u64(run.finder_seed);
  w.u64(run.faults);
  w.f64(run.threshold);
  w.f64(run.millis);
  w.mask(run.alive);
  w.mask(run.prune.survivors);
  w.u64(run.prune.total_culled);
  w.i32(run.prune.iterations);
  w.u64(run.fragmentation.largest);
  w.f64(run.fragmentation.gamma);
  w.u64(run.fragmentation.num_components);
  w.u32(static_cast<std::uint32_t>(run.fragmentation.sizes_desc.size()));
  for (const vid s : run.fragmentation.sizes_desc) w.u64(s);
  w.u8(run.expansion.has_value() ? 1 : 0);
  if (run.expansion.has_value()) {
    w.f64(run.expansion->lower);
    w.f64(run.expansion->upper);
    w.u8(run.expansion->exact ? 1 : 0);
  }
  w.u8(run.trace.has_value() ? 1 : 0);
  if (run.trace.has_value()) {
    w.u8(run.trace->valid ? 1 : 0);
    w.i32(run.trace->failed_record);
    w.str(run.trace->reason);
  }
  w.u32(static_cast<std::uint32_t>(run.metrics.size()));
  for (const MetricRecord& m : run.metrics) {
    w.str(m.name);
    w.str(m.payload);
    w.str(m.brief);
  }
  encode_engine(w, run.engine);
}

[[nodiscard]] std::optional<ScenarioRun> decode_run(ByteReader& r) {
  ScenarioRun run;
  run.repetition = r.i32();
  run.fault_seed = r.u64();
  run.finder_seed = r.u64();
  run.faults = static_cast<vid>(r.u64());
  run.threshold = r.f64();
  run.millis = r.f64();
  auto alive = r.mask();
  auto survivors = r.mask();
  if (!alive.has_value() || !survivors.has_value()) return std::nullopt;
  run.alive = std::move(*alive);
  run.prune.survivors = std::move(*survivors);
  run.prune.total_culled = static_cast<vid>(r.u64());
  run.prune.iterations = r.i32();
  run.fragmentation.largest = static_cast<vid>(r.u64());
  run.fragmentation.gamma = r.f64();
  run.fragmentation.num_components = static_cast<std::size_t>(r.u64());
  const std::uint32_t sizes = r.u32();
  if (!r.ok() || sizes > kCodecMaxUniverse) return std::nullopt;
  run.fragmentation.sizes_desc.reserve(sizes);
  for (std::uint32_t i = 0; i < sizes; ++i) {
    run.fragmentation.sizes_desc.push_back(static_cast<vid>(r.u64()));
  }
  if (r.u8() != 0) {
    ExpansionBracket bracket;
    bracket.lower = r.f64();
    bracket.upper = r.f64();
    bracket.exact = r.u8() != 0;
    run.expansion = bracket;
  }
  if (r.u8() != 0) {
    TraceVerification trace;
    trace.valid = r.u8() != 0;
    trace.failed_record = r.i32();
    trace.reason = r.str();
    run.trace = std::move(trace);
  }
  const std::uint32_t metrics = r.u32();
  if (!r.ok() || metrics > kMaxMetrics) return std::nullopt;
  run.metrics.reserve(metrics);
  for (std::uint32_t i = 0; i < metrics; ++i) {
    MetricRecord m;
    m.name = r.str();
    m.payload = r.str();
    m.brief = r.str();
    run.metrics.push_back(std::move(m));
  }
  run.engine = decode_engine(r);
  if (!r.ok()) return std::nullopt;
  return run;
}

}  // namespace

std::string encode_runs(std::span<const ScenarioRun> runs) {
  ByteWriter w;
  w.u32(kCellRecordFormat);
  w.u32(static_cast<std::uint32_t>(runs.size()));
  for (const ScenarioRun& run : runs) encode_run(w, run);
  return w.take();
}

std::optional<std::vector<ScenarioRun>> decode_runs(std::string_view payload) {
  ByteReader r(payload);
  if (r.u32() != kCellRecordFormat) return std::nullopt;
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxRuns) return std::nullopt;
  std::vector<ScenarioRun> runs;
  runs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto run = decode_run(r);
    if (!run.has_value()) return std::nullopt;
    runs.push_back(std::move(*run));
  }
  // Trailing garbage means the record is not what the encoder wrote.
  if (!r.at_end()) return std::nullopt;
  return runs;
}

std::string encode_alpha(double alpha) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", alpha);
  return buf;
}

std::optional<double> decode_alpha(std::string_view payload) {
  if (payload.empty() || payload.size() >= 48) return std::nullopt;
  const std::string text(payload);  // strtod needs the terminator
  char* end = nullptr;
  const double alpha = std::strtod(text.c_str(), &end);
  // Canonical only: re-encoding must give the payload back, which also
  // rejects leading blanks, decimal spellings and trailing bytes.
  if (end != text.c_str() + text.size() || !std::isfinite(alpha) || alpha <= 0.0 ||
      encode_alpha(alpha) != payload) {
    return std::nullopt;
  }
  return alpha;
}

}  // namespace fne
