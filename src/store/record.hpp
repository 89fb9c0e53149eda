// Binary codec for stored campaign cells (DESIGN.md §11).
//
// A cell record is the serialized result of ONE campaign job — a single
// (scenario, rep) repetition, one independent sweep point, or a whole
// monotone sweep chain — as a vector of ScenarioRuns.  The encoding is a
// flat little-endian byte string: doubles round-trip by bit pattern and
// VertexSets by their packed words, so a decoded run is field-for-field
// identical to the computed one and the campaign report built from it is
// BYTE-identical (the store's core contract).
//
// Two replay-sized fields are deliberately not stored and come back
// empty: prune.culled (the per-iteration cull trace) and
// expansion->witness (the bracket's cut witness).  Nothing in the report
// payload or the table surfaces reads them, the verify_trace metric is
// computed (and its verdict stored) BEFORE commit, and dropping them
// keeps records proportional to the survivor masks, not to the cull
// history.
//
// decode_runs is total: any malformed input — short buffer, unknown
// format, absurd lengths, bad mask padding — returns nullopt, never
// throws and never crashes.  The store treats that as a cache miss and
// the campaign recomputes the cell.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/runner.hpp"

namespace fne {

/// Bump when the record byte layout changes.  This is covered by the
/// store's file-level schema version (result_store.hpp), which any layout
/// change must also bump; the in-record format field is defense in depth
/// against mixing layouts inside one log.
inline constexpr std::uint32_t kCellRecordFormat = 1;

[[nodiscard]] std::string encode_runs(std::span<const ScenarioRun> runs);
[[nodiscard]] std::optional<std::vector<ScenarioRun>> decode_runs(std::string_view payload);

/// A measured-α record (store/key.hpp store_alpha_key) holds α's exact
/// bits as "%a" hexfloat text.  decode_alpha is total: it returns nullopt
/// unless the payload is exactly what encode_alpha writes for some finite
/// α > 0, so a damaged record degrades to measuring α again.
[[nodiscard]] std::string encode_alpha(double alpha);
[[nodiscard]] std::optional<double> decode_alpha(std::string_view payload);

}  // namespace fne
