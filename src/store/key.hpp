// Content keys for stored campaign cells (DESIGN.md §11).
//
// A cell key canonically names everything the cell's result is a pure
// function of: schema version, topology + params, the derived build seed,
// the EFFECTIVE fault spec (after any sweep-point override), prune knobs
// (α/ε in hexfloat so the key survives formatting round-trips), the full
// cut-finder configuration, the metric-request set, the scenario seed and
// repetition — and, for a monotone chain cell, the swept param and value
// list (the chain is one job, so the whole chain is one cell).
//
// Keys are human-readable on purpose: the store hashes them for its
// index but writes them in full into every record and verifies equality
// on load, so a 64-bit index collision degrades to a miss, never to a
// wrong result.  Anything that changes what a cell computes MUST change
// its key — that is enforced socially by routing every input through
// this one function, and structurally by the schema field, which bumps
// with kStoreSchemaVersion.
#pragma once

#include <string>

#include "api/scenario.hpp"

namespace fne {

struct SweepSpec;

/// The canonical key for one campaign cell.  `effective_fault` is the
/// job's fault spec (sweep points override one param of the entry's
/// fault); `monotone` non-null marks a chain cell and appends the swept
/// values.  Deterministic: same inputs -> same bytes, on any platform.
[[nodiscard]] std::string store_cell_key(const Scenario& scenario,
                                         const FaultSpec& effective_fault, int rep,
                                         const SweepSpec* monotone = nullptr);

/// The key of a scenario's measured-α record (DESIGN.md §11): everything
/// ScenarioRunner::alpha() measures from — the fault-free graph (topology,
/// params, cache salt, build seed), the kind, the bracket's exact-search
/// limit and its seed — and nothing it does not, so every entry of every
/// campaign measuring on one graph shares one record.
[[nodiscard]] std::string store_alpha_key(const Scenario& scenario);

}  // namespace fne
