// Result-store contracts (DESIGN.md §11): record codec round-trips and
// total decode, content-key shape, log persistence and first-write-wins,
// every corruption path degrading to recompute (torn tail, checksum
// flip, foreign file, unknown schema version), cross-process dedup via
// tail rescans, and the campaign-level story — the deterministic payload
// is byte-identical for disabled / cold / warm / mixed store state at
// any thread count, and a killed-then-resumed campaign recomputes only
// the missing cells.  α and ε in cell records: they round-trip with
// their exact bits, the decoder rejects values no prune can use, a
// partly served entry computes its missing cells with the served bits,
// and the cells are the only records a campaign writes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "api/runner.hpp"
#include "core/csr_file.hpp"
#include "core/graph.hpp"
#include "store/key.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the test tmpdir.
[[nodiscard]] std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fne_store_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

[[nodiscard]] fs::path log_of(const std::string& dir) {
  return fs::path(dir) / "cells.log";
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario small_scenario() {
  Scenario s;
  s.name = "store-unit";
  s.topology = {"mesh", Params{{"side", "10"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.2"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 0.2;
  s.metrics.verify_trace = true;
  s.metrics.expansion = true;
  s.seed = 404;
  return s;
}

TEST(CellRecord, RoundTripsAComputedRunFieldForField) {
  ScenarioRunner runner(small_scenario());
  const ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  const std::string payload = encode_runs({&run, 1});
  const auto decoded = decode_runs(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  const ScenarioRun& d = decoded->front();
  EXPECT_EQ(d.repetition, run.repetition);
  EXPECT_EQ(d.fault_seed, run.fault_seed);
  EXPECT_EQ(d.finder_seed, run.finder_seed);
  EXPECT_EQ(d.faults, run.faults);
  EXPECT_TRUE(d.alive == run.alive);
  EXPECT_TRUE(d.prune.survivors == run.prune.survivors);
  EXPECT_EQ(d.prune.total_culled, run.prune.total_culled);
  EXPECT_EQ(d.prune.iterations, run.prune.iterations);
  // Doubles round-trip by bit pattern, not by formatting.
  EXPECT_EQ(d.alpha, run.alpha);
  EXPECT_EQ(d.epsilon, run.epsilon);
  EXPECT_EQ(d.threshold, run.threshold);
  EXPECT_EQ(d.millis, run.millis);
  EXPECT_EQ(d.fragmentation.largest, run.fragmentation.largest);
  EXPECT_EQ(d.fragmentation.gamma, run.fragmentation.gamma);
  EXPECT_EQ(d.fragmentation.sizes_desc, run.fragmentation.sizes_desc);
  ASSERT_EQ(d.expansion.has_value(), run.expansion.has_value());
  if (run.expansion.has_value()) {
    EXPECT_EQ(d.expansion->lower, run.expansion->lower);
    EXPECT_EQ(d.expansion->upper, run.expansion->upper);
    EXPECT_EQ(d.expansion->exact, run.expansion->exact);
  }
  ASSERT_TRUE(d.trace.has_value());
  EXPECT_EQ(d.trace->valid, run.trace->valid);
  EXPECT_EQ(d.engine.runs, run.engine.runs);
  EXPECT_EQ(d.engine.iterations, run.engine.iterations);
  EXPECT_EQ(d.engine.eigensolves, run.engine.eigensolves);
}

TEST(CellRecord, DecodeIsTotalOnMalformedInput) {
  ScenarioRunner runner(small_scenario());
  const ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  const std::string payload = encode_runs({&run, 1});

  EXPECT_FALSE(decode_runs("").has_value());
  EXPECT_FALSE(decode_runs("garbage").has_value());
  // Every strict prefix is a short read somewhere, never a crash.
  for (std::size_t cut : {std::size_t{1}, std::size_t{7}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_FALSE(decode_runs(std::string_view(payload).substr(0, cut)).has_value())
        << "prefix of " << cut << " bytes must fail to decode";
  }
  // Trailing garbage is rejected too (the frame length said otherwise).
  EXPECT_FALSE(decode_runs(payload + "x").has_value());
  // Unknown format word.
  std::string wrong_format = payload;
  wrong_format[0] = static_cast<char>(0x7F);
  EXPECT_FALSE(decode_runs(wrong_format).has_value());
}

TEST(CellKey, NamesEveryInputAndSeparatesCells) {
  const Scenario s = small_scenario();
  const std::string key = store_cell_key(s, s.fault, 0);
  EXPECT_EQ(key.find("fne-cell|schema=1|"), 0u);
  EXPECT_NE(key.find("|topo=mesh|"), std::string::npos);
  EXPECT_NE(key.find("|fault=random|"), std::string::npos);
  EXPECT_NE(key.find("|rep=0"), std::string::npos);

  EXPECT_NE(key, store_cell_key(s, s.fault, 1)) << "rep is part of the cell identity";
  Scenario other_seed = s;
  other_seed.seed = 405;
  EXPECT_NE(key, store_cell_key(other_seed, other_seed.fault, 0));
  Scenario other_metrics = s;
  other_metrics.metrics.expansion = false;
  EXPECT_NE(key, store_cell_key(other_metrics, other_metrics.fault, 0));
  FaultSpec heavier = s.fault;
  heavier.params.set("p", 0.3);
  EXPECT_NE(key, store_cell_key(s, heavier, 0));

  const SweepSpec sweep{"p", {0.1, 0.2}, SweepMode::kMonotone};
  const std::string chain_key = store_cell_key(s, s.fault, 0, &sweep);
  EXPECT_NE(chain_key, key);
  EXPECT_NE(chain_key.find("|sweep=p:monotone:"), std::string::npos);
  EXPECT_EQ(chain_key, store_cell_key(s, s.fault, 0, &sweep)) << "keys are deterministic";
}

// ---------------------------------------------------------------------------
// ResultStore file behavior
// ---------------------------------------------------------------------------

TEST(ResultStore, RoundTripsAndPersistsAcrossReopen) {
  const std::string dir = fresh_dir("roundtrip");
  {
    ResultStore store(dir);
    EXPECT_FALSE(store.load("k1").has_value());
    store.put("k1", "payload-one");
    store.put("k2", std::string("\x00\xff binary \n ok", 15));
    EXPECT_EQ(store.load("k1").value_or(""), "payload-one");
    const StoreStats st = store.stats();
    EXPECT_EQ(st.records, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.bytes_committed, 11u + 15u);
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 2u);
  EXPECT_EQ(reopened.load("k1").value_or(""), "payload-one");
  EXPECT_EQ(reopened.load("k2").value_or(""), std::string("\x00\xff binary \n ok", 15));
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
}

TEST(ResultStore, FirstWriteWinsOnDuplicateKeys) {
  const std::string dir = fresh_dir("dupes");
  ResultStore store(dir);
  store.put("k", "first");
  const std::uint64_t committed = store.stats().bytes_committed;
  store.put("k", "second");
  EXPECT_EQ(store.stats().bytes_committed, committed) << "duplicate put must not append";
  EXPECT_EQ(store.load("k").value_or(""), "first");
}

TEST(ResultStore, TruncatedTailIsDroppedAndTheCellRecomputable) {
  const std::string dir = fresh_dir("torn");
  {
    ResultStore store(dir);
    store.put("k1", "intact-payload");
    store.put("k2", "doomed-payload");
  }
  // Simulate a process killed mid-append: cut into k2's frame.
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, bytes.size() - 5));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 1u);
  EXPECT_GT(store.stats().truncated_bytes, 0u);
  EXPECT_EQ(store.load("k1").value_or(""), "intact-payload");
  EXPECT_FALSE(store.load("k2").has_value()) << "torn cell degrades to a miss";
  // The miss is recommittable, and the log is clean again afterwards.
  store.put("k2", "doomed-payload");
  EXPECT_EQ(store.load("k2").value_or(""), "doomed-payload");
  ResultStore again(dir);
  EXPECT_EQ(again.stats().records, 2u);
  EXPECT_EQ(again.stats().truncated_bytes, 0u);
}

TEST(ResultStore, ChecksumMismatchSkipsOnlyTheCorruptRecord) {
  const std::string dir = fresh_dir("checksum");
  std::uint64_t before_k2 = 0;
  {
    ResultStore store(dir);
    store.put("k1", "aaaa");
    before_k2 = fs::file_size(log_of(dir));
    store.put("k2", "bbbb");
    store.put("k3", "cccc");
  }
  // Flip one byte inside k2's payload (its frame starts at before_k2;
  // the payload's last byte is the last byte of the frame).
  std::string bytes = read_file(log_of(dir));
  const std::size_t flip = static_cast<std::size_t>(before_k2) + 24 + 2 + 4 - 1;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 2u);
  EXPECT_EQ(store.stats().corrupt_records, 1u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u) << "framing intact: nothing to truncate";
  EXPECT_EQ(store.load("k1").value_or(""), "aaaa");
  EXPECT_FALSE(store.load("k2").has_value());
  EXPECT_EQ(store.load("k3").value_or(""), "cccc") << "records after the bad one survive";
  store.put("k2", "bbbb");
  EXPECT_EQ(store.load("k2").value_or(""), "bbbb");
}

TEST(ResultStore, UnknownSchemaVersionRotatesAsideAndStartsFresh) {
  const std::string dir = fresh_dir("schema");
  {
    ResultStore store(dir);
    store.put("k", "old-world");
  }
  // Bump the on-disk version to something this build does not read.
  std::string bytes = read_file(log_of(dir));
  bytes[8] = 99;
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 0u) << "unknown schema degrades to recompute";
  EXPECT_FALSE(store.load("k").has_value());
  store.put("k", "new-world");
  EXPECT_EQ(store.load("k").value_or(""), "new-world");
  EXPECT_TRUE(fs::exists(fs::path(dir) / "cells.log.v99"))
      << "the unreadable log is preserved, not destroyed";
}

TEST(ResultStore, ForeignFileRotatesToBadAndStartsFresh) {
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  write_file(log_of(dir), "this is not a store log at all");
  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, 0u);
  store.put("k", "v");
  EXPECT_EQ(store.load("k").value_or(""), "v");
  EXPECT_TRUE(fs::exists(fs::path(dir) / "cells.log.bad"));
}

TEST(ResultStore, TwoStoresOnOneDirectoryDedupViaRefresh) {
  const std::string dir = fresh_dir("two-writers");
  ResultStore a(dir);
  ResultStore b(dir);
  a.put("ka", "from-a");
  EXPECT_FALSE(b.load("ka").has_value()) << "b has not rescanned yet";
  b.refresh();
  EXPECT_EQ(b.load("ka").value_or(""), "from-a");
  // b appends while a holds an older tail position; a's next put rescans
  // and picks b's record up without rewriting it.
  b.put("kb", "from-b");
  a.put("kc", "from-a-too");
  EXPECT_EQ(a.load("kb").value_or(""), "from-b");
  // Both race the same key: two frames may land, first wins everywhere.
  a.put("shared", "identical-bytes");
  b.put("shared", "identical-bytes");
  a.refresh();
  b.refresh();
  EXPECT_EQ(a.load("shared").value_or(""), "identical-bytes");
  EXPECT_EQ(b.load("shared").value_or(""), "identical-bytes");
  ResultStore fresh(dir);
  EXPECT_EQ(fresh.stats().records, 4u);
}

// ---------------------------------------------------------------------------
// Campaign through the store
// ---------------------------------------------------------------------------

/// Small campaign covering all three job kinds: independent repetitions,
/// a monotone chain (one cell), and independent sweep points.  6 jobs.
[[nodiscard]] Campaign store_campaign() {
  Campaign campaign;
  campaign.name = "store-determinism";
  {
    Scenario s;
    s.name = "reps";
    s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.25"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.fast = true;
    s.repetitions = 3;
    s.seed = 81;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "chain";
    s.topology = {"mesh", Params{{"side", "16"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;
    s.metrics.verify_trace = true;
    s.seed = 82;
    campaign.entries.push_back({s, SweepSpec{"p", {0.1, 0.2, 0.3}, SweepMode::kMonotone}});
  }
  {
    Scenario s;
    s.name = "points";
    s.topology = {"hypercube", Params{{"dims", "6"}}};
    s.fault = {"high_degree", Params{{"frac", "0.1"}}};
    s.prune.kind = ExpansionKind::Node;
    s.seed = 83;
    campaign.entries.push_back(
        {s, SweepSpec{"frac", {0.05, 0.15}, SweepMode::kIndependent}});
  }
  return campaign;
}

constexpr std::uint64_t kStoreCampaignJobs = 6;  // 3 reps + 1 chain + 2 points

TEST(CampaignStore, PayloadIsByteIdenticalDisabledColdWarmAtAnyThreadCount) {
  const std::string dir = fresh_dir("campaign-payload");
  CampaignRunner runner(store_campaign());
  const std::string reference = runner.run(2).to_json(/*include_timing=*/false);

  ResultStore store(dir);
  const CampaignReport cold = runner.run(2, &store);
  EXPECT_TRUE(cold.store_enabled);
  EXPECT_EQ(cold.store.hits, 0u);
  EXPECT_EQ(cold.store.misses, kStoreCampaignJobs);
  EXPECT_GT(cold.store.bytes_committed, 0u);
  EXPECT_EQ(cold.to_json(false), reference)
      << "store commits must not perturb the deterministic payload";

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const CampaignReport warm = runner.run(threads, &store);
    EXPECT_EQ(warm.store.hits, kStoreCampaignJobs);
    EXPECT_EQ(warm.store.misses, 0u);
    EXPECT_EQ(warm.to_json(false), reference)
        << "a fully store-served run must reproduce the payload byte for byte";
  }
  // Hit/miss telemetry lives in the timing payload only.
  EXPECT_EQ(cold.to_json(false).find("\"store\""), std::string::npos);
  EXPECT_NE(cold.to_json(true).find("\"store\""), std::string::npos);
}

TEST(CampaignStore, WarmRunPersistsAcrossProcessReopen) {
  const std::string dir = fresh_dir("campaign-reopen");
  CampaignRunner runner(store_campaign());
  std::string cold_payload;
  {
    ResultStore store(dir);
    cold_payload = runner.run(2, &store).to_json(false);
  }
  ResultStore reopened(dir);
  const CampaignReport warm = runner.run(2, &reopened);
  EXPECT_EQ(warm.store.hits, kStoreCampaignJobs);
  EXPECT_EQ(warm.store.misses, 0u);
  EXPECT_EQ(warm.to_json(false), cold_payload);
}

TEST(CampaignStore, MixedHitMissSplitStillReproducesThePayload) {
  const std::string dir = fresh_dir("campaign-mixed");
  Campaign full = store_campaign();
  Campaign first_only;
  first_only.name = full.name;
  first_only.entries.push_back(full.entries[0]);

  ResultStore store(dir);
  // Pre-commit only entry 0's cells (3 rep jobs)...
  (void)CampaignRunner(first_only).run(1, &store);
  // ...then the full campaign: those 3 hit, the other 3 compute.
  CampaignRunner runner(full);
  const CampaignReport mixed = runner.run(4, &store);
  EXPECT_EQ(mixed.store.hits, 3u);
  EXPECT_EQ(mixed.store.misses, kStoreCampaignJobs - 3u);
  EXPECT_EQ(mixed.to_json(false), runner.run(4).to_json(false));
}

TEST(CampaignStore, KilledCampaignResumesRecomputingOnlyMissingCells) {
  const std::string dir = fresh_dir("campaign-resume");
  CampaignRunner runner(store_campaign());
  std::string payload;
  {
    ResultStore store(dir);
    payload = runner.run(1, &store).to_json(false);
  }
  // Simulate a kill during the last commit: tear the final frame.
  const std::string bytes = read_file(log_of(dir));
  write_file(log_of(dir), bytes.substr(0, bytes.size() - 7));

  ResultStore store(dir);
  EXPECT_EQ(store.stats().records, kStoreCampaignJobs - 1u) << "every cell but the torn one";
  const CampaignReport resumed = runner.run(2, &store);
  EXPECT_EQ(resumed.store.hits, kStoreCampaignJobs - 1u)
      << "every previously committed cell must be served from the store";
  EXPECT_EQ(resumed.store.misses, 1u) << "only the torn cell recomputes";
  EXPECT_EQ(resumed.to_json(false), payload);
  // The store is whole again: a third run is all hits.
  const CampaignReport healed = runner.run(2, &store);
  EXPECT_EQ(healed.store.misses, 0u);
}

TEST(CampaignStore, CorruptRecordDegradesToRecomputeNotCrash) {
  const std::string dir = fresh_dir("campaign-corrupt");
  CampaignRunner runner(store_campaign());
  std::string payload;
  {
    ResultStore store(dir);
    payload = runner.run(1, &store).to_json(false);
  }
  // Flip a byte in the middle of the log: ONE record's checksum breaks.
  std::string bytes = read_file(log_of(dir));
  const std::size_t flip = bytes.size() / 2;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  const CampaignReport report = runner.run(2, &store);
  EXPECT_EQ(report.store.misses, 1u);
  EXPECT_EQ(report.store.hits, kStoreCampaignJobs - 1u);
  EXPECT_EQ(report.to_json(false), payload);
}

TEST(CampaignStore, TwoRunnersOnOneStoreDirDedup) {
  // Two campaign runs sharing one directory through separate store
  // objects (the two-process picture): the second store picks the first
  // run's cells up at refresh() and computes nothing.
  const std::string dir = fresh_dir("campaign-dedup");
  CampaignRunner runner(store_campaign());
  ResultStore a(dir);
  ResultStore b(dir);  // opened before a committed anything
  const std::string payload = runner.run(2, &a).to_json(false);
  const CampaignReport via_b = runner.run(2, &b);
  EXPECT_EQ(via_b.store.hits, kStoreCampaignJobs);
  EXPECT_EQ(via_b.store.misses, 0u);
  EXPECT_EQ(via_b.to_json(false), payload);
}

// ---------------------------------------------------------------------------
// α and ε in cell records
// ---------------------------------------------------------------------------

/// One entry that measures α (prune.alpha = 0) over `repetitions` cells.
[[nodiscard]] Campaign alpha_campaign(int repetitions) {
  Campaign campaign;
  campaign.name = "store-alpha";
  Scenario s;
  s.name = "measured";
  s.topology = {"hypercube", Params{{"dims", "6"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Node;
  s.repetitions = repetitions;
  s.seed = 91;
  campaign.entries.push_back({s, std::nullopt});
  return campaign;
}

/// store_campaign() plus a salted `file` entry and an explicit-ε entry:
/// reps, independent points, a monotone chain, measured and explicit α,
/// default ε on edge and node expansion, and an explicit ε.
[[nodiscard]] Campaign graph_free_campaign() {
  Campaign campaign = store_campaign();
  campaign.name = "store-graph-free";
  {
    Scenario s;
    s.name = "file";
    s.topology = {"file",
                  Params{{"path", std::string(FNE_REPO_DIR) + "/tests/data/mini_p2p.csr"}}};
    s.fault = {"random", Params{{"p", "0.25"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;  // disconnected: a measured alpha would be 0
    s.repetitions = 2;
    s.seed = 84;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "explicit-epsilon";
    s.topology = {"random_regular", Params{{"n", "64"}, {"degree", "4"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.25;
    s.prune.epsilon = 0.2;
    s.repetitions = 2;
    s.seed = 85;
    campaign.entries.push_back({s, std::nullopt});
  }
  return campaign;
}

/// Every key in a store log, in frame order.  A frame is a 24-byte
/// header (bytes 4-7: key length, 8-11: payload length, little-endian),
/// then the key, then the payload; the log starts with a 16-byte header.
[[nodiscard]] std::vector<std::string> log_keys(const std::string& dir) {
  const std::string bytes = read_file(log_of(dir));
  const auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t b = 4; b-- > 0;) v = (v << 8) | static_cast<unsigned char>(bytes[at + b]);
    return v;
  };
  std::vector<std::string> keys;
  for (std::size_t off = 16; off + 24 <= bytes.size();) {
    const std::uint32_t key_len = u32(off + 4);
    keys.push_back(bytes.substr(off + 24, key_len));
    off += 24 + key_len + u32(off + 8);
  }
  return keys;
}

[[nodiscard]] std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CellRecord, AlphaAndEpsilonRoundTripWithTheirExactBits) {
  ScenarioRunner runner(small_scenario());
  ScenarioRun run = runner.run_isolated(runner.scenario().fault, 0);
  EXPECT_EQ(run.alpha, 0.2);
  EXPECT_EQ(run.epsilon, 0.125) << "the edge default 1/(2*4) on a 2-d mesh";
  const std::pair<double, double> cases[] = {
      {run.alpha, run.epsilon},
      {1.0 / 3.0, std::nextafter(0.25, 1.0)},
      {1e-300, 4.9e-324},
      {4.9e-324, std::nextafter(1.0, 0.0)},
      {std::numeric_limits<double>::max(), 0.5}};
  for (const auto& [alpha, epsilon] : cases) {
    run.alpha = alpha;
    run.epsilon = epsilon;
    const auto decoded = decode_runs(encode_runs({&run, 1}));
    ASSERT_TRUE(decoded.has_value()) << alpha << " " << epsilon;
    EXPECT_EQ(bits(decoded->front().alpha), bits(alpha));
    EXPECT_EQ(bits(decoded->front().epsilon), bits(epsilon));
  }
}

TEST(CellRecord, DecodeRejectsAnAlphaOrEpsilonNoPruneCanUse) {
  ScenarioRunner runner(small_scenario());
  const ScenarioRun good = runner.run_isolated(runner.scenario().fault, 0);
  ASSERT_TRUE(decode_runs(encode_runs({&good, 1})).has_value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double alpha : {nan, inf, -inf, 0.0, -0.0, -0.25}) {
    ScenarioRun bad = good;
    bad.alpha = alpha;
    EXPECT_FALSE(decode_runs(encode_runs({&bad, 1})).has_value()) << "alpha " << alpha;
    // One bad run rejects a whole chain record.
    const std::vector<ScenarioRun> chain{good, bad};
    EXPECT_FALSE(decode_runs(encode_runs(chain)).has_value()) << "alpha " << alpha;
  }
  for (const double epsilon : {nan, inf, -inf, 0.0, -0.0, -0.5, 1.0, 1.5}) {
    ScenarioRun bad = good;
    bad.epsilon = epsilon;
    EXPECT_FALSE(decode_runs(encode_runs({&bad, 1})).has_value()) << "epsilon " << epsilon;
  }
}

TEST(CellKey, NamesEveryInputAlphaAndEpsilonDependOn) {
  // α is measured from the fault-free graph (topology, params, cache
  // salt, build seed) with the kind, the bracket's exact-search limit and
  // its seed; ε reads prune.epsilon, the kind and the graph's max degree.
  // Each moves the cell key, so a served cell carries the α and ε its
  // entry would compute.
  Scenario s = small_scenario();
  s.prune.alpha = 0.0;
  const std::string key = store_cell_key(s, s.fault, 0);
  EXPECT_NE(key.find("|build_seed=" + std::to_string(scenario_build_seed(s)) + "|"),
            std::string::npos);
  std::vector<Scenario> changed(7, s);
  changed[0].topology.name = "torus";
  changed[1].topology.params.set("side", std::string("11"));
  changed[2].seed = 405;  // moves the build seed and the bracket seed
  changed[3].prune.kind = ExpansionKind::Node;
  changed[4].metrics.bracket_exact_limit = 10;
  changed[5].prune.alpha = 0.25;
  changed[6].prune.epsilon = 0.25;
  std::vector<std::string> keys{key};
  for (const Scenario& c : changed) keys.push_back(store_cell_key(c, c.fault, 0));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
  }

  // Rewriting a file topology's CSR in place changes the key (the salt).
  const std::string path = (fs::path(::testing::TempDir()) / "fne_store_cell_key_salt.csr").string();
  CsrFile::write(path, Graph::from_edges(8, {{0, 1}, {1, 2}}));
  Scenario file = s;
  file.topology = {"file", Params{{"path", path}}};
  const std::string file_key = store_cell_key(file, file.fault, 0);
  EXPECT_NE(file_key.find("|topo_salt=" + path + "#"), std::string::npos);
  CsrFile::write(path, Graph::from_edges(8, {{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_NE(store_cell_key(file, file.fault, 0), file_key)
      << "a rewritten graph must not reuse its cells' alpha";
}

TEST(CellKey, FastModePrintsAllThreeFinderFields) {
  Scenario s = small_scenario();
  EXPECT_NE(store_cell_key(s, s.fault, 0).find(",warm:0,stale:0,early:0|"), std::string::npos);
  s.prune.finder.fast = true;
  EXPECT_NE(store_cell_key(s, s.fault, 0).find(",warm:1,stale:1,early:1|"), std::string::npos);
}

TEST(CampaignStore, PartlyServedEntryComputesItsMissingCellsWithTheServedBits) {
  // Rep 0's cell is planted with an α and an ε one ulp off the values
  // the entry measures and reads: only the record can have said them.
  Campaign campaign = alpha_campaign(3);
  Scenario& s = campaign.entries[0].scenario;
  s.prune.kind = ExpansionKind::Edge;  // measured α and the default ε
  ScenarioRun planted = CampaignRunner(campaign).run(1).scenarios[0].runs[0];
  const double alpha = std::nextafter(planted.alpha, 1.0);
  const double epsilon = std::nextafter(planted.epsilon, 0.0);
  planted.alpha = alpha;
  planted.epsilon = epsilon;

  ResultStore store(fresh_dir("alpha-planted"));
  store.put(store_cell_key(s, s.fault, 0), encode_runs({&planted, 1}));
  const CampaignReport report = CampaignRunner(campaign).run(2, &store);
  EXPECT_EQ(report.store.hits, 1u);
  EXPECT_EQ(report.store.misses, 2u);
  EXPECT_EQ(report.store.alpha_measured, 0u);
  EXPECT_EQ(bits(report.scenarios[0].alpha), bits(alpha));
  EXPECT_EQ(bits(report.scenarios[0].epsilon), bits(epsilon));
  for (const ScenarioRun& run : report.scenarios[0].runs) {
    EXPECT_EQ(bits(run.alpha), bits(alpha));
    EXPECT_EQ(bits(run.epsilon), bits(epsilon));
  }
  for (std::size_t r = 1; r < 3; ++r) {
    EXPECT_EQ(report.scenarios[0].runs[r].threshold, alpha * epsilon)
        << "the missing cells prune with the served bits";
  }
  EXPECT_EQ(store.stats().records, 3u) << "three cells; the planted one is not rewritten";
}

TEST(CampaignStore, CellWithUnusableAlphaOrEpsilonIsAMiss) {
  const Campaign campaign = alpha_campaign(2);
  const Scenario& s = campaign.entries[0].scenario;
  const CampaignReport reference = CampaignRunner(campaign).run(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> cases[] = {
      {nan, 0.5}, {0.0, 0.5}, {-0.25, 0.5}, {std::numeric_limits<double>::infinity(), 0.5},
      {0.25, 0.0}, {0.25, 1.0}, {0.25, nan}};
  int i = 0;
  for (const auto& [alpha, epsilon] : cases) {
    SCOPED_TRACE(i);
    ScenarioRun bad = reference.scenarios[0].runs[0];
    bad.alpha = alpha;
    bad.epsilon = epsilon;
    ResultStore store(fresh_dir("alpha-unusable-" + std::to_string(i++)));
    store.put(store_cell_key(s, s.fault, 0), encode_runs({&bad, 1}));
    const CampaignReport report = CampaignRunner(campaign).run(2, &store);
    EXPECT_EQ(report.store.hits, 0u);
    EXPECT_EQ(report.store.alpha_measured, 1u);
    EXPECT_EQ(report.to_json(false), reference.to_json(false));
  }
}

TEST(CampaignStore, CorruptCellRecomputesWithTheAlphaAndEpsilonItsSiblingCarries) {
  Campaign campaign = alpha_campaign(2);
  campaign.entries[0].scenario.prune.kind = ExpansionKind::Edge;  // measured α, default ε
  const std::string dir = fresh_dir("alpha-corrupt");
  std::string payload;
  {
    ResultStore store(dir);
    payload = CampaignRunner(campaign).run(1, &store).to_json(false);
  }
  ASSERT_EQ(log_keys(dir).size(), 2u);
  // Flip the log's last byte: the second cell's checksum breaks.
  std::string bytes = read_file(log_of(dir));
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().corrupt_records, 1u);
  const CampaignReport healed = CampaignRunner(campaign).run(2, &store);
  EXPECT_EQ(healed.store.hits, 1u);
  EXPECT_EQ(healed.store.misses, 1u);
  EXPECT_EQ(healed.store.alpha_measured, 0u) << "the served sibling supplied alpha";
  EXPECT_EQ(healed.to_json(false), payload);
}

TEST(CampaignStore, ColdCampaignWritesOnlyCellKeys) {
  const Campaign campaign = graph_free_campaign();
  const std::string dir = fresh_dir("cell-keys-only");
  ResultStore store(dir);
  const CampaignReport cold = CampaignRunner(campaign).run(2, &store);
  const std::vector<std::string> keys = log_keys(dir);
  EXPECT_EQ(keys.size(), cold.store.misses);
  EXPECT_EQ(store.stats().records, cold.store.misses);
  for (const std::string& key : keys) EXPECT_EQ(key.rfind("fne-cell|", 0), 0u) << key;
}

TEST(CampaignStore, ConcurrentRepetitionsOfAMeasuringEntryMeasureAlphaOnce) {
  const Campaign campaign = alpha_campaign(6);
  const std::string storeless = CampaignRunner(campaign).run(2).to_json(false);
  ResultStore serial_store(fresh_dir("alpha-serial"));
  const std::string serial = CampaignRunner(campaign).run(1, &serial_store).to_json(false);
  EXPECT_EQ(serial, storeless);

  ResultStore store(fresh_dir("alpha-concurrent"));
  const CampaignReport cold = CampaignRunner(campaign).run(2, &store);
  EXPECT_EQ(cold.store.misses, 6u);
  EXPECT_EQ(cold.store.alpha_measured, 1u) << "six cells on two threads measure alpha once";
  EXPECT_EQ(store.stats().records, 6u) << "the six cells and nothing else";
  EXPECT_EQ(cold.to_json(false), serial);

  const CampaignReport warm = CampaignRunner(campaign).run(2, &store);
  EXPECT_EQ(warm.store.hits, 6u);
  EXPECT_EQ(warm.store.alpha_measured, 0u);
  EXPECT_EQ(store.stats().records, 6u);
  EXPECT_EQ(warm.to_json(false), serial);
}

TEST(CampaignStore, DisconnectedTopologyStillNeedsAnExplicitAlpha) {
  // The mini_p2p fixture has 6 components, so its measured α is 0.
  Campaign campaign;
  campaign.name = "disconnected";
  Scenario s;
  s.name = "mini-p2p-measured";
  s.topology = {"file", Params{{"path", std::string(FNE_REPO_DIR) + "/tests/data/mini_p2p.csr"}}};
  s.fault = {"random", Params{{"p", "0.25"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.repetitions = 3;
  s.seed = 1404;
  campaign.entries.push_back({s, std::nullopt});

  const auto expect_alpha_error = [&](ResultStore* store) {
    try {
      (void)CampaignRunner(campaign).run(2, store);
      ADD_FAILURE() << "a measured alpha of 0 must fail the run";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'mini-p2p-measured'"), std::string::npos) << what;
      EXPECT_NE(what.find("set prune.alpha explicitly"), std::string::npos) << what;
    }
  };
  expect_alpha_error(nullptr);
  ResultStore store(fresh_dir("alpha-disconnected"));
  expect_alpha_error(&store);
  EXPECT_EQ(store.stats().records, 0u) << "no cell was committed";
}

TEST(CampaignStore, WarmRunBuildsNoGraph) {
  const Campaign campaign = graph_free_campaign();
  const std::string storeless = CampaignRunner(campaign).run(2).to_json(false);

  ResultStore store(fresh_dir("graph-free"));
  EngineCache::instance().clear();
  const CampaignReport cold = CampaignRunner(campaign).run(2, &store);
  EXPECT_GT(cold.cache.graph_builds, 0u);
  EXPECT_EQ(cold.to_json(false), storeless);

  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    EngineCache::instance().clear();
    const CampaignReport warm = CampaignRunner(campaign).run(threads, &store);
    EXPECT_EQ(warm.store.misses, 0u);
    EXPECT_EQ(warm.store.alpha_measured, 0u);
    EXPECT_EQ(warm.cache.graph_builds, 0u) << "a fully served run must lease no graph";
    EXPECT_EQ(warm.cache.leases, 0u);
    EXPECT_EQ(warm.to_json(false), cold.to_json(false));
    EXPECT_EQ(warm.to_json(false), storeless);
  }
}

TEST(CampaignStore, PlanFedDecodedCellsFinishesWithoutGraphOrAlpha) {
  // A dist coordinator's position: every cell arrives as encoded runs
  // computed elsewhere.  finish must take α and ε from them, leasing no
  // graph and measuring nothing, and match the computing plan's payload.
  const Campaign campaign = graph_free_campaign();
  CampaignPlan computing(campaign, 1);
  CampaignPlan fed(campaign, 1);
  ResultStore store(fresh_dir("plan-fed"));
  ASSERT_EQ(fed.attach_store(store), 0u);
  for (std::size_t i = 0; i < computing.num_jobs(); ++i) {
    ASSERT_NE(computing.job(i).kind, CampaignJob::Kind::kMetric);
    std::vector<ScenarioRun> runs = computing.compute_cell(i);
    std::optional<std::vector<ScenarioRun>> received = decode_runs(encode_runs(runs));
    ASSERT_TRUE(received.has_value());
    ASSERT_TRUE(computing.accept_cell(i, std::move(runs)));
    ASSERT_TRUE(fed.accept_cell(i, std::move(*received)));
  }
  const std::string expected = computing.finish(1, 0.0, EngineCacheStats{}).to_json(false);

  const EngineCacheStats before = EngineCache::instance().stats();
  const CampaignReport report = fed.finish(1, 0.0, EngineCacheStats{});
  const EngineCacheStats after = EngineCache::instance().stats();
  EXPECT_EQ(after.graph_hits + after.graph_builds, before.graph_hits + before.graph_builds)
      << "finish leases no graph";
  EXPECT_EQ(report.store.alpha_measured, 0u);
  EXPECT_EQ(report.to_json(false), expected);
}

TEST(ResultStore, CorruptFrameThenGoodCopyIndexesTheGoodCopy) {
  // A log longer than one scan chunk (1 MiB): a corrupt frame of key k
  // sits past the first chunk, and a later good copy of k must be indexed
  // — the scan skips exactly the corrupt frame and keeps going.
  const std::string dir = fresh_dir("corrupt-then-good");
  const std::string filler(100000, 'f');
  std::uint64_t k_frame = 0;
  {
    ResultStore store(dir);
    for (int i = 0; i < 15; ++i) store.put("filler-" + std::to_string(i), filler);
    k_frame = fs::file_size(log_of(dir));
    store.put("k", "first-copy");
    for (int i = 15; i < 30; ++i) store.put("filler-" + std::to_string(i), filler);
  }
  ASSERT_GT(k_frame, std::uint64_t{1} << 20);
  // Append a second, good copy of k by hand (put() would refuse: first
  // write wins), then break the first copy's checksum.
  std::string bytes = read_file(log_of(dir));
  const std::string first_frame = bytes.substr(static_cast<std::size_t>(k_frame), 24 + 1 + 10);
  bytes += first_frame;
  const std::size_t flip = static_cast<std::size_t>(k_frame) + 24 + 1 + 10 - 1;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5A);
  write_file(log_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.stats().corrupt_records, 1u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u);
  EXPECT_EQ(store.stats().records, 31u);
  EXPECT_EQ(store.load("k").value_or(""), "first-copy") << "the good copy is served";
  EXPECT_EQ(store.load("filler-29").value_or(""), filler);
  EXPECT_EQ(store.stats().corrupt_records, 1u) << "the good copy re-verifies on load";
}

}  // namespace
}  // namespace fne
