// Shared scaffolding for the experiment benches.
//
// Every E*/A* binary regenerates one paper experiment (the E1–E12
// numbering of reproduce/README.md) or ablation (A1–A4): it prints a
// header naming the paper claim, then a markdown table whose
// rows include the paper's predicted quantity next to the measured one.
// All binaries run with no arguments (CI mode: small sizes, seconds of
// runtime) and accept --scale=N / --trials=N / --samples=N to grow the
// workloads.  Setting the environment variable FNE_CSV_DIR additionally
// dumps every printed table as CSV into that directory for plotting.
//
// Perf benches additionally accept --json=out.json and emit a
// machine-readable JsonReport (workload, millis, speedups, thread count)
// so CI can archive BENCH_*.json artifacts and the perf trajectory of a
// kernel is a diffable file, not a scrollback screenshot.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne::bench {

/// OpenMP worker count the process would use (1 when built without it);
/// reported in JSON results so perf numbers are attributable.
inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

namespace detail {
inline std::string& current_experiment() {
  static std::string id = "experiment";
  return id;
}
inline int& table_counter() {
  static int counter = 0;
  return counter;
}
}  // namespace detail

inline void print_header(const std::string& id, const std::string& claim) {
  detail::current_experiment() = id;
  detail::table_counter() = 0;
  std::cout << "\n=== " << id << " — " << claim << " ===\n\n";
}

inline void print_table(const Table& table, const std::string& note = "") {
  table.print(std::cout);
  if (!note.empty()) std::cout << "\n" << note << "\n";
  std::cout.flush();
  if (const char* dir = std::getenv("FNE_CSV_DIR"); dir != nullptr && *dir != '\0') {
    const std::string path = std::string(dir) + "/" + detail::current_experiment() + "_t" +
                             std::to_string(detail::table_counter()++) + ".csv";
    std::ofstream out(path);
    if (out) {
      table.write_csv(out);
      std::cout << "(csv written to " << path << ")\n";
    }
  }
}

inline const char* yesno(bool b) { return b ? "yes" : "NO"; }

/// Resolve the --json flag to a file path: bare `--json` parses as the
/// value "1" and means "use the bench's default filename".  (Alias for
/// the shared util/cli helper; the CLI and every bench resolve the flag
/// the same way.)
inline std::string json_path(const Cli& cli, const std::string& fallback) {
  return json_flag_path(cli, fallback);
}

/// Resolve --threads for scaling benches: absent defaults to hardware
/// concurrency (never less than 1), explicit values are validated.
inline int threads_flag(const Cli& cli) { return cli.get_threads(0); }

/// Write an already-encoded JSON document (e.g. CampaignReport::to_json)
/// to `path`, with the same stderr status convention as JsonReport::write.
inline bool write_json_text(const std::string& path, const std::string& encoded) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write json report to " << path << "\n";
    return false;
  }
  out << encoded << "\n";
  std::cerr << "(json written to " << path << ")\n";
  return true;
}

/// Machine-readable bench results (see util/json.hpp): top-level scalars
/// (workload, millis, speedup, threads, pass/fail) plus named arrays of
/// per-row records, written to the --json=path file.
using JsonObject = fne::JsonObject;
using JsonReport = fne::JsonReport;

}  // namespace fne::bench
