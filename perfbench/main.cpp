// fne_bench, the fne benchmark binary: three workloads (README.md).
//
//   fne_bench --workload=reproduce|prune_scale|service_mixed --seed=N
//             --seconds=S --trace=0|1 --work=DIR [--source=ID]
//
// Run from the repository root: the workloads read campaigns/ and
// reproduce/ there.
//
// Untraced runs (--trace=0) print every end-to-end metric; the traced run
// (--trace=1) prints every per-layer metric, derived from spans fne_bench
// records around its calls into the library.  The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}; the lines
// before it carry the run fingerprint and sample counts.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace fnebench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics: one meaning per workload, see README.md.
constexpr MetricDef kEndToEnd[] = {
    {"cold_s", "s"},
    {"warm_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// The per-layer metrics of the traced run.  A layer a workload bypasses
// reports 0.
constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "ratio"},
    {"campaign.plan_ms", "ms"},
    {"campaign.attach_store_ms", "ms"},
    {"campaign.finish_ms", "ms"},
    {"campaign.encode_ms", "ms"},
    {"campaign.cell_ms", "ms"},
    {"campaign.metric_job_ms", "ms"},
    {"campaign.max_job_ms", "ms"},
    {"campaign.accept_ms", "ms"},
    {"campaign.parallel_eff", "ratio"},
    {"campaign.jobs", "count"},
    {"campaign.cells", "count"},
    {"reproduce.e1_ms", "ms"},
    {"reproduce.e2_ms", "ms"},
    {"reproduce.e3_ms", "ms"},
    {"reproduce.e4_ms", "ms"},
    {"reproduce.e5_ms", "ms"},
    {"reproduce.e6_ms", "ms"},
    {"reproduce.e7_ms", "ms"},
    {"reproduce.e8_ms", "ms"},
    {"reproduce.e9_ms", "ms"},
    {"reproduce.e10_ms", "ms"},
    {"reproduce.e11_ms", "ms"},
    {"reproduce.e12_ms", "ms"},
    {"topology.build_ms", "ms"},
    {"expansion.alpha_ms", "ms"},
    {"expansion.find_cut_ms", "ms"},
    {"spectral.fiedler_ms", "ms"},
    {"spectral.share_est", "ratio"},
    {"prune.ms", "ms"},
    {"prune.runs", "count"},
    {"prune.iterations", "count"},
    {"prune.eigensolves", "count"},
    {"prune.stale_sweeps", "count"},
    {"prune.stale_hit_ratio", "ratio"},
    {"prune.disconnected_culls", "count"},
    {"prune.relabel_bfs_vertices", "count"},
    {"metric.span_estimate_ms", "ms"},
    {"metric.span_estimate_max_ms", "ms"},
    {"metric.split_jobs", "count"},
    {"store.open_ms", "ms"},
    {"store.hits", "count"},
    {"store.bytes_loaded", "bytes"},
    {"store.records", "count"},
    {"store.misses", "count"},
    {"store.bytes_committed", "bytes"},
    {"ingest.open_ms", "ms"},
    {"ingest.to_graph_ms", "ms"},
    {"ingest.bytes", "bytes"},
    {"cache.leases", "count"},
    {"cache.engine_hit_ratio", "ratio"},
    {"cache.graph_builds", "count"},
    {"cache.evictions", "count"},
    {"cache.peak_mb", "MiB"},
    {"service.idle_rtt_ms", "ms"},
    {"service.local_exec_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.completed", "count"},
    {"service.rejected", "count"},
    {"service.errors", "count"},
    {"service.req_bytes", "bytes"},
    {"service.resp_bytes", "bytes"},
    {"svc.lo_p50_ms", "ms"},
    {"svc.lo_p99_ms", "ms"},
    {"svc.hi_p50_ms", "ms"},
    {"svc.hi_p99_ms", "ms"},
    {"svc.max_rps", "1/s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fne_bench: " << why << "\n"
            << "usage: fne_bench --workload=reproduce|prune_scale|service_mixed --seed=N "
               "--seconds=S --trace=0|1 --work=DIR [--source=ID]\n";
  std::exit(2);
}

[[nodiscard]] int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

[[nodiscard]] std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void print_samples(const std::string& name, const std::vector<double>& values) {
  std::cerr << "samples " << name << ":";
  for (const double v : values) std::cerr << " " << number(v);
  std::cerr << "\n";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FNE_REQUIRE(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace fnebench

int main(int argc, char** argv) {
  using namespace fnebench;
  Options opt;
  std::string source = "unknown";
  bool have_workload = false, have_work = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) usage("bad argument '" + arg + "'");
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "seed" || key == "seconds") {
      try {
        if (key == "seed") opt.seed = std::stoull(value);
        if (key == "seconds") opt.seconds = std::stod(value);
      } catch (const std::exception&) {
        usage("--" + key + " takes a number");
      }
    } else if (key == "trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (key == "work") {
      opt.work = value;
      have_work = true;
    } else if (key == "source") {
      source = value;
    } else {
      usage("unknown flag --" + key);
    }
  }
  if (!have_workload || !have_work) usage("--workload and --work are required");
  if (opt.seconds <= 0.0) usage("--seconds must be positive");

  // Guard: only an optimized library is worth timing.
  const std::string build_type = FNE_BENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::cerr << "fne_bench: refusing a non-Release build (" << build_type << ")\n";
    return 2;
  }
  // Guard: the OpenMP team is pinned so that kExecThreads executor threads,
  // each running nested `omp parallel` regions, fit on the cores.
  const int nproc = cpus_available();
  const int omp_pinned = std::max(1, nproc / kExecThreads);
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  if (omp_env == nullptr || std::string(omp_env) != std::to_string(omp_pinned)) {
    std::cerr << "fne_bench: OMP_NUM_THREADS must be " << omp_pinned << " on " << nproc
              << " cpus (got " << (omp_env ? omp_env : "unset") << ")\n";
    return 2;
  }

  fne::JsonObject fp;
  fp.put("nproc", nproc)
      .put("compiler", FNE_BENCH_COMPILER)
      .put("build_type", build_type)
      .put("exec_threads", kExecThreads)
      .put("omp_num_threads", std::string(omp_env))
      .put("source", source)
      .put("seed", opt.seed)
      .put("workload", opt.workload)
      .put("seconds", opt.seconds)
      .put("trace", opt.trace);
  std::cout << "fingerprint " << fp.dump() << std::endl;

  Tracer tracer(opt.trace);
  Result result;
  try {
    std::filesystem::create_directories(opt.work);
    if (opt.workload == "reproduce") {
      run_reproduce(opt, tracer, result);
    } else if (opt.workload == "prune_scale") {
      run_prune_scale(opt, tracer, result);
    } else if (opt.workload == "service_mixed") {
      run_service_mixed(opt, tracer, result);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "fne_bench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) {
    // Spans stay in memory until here; the file must parse back whole.
    const std::string span_file = opt.work + "/spans.jsonl";
    tracer.write(span_file);
    std::size_t span_count = 0;
    const std::string defect = verify_span_file(span_file, &span_count);
    result.check(defect.empty(), "span file: " + defect);
    result.info["spans"] = static_cast<double>(span_count);
  }
  for (const std::string& f : result.failures) std::cerr << "FAILED: " << f << "\n";
  if (result.attempted == 0) {
    std::cerr << "fne_bench: workload attempted nothing\n";
    return 1;
  }

  // Emit exactly the metric table of this mode; a metric the workload set
  // outside the table is a bug here.
  std::map<std::string, double> values = result.metrics;
  for (auto& [name, value] : values) {
    if (!std::isfinite(value)) {
      result.check(false, "metric " + name + " is not finite");
      std::cerr << "FAILED: metric " << name << " is not finite\n";
      value = 0.0;
    }
  }
  if (opt.trace) {
    values["failed_frac"] =
        static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  } else {
    values["peak_rss_mb"] = peak_rss_mb();
  }
  std::string metrics;
  std::size_t emitted = 0;
  const auto emit = [&](const MetricDef& d, bool required) {
    const auto it = values.find(d.name);
    if (it == values.end() && required) {
      std::cerr << "fne_bench: end-to-end metric " << d.name << " was not measured\n";
      std::exit(1);
    }
    const double v = it == values.end() ? 0.0 : it->second;
    if (it != values.end()) ++emitted;
    std::ostringstream entry;
    entry << (metrics.empty() ? "" : ", ") << '"' << d.name << "\": {\"value\": " << number(v)
          << ", \"unit\": \"" << d.unit << "\"}";
    metrics += entry.str();
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d, false);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d, true);
  }
  if (emitted != values.size()) {
    std::cerr << "fne_bench: workload set a metric outside the " << (opt.trace ? "per-layer" : "end-to-end")
              << " table\n";
    for (const auto& [k, v] : values) std::cerr << "  " << k << "\n";
    return 1;
  }

  fne::JsonObject info;
  for (const auto& [k, v] : result.info) info.put(k, v);
  std::cout << "info " << info.dump() << std::endl;
  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
