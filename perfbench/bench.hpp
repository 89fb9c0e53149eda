// Shared plumbing of fne_bench, the fne benchmark binary: run options, the metric
// sink that becomes the result line, timing and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace fnebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Executor threads every campaign workload runs with (the OpenMP team is
/// pinned so that executor x OpenMP threads <= nproc; see main.cpp).
inline constexpr int kExecThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;         ///< scratch directory owned by this run
};

/// Everything a workload reports.  main() checks the keys of `metrics`
/// against its metric tables.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  ///< sample counts, shape checks

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Log every sample of a timing to stderr (the spread behind a median).
void print_samples(const std::string& name, const std::vector<double>& values);

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Times a workload's set-up for setup_s.  A sample is one block of
/// `per_block` back-to-back set-ups (its wall time over `per_block`), so
/// that a sub-millisecond set-up is read off tens of milliseconds.  The
/// constructor takes the first sample, whose result the run uses; the
/// workload calls maybe_sample() after each timed pass, which takes another
/// at most once per 1/kSetupSamples of the run.  So the samples span the
/// run, as the pass timings do, instead of the host's state in its first
/// second.
inline constexpr int kSetupSamples = 20;

template <class Fn>
class SetupTimer {
 public:
  SetupTimer(int per_block, double run_seconds, Fn setup)
      : per_block_(per_block), interval_ms_(run_seconds * 1000.0 / kSetupSamples),
        setup_(std::move(setup)) {
    sample();
  }

  void maybe_sample() {
    if (ms_since(last_) >= interval_ms_) sample();
  }

  /// Logs every sample; returns their median, in seconds per set-up.
  [[nodiscard]] double median_s() const {
    print_samples("setup_s", samples_);
    return median(samples_);
  }

 private:
  void sample() {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_block_; ++i) setup_();
    samples_.push_back(ms_since(t0) / 1000.0 / per_block_);
    last_ = Clock::now();
  }

  int per_block_;
  double interval_ms_;
  Fn setup_;
  std::vector<double> samples_;
  Clock::time_point last_;
};

/// Read a whole file; REQUIREs it to exist.
[[nodiscard]] std::string read_file(const std::string& path);

/// The workloads.  Each fills the end-to-end metrics (untraced) or the
/// per-layer metrics (traced) of `out`.
void run_reproduce(const Options& opt, Tracer& tracer, Result& out);
void run_prune_scale(const Options& opt, Tracer& tracer, Result& out);
void run_service_mixed(const Options& opt, Tracer& tracer, Result& out);

}  // namespace fnebench
