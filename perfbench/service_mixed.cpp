// Workload `service_mixed`: requests from a seeded pool against an
// in-process ScenarioService (kServiceWorkers workers x 1 exec thread).
//
// The seed generates a pool of distinct campaign requests in three
// classes: many small, some medium, rare heavy (the heavy tail that shows
// head-of-line blocking).  Every response must equal the local payload of
// its request.
//
// Untraced: a pass sends every pool request kPassCopies times, in a
// seeded order, so that its class shares are close to the open-loop ones
// and every pass costs the same whatever the draws.  It is dealt over
// kConnections connections that each keep kWindow requests in flight, so
// requests wait in the service's queue behind busy workers.  The run
// repeats cycles of one pass from a cleared EngineCache and kWarmPerCold
// passes against the warm service until --seconds is used up.
//   cold_s  = median cold pass,  warm_ms = median warm pass.
//
// Traced: idle round trips and local executions, then the open-loop load.
// Poisson arrival schedules drawn from the pool are sent over two
// connections; a sender thread per connection sends each request at its
// scheduled time whether or not earlier ones were answered, and a
// receiver thread matches responses by id.  Latency is timed from the
// scheduled send time.  The fixed rate ladder (lo, hi and above) gives
// svc.* (svc.max_rps is the highest rate whose p99 meets kP99LimitMs with
// no growing backlog), then one more step at `hi` records a span per
// request from the generator's timestamps.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "bench.hpp"
#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "service/service.hpp"
#include "util/require.hpp"

namespace fnebench {

namespace {

constexpr int kServiceWorkers = 2;
constexpr int kConnections = 2;
// Requests each connection keeps in flight during a pass.  With
// kConnections x kWindow > kServiceWorkers, requests queue in the service.
constexpr std::size_t kWindow = 2;
// Set-ups per timed block (one set-up generates the inputs and starts,
// pings and stops a service in ~0.5 ms).
constexpr int kSetupsPerBlock = 100;
// A cycle is one cold pass (EngineCache cleared first) and then
// kWarmPerCold warm ones, so that cold passes span the run as warm ones do.
constexpr std::size_t kWarmPerCold = 2;
constexpr std::size_t kMinRequests = 1000;
constexpr int kIdleSamples = 30;
// Fixed load points, chosen from the measured capacity of a 4-core host
// (README.md): never re-derived from a run.
constexpr double kLoRps = 250.0;
constexpr double kHiRps = 500.0;
constexpr double kLadderRps[] = {kLoRps, kHiRps, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0};
constexpr double kP99LimitMs = 100.0;

enum Class { kSmall = 0, kMedium = 1, kHeavy = 2, kClasses = 3 };
constexpr const char* kClassNames[kClasses] = {"small", "medium", "heavy"};
// Open-loop arrival shares.  Heavy requests are rarer than 1 in 100, so
// p99 measures the small and medium requests they block, not their own
// run time.
constexpr double kClassShare[kClasses] = {0.80, 0.194, 0.006};
// Copies of each pool request in one pass: with the pool's 32 small, 8
// medium and 4 heavy requests, 640 + 160 + 4: close to the open-loop shares.
constexpr std::size_t kPassCopies[kClasses] = {20, 20, 1};

struct PoolEntry {
  Class cls = kSmall;
  std::string campaign;  ///< campaign JSON text, as a client sends it
};

/// The distinct requests.  Sizes and fault rates are fixed per class; the
/// seed draws scenario seeds (fault placement), and a pool of many
/// variants per class keeps a run's mix from hinging on a few draws.
[[nodiscard]] std::vector<PoolEntry> generate_pool(std::mt19937_64& rng) {
  std::vector<PoolEntry> pool;
  const auto add = [&](Class cls, const std::string& scenario) {
    pool.push_back({cls, "{\"name\": \"svc-" + std::to_string(pool.size()) +
                             "\", \"scenarios\": [{" + scenario + ", \"seed\": " +
                             std::to_string(rng() % 1000000007ULL) + "}]}"});
  };
  const auto mesh = [](int side) {
    return "\"topology\": {\"name\": \"mesh\", \"params\": {\"side\": " +
           std::to_string(side) + ", \"dims\": 2}}, ";
  };
  const std::string edge_prune =
      "\"fault\": {\"name\": \"random\", \"params\": {\"p\": 0.1}}, "
      "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125}";
  for (int i = 0; i < 24; ++i) add(kSmall, "\"name\": \"mesh-small\", " + mesh(6 + i % 3) + edge_prune);
  for (int i = 0; i < 8; ++i) {
    add(kSmall, "\"name\": \"cube-small\", \"topology\": {\"name\": \"hypercube\", "
                "\"params\": {\"dims\": 5}}, "
                "\"fault\": {\"name\": \"random\", \"params\": {\"p\": 0.1}}, "
                "\"prune\": {\"kind\": \"node\", \"alpha\": 0.25}");
  }
  for (int i = 0; i < 8; ++i) add(kMedium, "\"name\": \"mesh-medium\", " + mesh(10 + i % 3) + edge_prune);
  for (int i = 0; i < 4; ++i) {
    add(kHeavy, "\"name\": \"mesh-heavy\", " + mesh(22) +
                    "\"fault\": {\"name\": \"random\", \"params\": {\"p\": 0.04}}, "
                    "\"prune\": {\"kind\": \"edge\", \"alpha\": 0.125}, "
                    "\"sweep\": {\"param\": \"p\", \"values\": [0.04, 0.08], "
                    "\"mode\": \"monotone\"}");
  }
  return pool;
}

/// Requests to send, encoded up front as frames with ids 1..n.
struct Requests {
  std::vector<std::size_t> pool;  ///< pool entry of each request
  std::vector<std::string> frames;
  std::size_t bytes = 0;  ///< request JSON bytes

  void add(const std::vector<PoolEntry>& entries, std::size_t p) {
    const std::string json =
        fne::make_request_json(frames.size() + 1, "campaign", entries[p].campaign, 1, 0);
    pool.push_back(p);
    frames.push_back(fne::encode_frame(fne::Message{fne::MsgType::kRequest, json}));
    bytes += json.size();
  }
};

[[nodiscard]] std::vector<std::vector<std::size_t>> by_class(const std::vector<PoolEntry>& pool) {
  std::vector<std::vector<std::size_t>> members(kClasses);
  for (std::size_t i = 0; i < pool.size(); ++i) members[pool[i].cls].push_back(i);
  return members;
}

/// The pass: kPassCopies of every pool request, in a seeded order.
[[nodiscard]] Requests generate_pass(std::uint64_t seed, const std::vector<PoolEntry>& pool) {
  std::mt19937_64 rng(seed ^ 0x9a55'0f'ba7cULL);
  std::vector<std::size_t> order;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    order.insert(order.end(), kPassCopies[pool[p].cls], p);
  }
  std::shuffle(order.begin(), order.end(), rng);
  Requests pass;
  for (const std::size_t p : order) pass.add(pool, p);
  return pass;
}

/// One open-loop phase: Poisson arrivals at `rps`, classes drawn by
/// kClassShare, requests uniform within a class.  Each phase draws from
/// its own stream of the seed, so a phase's requests do not depend on
/// which phases ran before it.
struct Phase {
  std::vector<double> offset_ms;  ///< send time after the phase start
  Requests requests;
};

[[nodiscard]] Phase generate_phase(std::uint64_t seed, std::uint64_t stream,
                                   const std::vector<PoolEntry>& pool, double rps,
                                   std::size_t count) {
  std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  const std::vector<std::vector<std::size_t>> members = by_class(pool);
  std::exponential_distribution<double> gap(rps / 1000.0);
  std::discrete_distribution<int> cls(std::begin(kClassShare), std::end(kClassShare));
  Phase phase;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    const std::vector<std::size_t>& in_class = members[static_cast<std::size_t>(cls(rng))];
    phase.offset_ms.push_back(t);
    phase.requests.add(pool, in_class[rng() % in_class.size()]);
  }
  return phase;
}

[[nodiscard]] std::vector<std::unique_ptr<fne::Transport>> connect(int port) {
  std::vector<std::unique_ptr<fne::Transport>> links;
  for (int c = 0; c < kConnections; ++c) {
    links.push_back(fne::tcp_connect("127.0.0.1", port, 2000));
    FNE_REQUIRE(links.back() != nullptr, "service_mixed: cannot connect to the service");
  }
  return links;
}

/// Serve `pass` closed-loop over `links` (kConnections connections that
/// stay open across passes, as a resident client keeps them): request i
/// goes on connection i mod kConnections, and each connection keeps
/// kWindow requests in flight.  Every response must be ok and equal the
/// local payload of its request.  Returns the wall time in ms.
double serve_pass(const std::vector<std::unique_ptr<fne::Transport>>& links,
                  const Requests& pass, const std::vector<std::string>& expected, Result& out) {
  const std::size_t n = pass.frames.size();
  std::vector<fne::ServiceResponse> responses(n);
  std::vector<char> answered(n, 0);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + std::chrono::seconds(60);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      fne::Transport& link = *links[static_cast<std::size_t>(c)];
      fne::FrameBuffer buffer;
      fne::Message msg;
      std::size_t next = static_cast<std::size_t>(c), in_flight = 0;
      while (next < n || in_flight > 0) {
        for (; in_flight < kWindow && next < n; next += kConnections, ++in_flight) {
          if (!link.send(pass.frames[next])) return;
        }
        const fne::ReadStatus st = fne::read_message(link, buffer, msg, 100);
        if (st == fne::ReadStatus::kTimeout && Clock::now() < deadline) continue;
        if (st != fne::ReadStatus::kMessage) return;
        fne::ServiceResponse r = fne::parse_response_json(msg.payload);
        if (r.id == 0 || r.id > n || answered[r.id - 1]) continue;
        answered[r.id - 1] = 1;
        responses[r.id - 1] = std::move(r);
        --in_flight;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = ms_since(t0);
  for (std::size_t i = 0; i < n; ++i) {
    const fne::ServiceResponse& r = responses[i];
    out.check(answered[i] && r.ok() && r.payload == expected[pass.pool[i]],
              "pass request " + std::to_string(i + 1) + ": " +
                  (answered[i] ? r.status + " " + r.message : "no response"));
  }
  return wall;
}

struct Outcome {
  Clock::time_point scheduled, sent, done;
  bool answered = false;
  fne::ServiceResponse response;
  std::size_t resp_bytes = 0;
};

/// Drive one open-loop phase over kConnections fresh connections.
[[nodiscard]] std::vector<Outcome> run_phase(int port, const Phase& phase) {
  const std::vector<std::string>& frames = phase.requests.frames;
  const std::size_t n = frames.size();
  std::vector<Outcome> out(n);
  const std::vector<std::unique_ptr<fne::Transport>> links = connect(port);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].scheduled =
        start + std::chrono::microseconds(static_cast<std::int64_t>(phase.offset_ms[i] * 1000.0));
  }
  const Clock::time_point deadline = out.back().scheduled + std::chrono::seconds(60);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    fne::Transport& link = *links[static_cast<std::size_t>(c)];
    const auto first = static_cast<std::size_t>(c);
    // Sender: every request of this connection at its scheduled time.
    threads.emplace_back([&out, &frames, &link, first, n] {
      for (std::size_t i = first; i < n; i += kConnections) {
        std::this_thread::sleep_until(out[i].scheduled);
        out[i].sent = Clock::now();
        if (!link.send(frames[i])) return;
      }
    });
    // Receiver: match responses by id until this connection's are all in.
    threads.emplace_back([&out, &link, first, n, deadline] {
      std::size_t expected = (n - first + kConnections - 1) / kConnections;
      fne::FrameBuffer buffer;
      fne::Message msg;
      while (expected > 0 && Clock::now() < deadline) {
        const fne::ReadStatus st = fne::read_message(link, buffer, msg, 100);
        if (st == fne::ReadStatus::kTimeout) continue;
        if (st != fne::ReadStatus::kMessage) return;
        const Clock::time_point now = Clock::now();
        fne::ServiceResponse r = fne::parse_response_json(msg.payload);
        if (r.id == 0 || r.id > n || out[r.id - 1].answered) continue;
        Outcome& o = out[r.id - 1];
        o.done = now;
        o.resp_bytes = msg.payload.size();
        o.response = std::move(r);
        o.answered = true;
        --expected;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

struct PhaseStats {
  std::vector<double> latency;  ///< answered requests, schedule order
  double p50 = 0.0, p99 = 0.0, lag_p99 = 0.0;
  bool backlog = false;
};

[[nodiscard]] PhaseStats summarize(const std::vector<Outcome>& outcomes) {
  PhaseStats s;
  std::vector<double> lag;
  for (const Outcome& o : outcomes) {
    if (!o.answered) continue;
    s.latency.push_back(ms_between(o.scheduled, o.done));
    lag.push_back(ms_between(o.scheduled, o.sent));
  }
  s.p50 = median(s.latency);
  s.p99 = percentile(s.latency, 0.99);
  s.lag_p99 = percentile(lag, 0.99);
  // A growing backlog shows as latency climbing across the phase.
  const std::size_t q = s.latency.size() / 4;
  if (q > 0) {
    const std::vector<double> first(s.latency.begin(), s.latency.begin() + q);
    const std::vector<double> last(s.latency.end() - q, s.latency.end());
    s.backlog = median(last) > 2.0 * median(first) + 2.0;
  }
  return s;
}

/// Count every request of a phase and check it came back ok; one response
/// per class must equal the local payload of the same request.
void check_phase(const std::vector<Outcome>& outcomes, const Phase& phase,
                 const std::vector<PoolEntry>& pool, const std::vector<std::string>& expected,
                 Result& out) {
  bool compared[kClasses] = {false, false, false};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    out.check(o.answered && o.response.ok(),
              "request " + std::to_string(i + 1) + ": " +
                  (o.answered ? o.response.status + " " + o.response.message : "no response"));
    const std::size_t p = phase.requests.pool[i];
    if (!o.answered || !o.response.ok() || compared[pool[p].cls]) continue;
    compared[pool[p].cls] = true;
    out.check(o.response.payload == expected[p],
              std::string(kClassNames[pool[p].cls]) + " response differs from a local run");
  }
}

/// One round trip per pool request, one after another over one idle
/// connection; every response must equal the local payload of its request.
[[nodiscard]] std::vector<double> idle_round_trips(int port, const std::vector<PoolEntry>& pool,
                                                   const std::vector<std::string>& expected,
                                                   Result& out) {
  fne::ServiceClient client("127.0.0.1", port);
  std::vector<double> rtt;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    const Clock::time_point t0 = Clock::now();
    const fne::ServiceResponse r = client.campaign(pool[p].campaign, 1);
    rtt.push_back(ms_since(t0));
    out.check(r.ok() && r.payload == expected[p],
              "idle request " + std::to_string(p) + ": " + r.status + " " + r.message);
  }
  return rtt;
}

[[nodiscard]] std::unique_ptr<fne::ScenarioService> start_service() {
  fne::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.exec_threads = 1;
  // Deep enough that the ladder's overloaded steps queue instead of being
  // refused: overload shows as latency, and every request must succeed.
  options.queue_depth = 1u << 20;
  auto service = std::make_unique<fne::ScenarioService>(options);
  service->start();
  return service;
}

}  // namespace

void run_service_mixed(const Options& opt, Tracer& tracer, Result& out) {
  // Set-up: generate the pool and the pass, start a service, connect and
  // ping.  Each timed set-up also stops its service.
  const Clock::time_point run_start = Clock::now();
  std::vector<PoolEntry> pool;
  Requests pass;
  SetupTimer setup(kSetupsPerBlock, opt.seconds, [&] {
    std::mt19937_64 rng(opt.seed ^ 0x5e'41'1ce'dULL);
    pool = generate_pool(rng);
    pass = generate_pass(opt.seed, pool);
    const std::unique_ptr<fne::ScenarioService> service = start_service();
    fne::ServiceClient client("127.0.0.1", service->port());
    out.check(client.ping().ok(), "service ping");
    service->stop();
  });
  // What each response must equal: the local payload of its request.
  std::vector<std::string> expected;
  for (const PoolEntry& p : pool) {
    fne::CampaignRunner runner(fne::campaign_from_json(p.campaign));
    expected.push_back(runner.run(1).to_json(false));
  }
  const std::unique_ptr<fne::ScenarioService> service = start_service();
  const int port = service->port();
  const std::vector<std::unique_ptr<fne::Transport>> links = connect(port);

  // Whole cycles fill an untraced run while the next pass is expected to
  // fit; the traced run makes one cycle, which leaves the cache warm.
  std::vector<double> cold, warm;
  const double budget_ms = opt.trace ? 0.0 : opt.seconds * 1000.0;
  double pass_ms = 0.0;
  for (std::size_t i = 0; i <= kWarmPerCold || ms_since(run_start) + pass_ms <= budget_ms; ++i) {
    const bool is_cold = i % (kWarmPerCold + 1) == 0;
    if (is_cold) fne::EngineCache::instance().clear();
    pass_ms = serve_pass(links, pass, expected, out);
    (is_cold ? cold : warm).push_back(pass_ms);
    setup.maybe_sample();
  }

  if (!opt.trace) {
    service->stop();
    print_samples("cold_ms", cold);
    print_samples("warm_ms", warm);
    out.set("setup_s", setup.median_s());
    out.set("cold_s", median(cold) / 1000.0);
    out.set("warm_ms", median(warm));
    out.info["pass_requests"] = static_cast<double>(pass.frames.size());
    out.info["cold_passes"] = static_cast<double>(cold.size());
    out.info["warm_passes"] = static_cast<double>(warm.size());
    return;
  }

  // Idle round trips of every pool request (the base of queue waits) and
  // of one small request against its local execution.
  std::vector<std::vector<double>> idle(pool.size());
  for (int k = 0; k < 5; ++k) {
    const std::vector<double> rtt = idle_round_trips(port, pool, expected, out);
    for (std::size_t p = 0; p < pool.size(); ++p) idle[p].push_back(rtt[p]);
  }
  std::vector<double> idle_rtt(pool.size());
  for (std::size_t p = 0; p < pool.size(); ++p) idle_rtt[p] = median(idle[p]);
  {
    fne::ServiceClient client("127.0.0.1", port);
    std::vector<double> rtt, local;
    for (int k = 0; k < kIdleSamples; ++k) {
      Clock::time_point t0 = Clock::now();
      const fne::ServiceResponse r = client.campaign(pool.front().campaign, 1);
      rtt.push_back(ms_since(t0));
      t0 = Clock::now();
      fne::CampaignRunner runner(fne::campaign_from_json(pool.front().campaign));
      const std::string payload = runner.run(1).to_json(false);
      local.push_back(ms_since(t0));
      out.check(r.ok() && r.payload == payload && payload == expected.front(),
                "idle response differs from a local run");
    }
    out.set("service.idle_rtt_ms", median(rtt));
    out.set("service.local_exec_ms", median(local));
    out.set("service.overhead_ms", median(rtt) - median(local));
  }

  // The rate ladder, untraced; lo and hi are two of its steps.  It must
  // end in a step that fails, or svc.max_rps is not a capacity.
  double max_rps = 0.0;
  PhaseStats lo, hi;
  std::vector<double> queue_wait;
  for (std::size_t step_index = 0; step_index < std::size(kLadderRps); ++step_index) {
    const double rps = kLadderRps[step_index];
    const Phase phase = generate_phase(opt.seed, 1 + step_index, pool, rps, kMinRequests);
    const std::vector<Outcome> outcomes = run_phase(port, phase);
    const PhaseStats step = summarize(outcomes);
    check_phase(outcomes, phase, pool, expected, out);
    out.info["ladder_p99_ms_at_" + std::to_string(static_cast<int>(rps))] = step.p99;
    if (rps == kLoRps) lo = step;
    if (rps == kHiRps) {
      hi = step;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].answered) {
          queue_wait.push_back(ms_between(outcomes[i].scheduled, outcomes[i].done) -
                               idle_rtt[phase.requests.pool[i]]);
        }
      }
    }
    const bool holds = step.p99 <= kP99LimitMs && !step.backlog;
    if (holds) max_rps = rps;
    if (!holds && rps >= kHiRps) break;  // lo and hi always run
  }
  out.check(max_rps < kLadderRps[std::size(kLadderRps) - 1],
            "the top ladder step still meets the p99 limit: capacity not found");

  // One more step at hi, with a span per request from the generator's
  // timestamps (scheduled send to response) and its send lateness as a
  // child span.  The spans are recorded after the step, so tracing costs
  // the load nothing and trace.overhead_frac is not measured here (0).
  const fne::ServiceStats stats_before = service->stats();
  const Phase phase = generate_phase(opt.seed, 100, pool, kHiRps, kMinRequests);
  const std::vector<Outcome> outcomes = run_phase(port, phase);
  check_phase(outcomes, phase, pool, expected, out);
  std::size_t resp_bytes = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    resp_bytes += o.resp_bytes;
    if (!o.answered) continue;
    const std::uint64_t span = tracer.record("service.request", i + 1, 0, o.scheduled, o.done);
    tracer.record("loadgen.lag", i + 1, span, o.scheduled, o.sent);
  }
  service->stop();
  const fne::ServiceStats stats = service->stats();

  out.set("svc.lo_p50_ms", lo.p50);
  out.set("svc.lo_p99_ms", lo.p99);
  out.set("svc.hi_p50_ms", hi.p50);
  out.set("svc.hi_p99_ms", hi.p99);
  out.set("svc.max_rps", max_rps);
  out.set("service.queue_wait_p50_ms", median(queue_wait));
  out.set("service.queue_wait_p99_ms", percentile(queue_wait, 0.99));
  out.set("service.completed", static_cast<double>(stats.completed - stats_before.completed));
  out.set("service.rejected",
          static_cast<double>(stats.rejected_queue_full + stats.rejected_expired +
                              stats.rejected_oversized));
  out.set("service.errors", static_cast<double>(stats.errors));
  out.set("service.req_bytes", static_cast<double>(phase.requests.bytes));
  out.set("service.resp_bytes", static_cast<double>(resp_bytes));
  out.set("loadgen.lag_p99_ms", hi.lag_p99);
  out.info["lo_requests"] = static_cast<double>(lo.latency.size());
  out.info["hi_requests"] = static_cast<double>(hi.latency.size());
  out.info["cold_pass_ms"] = median(cold);
  for (int c = 0; c < kClasses; ++c) {
    std::vector<double> rtt;
    for (std::size_t p = 0; p < pool.size(); ++p) {
      if (pool[p].cls == c) rtt.push_back(idle_rtt[p]);
    }
    out.info[std::string("idle_rtt_ms_") + kClassNames[c]] = median(rtt);
  }
}

}  // namespace fnebench
