// scenario_runner — run fne Campaigns from the command line: a campaign
// file, the built-in catalog, or one scenario described by flags.
//
// The CLI face of the scenario/campaign layers (DESIGN.md §6, §8): every
// topology and fault model in the registries is reachable from flags.
// Every local run goes through ONE path — the ad-hoc scenario flags
// build a one-entry Campaign (named after its scenario) and run exactly
// like --campaign: CampaignRunner over the process-wide EngineCache,
// the same store/payload/dist/JSON options, and the same output (a
// summary row per entry, then each entry's runs table).
//
//   scenario_runner --list
//       show registered topologies, fault models, and named scenarios
//   scenario_runner --scenario=mesh-random [--reps=3] [--seed=7]
//       run a named preset (overrides apply on top) as a one-entry
//       campaign named "mesh-random"
//   scenario_runner --topology=hypercube --topo-params=dims=8 \
//       --fault=high_degree --fault-params=frac=0.1 \
//       --kind=node --reps=3 --verify --expansion
//       run an ad-hoc scenario (a one-entry campaign named "ad-hoc")
//   scenario_runner --scenario=mesh-random --metrics=mesh_span,embedding_quality
//       additionally compute registered metrics (api/metrics.hpp) at
//       their default params; see --list for names
//   scenario_runner --scenario=mesh-random --sweep=p \
//       --sweep-values=0.05,0.15,0.25 [--sweep-mode=monotone]
//       sweep one fault param: the entry's SweepSpec (monotone mode
//       chains survivors downward — the fault model must declare the
//       param monotone, see --list; checked before any job runs)
//   scenario_runner --campaign=campaigns/smoke.json [--threads=4]
//       run every scenario of a campaign file; one aggregated report
//   scenario_runner --campaign=catalog [--reps=2]
//       the built-in scenario catalog as a campaign (CI smoke)
//   scenario_runner --campaign=FILE --store=DIR [--store-stats]
//       run the campaign through a persistent ResultStore (DESIGN.md
//       §11): cells already in DIR are served from disk bit-identically,
//       misses are computed and committed.  --resume is --store with the
//       default directory .fne-store — rerun a killed campaign and only
//       the missing cells recompute.  --store-stats prints the hit/miss
//       split, the α measurements and the graph builds afterwards
//       (a fully warm run reports misses=0, alpha_measured=0 and
//       graph_builds=0).  --payload=FILE writes the DETERMINISTIC
//       report payload (to_json(false)) for golden comparisons
//       (reproduce/validate.sh).  Ad-hoc runs take all four too.
//   scenario_runner --scenario=can-churn --churn-steps=40
//       additionally drive ongoing churn after the campaign, re-pruning
//       every round on the one engine a run_churn call leases
//       (ad-hoc scenarios only; table output only)
//   scenario_runner --campaign=FILE --serve[=PORT] [--workers=N]
//       distributed execution (DESIGN.md §12): serve the campaign's jobs
//       to TCP workers (bare --serve picks an ephemeral port, printed to
//       stderr).  --workers=N additionally spawns N in-process workers —
//       the one-command spelling of a distributed run.  --threads sets
//       the coordinator's LOCAL fallback width; with zero connected
//       workers the run degrades to exactly the local runner.  Knobs:
//       --bind=HOST --job-timeout-ms --retry-budget --backoff-base-ms
//       --backoff-max-ms --heartbeat-ms --idle-grace-ms.  Combines with
//       --store/--payload/--store-stats; the deterministic payload is
//       byte-identical to a local run for any worker count or fault
//       pattern.  A "dist:" telemetry line is printed after the run.
//   scenario_runner --campaign=FILE --connect=HOST:PORT [--worker-name=X]
//       worker mode: pull jobs from a coordinator serving the SAME
//       campaign file (checked via plan fingerprint at handshake),
//       compute them on this process's engine cache, stream results
//       back.  Result-shaping flags and --threads belong on the
//       coordinator and are rejected here.  Exit 0 after the
//       coordinator reports the campaign done (or is gone), 1 if it was
//       never reachable, 2 on campaign mismatch.  Workers may be killed
//       and restarted at any time.
//   scenario_runner --daemon[=PORT] [--bind=HOST] [--service-workers=N]
//       [--queue-depth=D] [--queue-deadline-ms=MS] [--max-request-bytes=B]
//       [--cache-budget=MB] [--port-file=PATH]
//       scenario service (DESIGN.md §13): a resident daemon executing
//       campaign requests from many clients over one warm EngineCache.
//       Bare --daemon picks an ephemeral port (printed to stderr;
//       --port-file additionally writes it for scripts).  --threads sets
//       the executor width per request, --service-workers how many
//       requests run concurrently, --queue-depth/--queue-deadline-ms/
//       --max-request-bytes the admission policy (rejected requests
//       carry retry_after_ms), --cache-budget the cache's byte budget in
//       MiB.  SIGTERM/SIGINT shut down cleanly (drain, stats line,
//       exit 0).
//   scenario_runner --send=HOST:PORT --campaign=FILE [--payload=FILE]
//       client mode: submit the campaign file to a running daemon and
//       print (or --payload-write) the DETERMINISTIC report payload —
//       byte-identical to a local --campaign --payload run.  --ping and
//       --service-stats instead probe liveness / fetch service counters.
//       Exit codes: 0 ok, 1 service-side error, 2 connection failure,
//       3 rejected by admission control (backpressure; retry later).
//   scenario_runner --topology=file --topo-params=path=graph.csr ...
//       run on a REAL graph: a binary CSR file produced by
//       tools/edgelist2csr from a text edge list (DESIGN.md §14).  Real
//       graphs are usually disconnected — set --alpha explicitly.  Works
//       everywhere a synthetic topology does: sweeps, campaigns, the
//       store, --serve/--connect workers and the daemon.
//
// Other flags: --alpha=A --eps=E (<= 0: measured / canonical), --fast,
// --threads=N (shard jobs across the engine pool; results are
// bit-identical for any N — see DESIGN.md §7/§8), --csv (emit CSV
// instead of the aligned tables), --json[=path] (the CampaignReport,
// to_json() with timing: bare --json replaces ALL tables on stdout with
// that one document, --json=path keeps the tables and writes the file),
// --stats (engine totals after the runs; table form only),
// --cache-budget=MB (byte budget for the process EngineCache; LRU-evicts
// idle entries, results unchanged), --cache-stats (cache counters +
// residency after the run).  Any other --flag is an error naming it (a
// typo such as --thread=4 must not silently run with the default).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "api/scenario_cli.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace fne {
namespace {

void list_registries() {
  std::cout << "topologies:\n";
  Table topo({"name", "params", "description"});
  for (const std::string& name : TopologyRegistry::instance().names()) {
    const TopologyEntry& e = TopologyRegistry::instance().at(name);
    std::string params;
    for (const ParamSpec& p : e.params) {
      if (!params.empty()) params += ", ";
      params += p.key;
      if (!p.default_value.empty()) params += "=" + p.default_value;
    }
    topo.row().cell(name).cell(params.empty() ? "-" : params).cell(e.doc);
  }
  topo.print(std::cout);

  std::cout << "\nfault models:\n";
  Table faults({"name", "params", "monotone", "description"});
  for (const std::string& name : FaultModelRegistry::instance().names()) {
    const FaultModelEntry& e = FaultModelRegistry::instance().at(name);
    std::string params;
    for (const ParamSpec& p : e.params) {
      if (!params.empty()) params += ", ";
      params += p.key;
      if (!p.default_value.empty()) params += "=" + p.default_value;
    }
    std::string monotone;
    for (const std::string& p : e.monotone_params) {
      if (!monotone.empty()) monotone += ", ";
      monotone += p;
    }
    faults.row()
        .cell(name)
        .cell(params.empty() ? "-" : params)
        .cell(monotone.empty() ? "-" : monotone)
        .cell(e.doc);
  }
  faults.print(std::cout);

  std::cout << "\nmetrics:\n";
  Table metrics({"name", "params", "description"});
  for (const std::string& name : MetricsRegistry::instance().names()) {
    const MetricEntry& e = MetricsRegistry::instance().at(name);
    std::string params;
    for (const ParamSpec& p : e.params) {
      if (!params.empty()) params += ", ";
      params += p.key;
      if (!p.default_value.empty()) params += "=" + p.default_value;
    }
    metrics.row().cell(name).cell(params.empty() ? "-" : params).cell(e.doc);
  }
  metrics.print(std::cout);

  std::cout << "\nnamed scenarios:\n";
  Table named({"name", "topology", "fault", "prune"});
  for (const Scenario& s : scenario_catalog()) {
    named.row()
        .cell(s.name)
        .cell(s.topology.name +
              (s.topology.params.empty() ? "" : "(" + s.topology.params.to_string() + ")"))
        .cell(s.fault.name +
              (s.fault.params.empty() ? "" : "(" + s.fault.params.to_string() + ")"))
        .cell(s.prune.kind == ExpansionKind::Node ? "prune (node)" : "prune2 (edge)");
  }
  named.print(std::cout);
}

[[nodiscard]] int parse_port(const std::string& text, const std::string& flag) {
  int port = 0;
  for (const char c : text) {
    FNE_REQUIRE(c >= '0' && c <= '9', flag + ": bad port '" + text + "'");
    port = port * 10 + (c - '0');
    FNE_REQUIRE(port < 65536, flag + ": bad port '" + text + "'");
  }
  FNE_REQUIRE(!text.empty(), flag + ": bad port '" + text + "'");
  return port;
}

/// --connect: serve as a pull worker for a coordinator running the same
/// campaign.  The worker has no report of its own beyond a summary line;
/// all result-shaping flags belong on the coordinator.
int run_worker(const Cli& cli, Campaign campaign) {
  for (const char* flag : {"serve", "workers", "threads", "store", "resume", "store-stats",
                           "payload", "json", "csv", "stats"}) {
    FNE_REQUIRE(!cli.has(flag),
                std::string("--") + flag + " does not apply to --connect (worker mode)");
  }
  const std::string target = cli.get("connect", "");
  FNE_REQUIRE(!target.empty() && target != "1", "--connect needs HOST:PORT (or PORT)");
  WorkerOptions opts;
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    opts.port = parse_port(target, "--connect");
  } else {
    opts.host = target.substr(0, colon);
    opts.port = parse_port(target.substr(colon + 1), "--connect");
  }
  opts.name = cli.get("worker-name", opts.name);
  opts.connect_attempts = static_cast<int>(cli.get_int("connect-attempts", opts.connect_attempts));

  DistWorker worker(std::move(campaign), opts);
  const WorkerReport report = worker.run();
  std::cout << "worker '" << opts.name << "': cells=" << report.cells
            << " metrics=" << report.metrics << " reconnects=" << report.reconnects
            << (report.saw_done ? " (campaign done)" : " (coordinator gone)") << "\n";
  if (report.fatal_mismatch) {
    std::cerr << "error: coordinator refused the handshake: different campaign or protocol\n";
    return 2;
  }
  if (!report.ever_connected) {
    std::cerr << "error: no coordinator reachable at " << target << "\n";
    return 1;
  }
  return 0;
}

// SIGTERM/SIGINT flag for --daemon; sig_atomic_t is all a handler may
// touch, and the main loop polls it.
volatile std::sig_atomic_t g_shutdown = 0;
extern "C" void daemon_signal_handler(int) { g_shutdown = 1; }

/// --daemon: run the scenario service until SIGTERM/SIGINT.
int run_daemon(const Cli& cli) {
  ServiceOptions opts;
  const std::string spec = cli.get("daemon", "");
  if (spec != "1") opts.port = parse_port(spec, "--daemon");
  opts.bind = cli.get("bind", opts.bind);
  opts.workers = static_cast<int>(cli.get_int("service-workers", opts.workers));
  opts.exec_threads = cli.get_threads(1);
  opts.queue_depth = static_cast<std::size_t>(
      cli.get_int("queue-depth", static_cast<std::int64_t>(opts.queue_depth)));
  opts.queue_deadline_ms = static_cast<std::uint64_t>(cli.get_int("queue-deadline-ms", 0));
  opts.max_request_bytes = static_cast<std::size_t>(
      cli.get_int("max-request-bytes", static_cast<std::int64_t>(opts.max_request_bytes)));
  opts.retry_after_ms = static_cast<std::uint64_t>(
      cli.get_int("retry-after-ms", static_cast<std::int64_t>(opts.retry_after_ms)));
  if (cli.has("cache-budget")) {
    opts.cache_budget_bytes = static_cast<std::uint64_t>(cli.get_int("cache-budget", 0)) << 20;
  }

  ScenarioService service(opts);
  service.start();
  std::cerr << "fne-service listening on " << opts.bind << ":" << service.port() << "\n";
  const std::string port_file = cli.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    FNE_REQUIRE(static_cast<bool>(out), "cannot write port file " + port_file);
    out << service.port() << "\n";
  }
  std::signal(SIGTERM, daemon_signal_handler);
  std::signal(SIGINT, daemon_signal_handler);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service.stop();
  const ServiceStats st = service.stats();
  const EngineCacheStats cache = EngineCache::instance().stats();
  std::cerr << "fne-service: connections=" << st.connections << " requests=" << st.requests
            << " completed=" << st.completed << " errors=" << st.errors
            << " cancelled=" << st.cancelled << " rejected="
            << (st.rejected_queue_full + st.rejected_expired + st.rejected_oversized)
            << " cache_bytes=" << cache.bytes_resident << " peak_bytes=" << cache.peak_bytes
            << " evictions=" << cache.evictions << "\n";
  if (!port_file.empty()) std::remove(port_file.c_str());
  return 0;
}

/// --send: submit one request to a running daemon.  Exit codes 0 ok,
/// 1 service error, 2 connection/transport failure, 3 rejected.
int run_client(const Cli& cli) {
  const std::string target = cli.get("send", "");
  FNE_REQUIRE(!target.empty() && target != "1", "--send needs HOST:PORT");
  const std::size_t colon = target.rfind(':');
  std::string host = "127.0.0.1";
  int port = 0;
  if (colon == std::string::npos) {
    port = parse_port(target, "--send");
  } else {
    host = target.substr(0, colon);
    port = parse_port(target.substr(colon + 1), "--send");
  }
  const int timeout_ms = static_cast<int>(cli.get_int("timeout-ms", 120000));

  try {
    ServiceClient client(host, port);
    ServiceResponse resp;
    if (cli.has("ping")) {
      resp = client.ping(timeout_ms);
    } else if (cli.has("service-stats")) {
      resp = client.stats(timeout_ms);
    } else {
      const std::string path = cli.get("campaign", "");
      FNE_REQUIRE(!path.empty() && path != "1",
                  "--send needs --campaign=FILE (or --ping / --service-stats)");
      std::ifstream in(path);
      FNE_REQUIRE(static_cast<bool>(in), "cannot read campaign file " + path);
      std::ostringstream text;
      text << in.rdbuf();
      resp = client.campaign(text.str(), static_cast<int>(cli.get_int("threads", 0)), timeout_ms);
    }
    if (resp.rejected()) {
      std::cerr << "rejected: " << resp.message << " (retry_after_ms=" << resp.retry_after_ms
                << ")\n";
      return 3;
    }
    if (!resp.ok()) {
      std::cerr << "error: " << resp.message << "\n";
      return 1;
    }
    const std::string payload_path = cli.get("payload", "");
    if (!payload_path.empty() && payload_path != "1") {
      std::ofstream out(payload_path);
      FNE_REQUIRE(static_cast<bool>(out), "cannot write payload to " + payload_path);
      out << resp.payload << "\n";
      std::cerr << "(payload written to " << payload_path << ")\n";
    } else if (!resp.payload.empty()) {
      std::cout << resp.payload << "\n";
    } else {
      std::cout << "ok\n";
    }
    return 0;
  } catch (const PreconditionError& e) {
    // Everything the client REQUIREs — connect refusal, send failure,
    // response timeout, corrupt stream — is a transport-class failure.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

void print_cache_stats(std::ostream& out) {
  const EngineCacheStats cs = EngineCache::instance().stats();
  out << "cache: leases=" << cs.leases << " engine_hits=" << cs.engine_hits
      << " engine_builds=" << cs.engine_builds << " graph_hits=" << cs.graph_hits
      << " graph_builds=" << cs.graph_builds << " evictions=" << cs.evictions
      << " bytes_resident=" << cs.bytes_resident << " peak_bytes=" << cs.peak_bytes
      << " budget_bytes=" << EngineCache::instance().budget_bytes() << "\n";
}

/// The campaign this invocation runs: --campaign=FILE|catalog, or the
/// ad-hoc scenario flags (--scenario/--topology/.../--sweep*) as a
/// one-entry campaign named after its scenario — so a file holding that
/// one entry under the same name yields the same payload.
[[nodiscard]] Campaign campaign_from_cli(const Cli& cli) {
  if (!cli.has("campaign")) {
    CampaignEntry entry{scenario_from_cli(cli), std::nullopt};
    if (cli.has("sweep")) {
      SweepSpec sweep;
      sweep.param = cli.get("sweep", "");
      sweep.values = cli.get_double_list("sweep-values", "");
      FNE_REQUIRE(!sweep.values.empty(), "--sweep needs --sweep-values=a,b,c");
      const std::string mode = cli.get("sweep-mode", "independent");
      FNE_REQUIRE(mode == "independent" || mode == "monotone",
                  "--sweep-mode must be independent or monotone");
      sweep.mode = mode == "monotone" ? SweepMode::kMonotone : SweepMode::kIndependent;
      entry.sweep = std::move(sweep);
    }
    Campaign campaign;
    campaign.name = entry.scenario.name;
    campaign.entries.push_back(std::move(entry));
    return campaign;
  }
  // Scenario-level flags have no campaign meaning (the file/preset owns
  // the scenario fields) — reject them loudly rather than silently
  // returning results the flags did not influence.
  for (const char* flag : {"scenario", "topology", "topo-params", "fault", "fault-params",
                           "kind", "alpha", "eps", "fast", "verify", "expansion", "metrics",
                           "seed", "sweep", "sweep-values", "sweep-mode", "churn-steps"}) {
    FNE_REQUIRE(!cli.has(flag), std::string("--") + flag +
                                    " does not apply to --campaign; set it in the campaign "
                                    "file (or run a single scenario)");
  }
  const std::string spec = cli.get("campaign", "");
  FNE_REQUIRE(spec == "catalog" || !cli.has("reps"),
              "--reps only applies to --campaign=catalog; file campaigns declare "
              "repetitions per scenario");
  return spec == "catalog" ? catalog_campaign(static_cast<int>(cli.get_int("reps", 1)))
                           : campaign_from_file(spec);
}

/// The human-readable report: one summary row per entry, then each
/// entry's runs table under a one-line description of its scenario.
void print_report(const CampaignReport& report, bool csv) {
  const auto emit = [&](const Table& table) {
    if (csv) {
      table.write_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  };
  std::cout << "campaign: " << report.name << " — " << report.scenarios.size()
            << " scenarios, " << report.threads
            << (report.threads == 1 ? " thread" : " threads") << ", " << report.millis
            << " ms\n\n";
  Table summary({"scenario", "topology", "n", "runs", "mean |H|/n", "culled", "engine iters",
                 "eigensolves", "ms"});
  for (const ScenarioReport& s : report.scenarios) {
    double frac = 0.0;
    std::uint64_t culled = 0;
    for (const ScenarioRun& r : s.runs) {
      frac += r.survivor_fraction(s.n);
      culled += r.prune.total_culled;
    }
    if (!s.runs.empty()) frac /= static_cast<double>(s.runs.size());
    summary.row()
        .cell(s.scenario.name)
        .cell(s.scenario.topology.name)
        .cell(std::size_t{s.n})
        .cell(s.runs.size())
        .cell(frac, 3)
        .cell(culled)
        .cell(s.engine.iterations)
        .cell(s.engine.eigensolves)
        .cell(s.millis, 1);
  }
  emit(summary);
  for (const ScenarioReport& s : report.scenarios) {
    const Scenario& sc = s.scenario;
    std::cout << "\n"
              << sc.name << ": " << sc.topology.name
              << (sc.topology.params.empty() ? "" : " (" + sc.topology.params.to_string() + ")")
              << ", fault " << sc.fault.name
              << (sc.fault.params.empty() ? "" : " (" + sc.fault.params.to_string() + ")")
              << ", " << (sc.prune.kind == ExpansionKind::Node ? "Prune (node)" : "Prune2 (edge)")
              << " alpha=" << s.alpha << " eps=" << s.epsilon
              << (sc.prune.fast ? " [fast]" : "") << "\n";
    emit(runs_table(s));
  }
}

int run_campaign(const Cli& cli) {
  Campaign campaign = campaign_from_cli(cli);
  if (cli.has("connect")) return run_worker(cli, std::move(campaign));
  FNE_REQUIRE(!cli.has("workers") || cli.has("serve"), "--workers needs --serve");
  const int threads = cli.get_threads(1);
  // Bare `--json` parses as the value "1": JSON replaces the tables on
  // stdout.  `--json=path` keeps the tables and writes the file.
  const std::string json_path = cli.get("json", "");
  const bool json_to_stdout = json_path == "1";
  // --churn-steps: the ad-hoc scenario, re-pruned every churn round on
  // one leased engine after the campaign (table output only).
  const auto churn_steps = static_cast<int>(cli.get_int("churn-steps", 0));
  std::optional<Scenario> churn_scenario;
  if (churn_steps > 0 && !json_to_stdout) churn_scenario = campaign.entries.front().scenario;

  // --store=DIR / --resume: route the run through a ResultStore.
  // --resume is the convenience spelling with a conventional directory,
  // so "my campaign died, run it again" needs no bookkeeping.
  std::string store_dir = cli.get("store", "");
  FNE_REQUIRE(!cli.has("store") || (!store_dir.empty() && store_dir != "1"),
              "--store needs a directory: --store=DIR");
  if (cli.has("resume") && store_dir.empty()) store_dir = ".fne-store";
  FNE_REQUIRE(!cli.has("store-stats") || !store_dir.empty(),
              "--store-stats needs --store=DIR (or --resume)");
  const std::string payload_path = cli.get("payload", "");
  FNE_REQUIRE(!cli.has("payload") || (!payload_path.empty() && payload_path != "1"),
              "--payload needs a path: --payload=FILE");
  std::unique_ptr<ResultStore> store;
  if (!store_dir.empty()) store = std::make_unique<ResultStore>(store_dir);

  std::optional<DistStats> dist_stats;
  const CampaignReport report = [&] {
    if (!cli.has("serve")) {
      CampaignRunner runner(std::move(campaign));
      return runner.run(threads, store.get());
    }
    DistOptions dopts;
    const std::string serve = cli.get("serve", "");
    if (serve != "1") dopts.port = parse_port(serve, "--serve");
    dopts.bind = cli.get("bind", dopts.bind);
    dopts.local_threads = threads;
    dopts.job_timeout_ms = cli.get_double("job-timeout-ms", dopts.job_timeout_ms);
    dopts.lease_cap_ms = std::max(dopts.lease_cap_ms, dopts.job_timeout_ms);
    dopts.retry_budget = static_cast<int>(cli.get_int("retry-budget", dopts.retry_budget));
    dopts.backoff_base_ms = cli.get_double("backoff-base-ms", dopts.backoff_base_ms);
    dopts.backoff_max_ms = cli.get_double("backoff-max-ms", dopts.backoff_max_ms);
    dopts.heartbeat_ms = cli.get_double("heartbeat-ms", dopts.heartbeat_ms);
    dopts.idle_grace_ms = cli.get_double("idle-grace-ms", dopts.idle_grace_ms);
    const int in_process = static_cast<int>(cli.get_int("workers", 0));

    const Campaign worker_campaign = campaign;  // copied before the move
    DistCoordinator coordinator(std::move(campaign), dopts, store.get());
    std::cerr << "serving campaign on " << dopts.bind << ":" << coordinator.port() << "\n";
    std::vector<std::unique_ptr<DistWorker>> workers;
    std::vector<std::thread> worker_threads;
    for (int i = 0; i < in_process; ++i) {
      WorkerOptions wopts;
      wopts.port = coordinator.port();
      wopts.name = "local-" + std::to_string(i);
      workers.push_back(std::make_unique<DistWorker>(worker_campaign, wopts));
      worker_threads.emplace_back([w = workers.back().get()] { (void)w->run(); });
    }
    CampaignReport rep = coordinator.run();
    for (const auto& w : workers) w->stop();
    for (std::thread& th : worker_threads) th.join();
    dist_stats = coordinator.stats();
    return rep;
  }();

  if (!json_to_stdout) {
    print_report(report, cli.has("csv"));
    if (cli.has("stats")) {
      const EngineStats st = report.total_engine_stats();
      std::cout << "\nengine totals: runs=" << st.runs << " iters=" << st.iterations
                << " eigensolves=" << st.eigensolves << " stale_sweeps=" << st.stale_sweeps
                << " stale_hits=" << st.stale_sweep_hits
                << " disconnected=" << st.disconnected_culls
                << " relabel_bfs=" << st.relabel_bfs_calls
                << " relabel_verts=" << st.relabel_bfs_vertices << "\n";
    }
  }
  if (churn_scenario.has_value()) {
    ScenarioRunner runner(*churn_scenario);
    ChurnOptions copts;
    copts.steps = churn_steps;
    copts.p_leave = cli.get_double("p-leave", copts.p_leave);
    copts.p_join = cli.get_double("p-join", copts.p_join);
    copts.seed = churn_scenario->seed + 17;
    const ChurnRunTrace trace = runner.run_churn(copts);
    std::cout << "\nchurn (" << churn_steps << " rounds, p_leave=" << copts.p_leave
              << ", p_join=" << copts.p_join << "), re-pruned per round on one engine:\n";
    Table churn({"round", "alive", "gamma", "|H|", "culled", "iters", "prune ms"});
    const int stride = std::max(1, churn_steps / 10);
    for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
      if (static_cast<int>(i) % stride != 0 && i + 1 != trace.rounds.size()) continue;
      const ChurnRoundRun& r = trace.rounds[i];
      churn.row()
          .cell(std::size_t{i})
          .cell(std::size_t{r.churn.alive_count})
          .cell(r.churn.gamma, 3)
          .cell(std::size_t{r.survivors})
          .cell(std::size_t{r.culled})
          .cell(r.iterations)
          .cell(r.prune_millis, 2);
    }
    churn.print(std::cout);
    std::cout << "total per-round prune time: " << trace.total_prune_millis() << " ms\n";
  }
  if (dist_stats) {
    std::ostream& out = json_to_stdout ? std::cerr : std::cout;
    out << "dist: sessions=" << dist_stats->sessions << " disconnects=" << dist_stats->disconnects
        << " assignments=" << dist_stats->assignments << " timeouts=" << dist_stats->timeouts
        << " requeues=" << dist_stats->requeues << " remote="
        << (dist_stats->remote_cells + dist_stats->remote_metrics) << " local="
        << (dist_stats->local_cells + dist_stats->local_metrics)
        << " duplicates=" << dist_stats->duplicates << " rejected="
        << (dist_stats->rejected_corrupt + dist_stats->rejected_wrong_key +
            dist_stats->rejected_bad_payload)
        << " fallback=" << dist_stats->fallback_jobs << "\n";
  }
  if (cli.has("store-stats")) {
    // Keep a --json stdout stream pure JSON; the stats go to stderr there.
    // The "store: hits=... misses=..." prefix is load-bearing: the
    // reproduce harness greps it to assert warm replays (validate.sh).
    std::ostream& out = json_to_stdout ? std::cerr : std::cout;
    out << "store: hits=" << report.store.hits << " misses=" << report.store.misses
        << " loaded_bytes=" << report.store.bytes_loaded
        << " committed_bytes=" << report.store.bytes_committed
        << " records=" << store->stats().records
        << " corrupt_records=" << report.store.corrupt_records
        << " truncated_bytes=" << report.store.truncated_bytes
        << " rotated_files=" << report.store.rotated_files
        << " alpha_measured=" << report.store.alpha_measured
        << " graph_builds=" << report.cache.graph_builds << "\n";
  }
  if (cli.has("cache-stats")) {
    // Same stream policy as --store-stats: never corrupt a JSON stdout.
    print_cache_stats(json_to_stdout ? std::cerr : std::cout);
  }
  if (!payload_path.empty()) {
    std::ofstream out(payload_path);
    FNE_REQUIRE(static_cast<bool>(out), "cannot write payload to " + payload_path);
    out << report.to_json(/*include_timing=*/false) << "\n";
    std::cerr << "(payload written to " << payload_path << ")\n";
  }
  if (json_to_stdout) {
    std::cout << report.to_json() << "\n";
  } else if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (out) {
      out << report.to_json() << "\n";
      std::cerr << "(json written to " << json_path << ")\n";
    } else {
      std::cerr << "warning: cannot write json report to " << json_path << "\n";
    }
  }
  return 0;
}

int run(const Cli& cli) {
  if (cli.has("daemon")) return run_daemon(cli);
  if (cli.has("send")) return run_client(cli);
  // Local runs honor the same budget flag as the daemon (MiB).
  if (cli.has("cache-budget")) {
    EngineCache::instance().set_budget_bytes(
        static_cast<std::uint64_t>(cli.get_int("cache-budget", 0)) << 20);
  }
  return run_campaign(cli);
}

}  // namespace
}  // namespace fne

int main(int argc, char** argv) {
  const fne::Cli cli(argc, argv);
  try {
    // Every flag any mode reads; one list so a flag no mode reads fails
    // up front instead of being silently ignored.
    cli.require_known({"alpha", "backoff-base-ms", "backoff-max-ms", "bind", "cache-budget",
                       "cache-stats", "campaign", "churn-steps", "connect", "connect-attempts",
                       "csv", "daemon", "eps", "expansion", "fast", "fault", "fault-params",
                       "heartbeat-ms", "idle-grace-ms", "job-timeout-ms", "json", "kind", "list",
                       "max-request-bytes", "metrics", "p-join", "p-leave", "payload", "ping",
                       "port-file", "queue-deadline-ms", "queue-depth", "reps", "resume",
                       "retry-after-ms", "retry-budget", "scenario", "seed", "send", "serve",
                       "service-stats", "service-workers", "stats", "store", "store-stats",
                       "sweep", "sweep-mode", "sweep-values", "threads", "timeout-ms",
                       "topo-params", "topology", "verify", "worker-name", "workers"});
    if (cli.has("list")) {
      fne::list_registries();
      return 0;
    }
    return fne::run(cli);
  } catch (const fne::PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n(use --list to see registered names and params)\n";
    return 1;
  }
}
