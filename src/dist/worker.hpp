// DistWorker — the pull side of the distributed campaign runtime
// (DESIGN.md §12).
//
// A worker builds its OWN CampaignPlan of the same campaign (plan
// construction is pure, so job indices, keys and the fingerprint agree
// with the coordinator's by construction — and the HELLO handshake
// checks the fingerprint anyway), then loops: PULL, compute the assigned
// job through the plan's pure functions on this process's EngineCache,
// RESULT the bytes back.  While computing it HEARTBEATs so the
// coordinator keeps the lease alive; every assignment is re-verified
// against the local plan (index, kind, key) before any work happens —
// a coordinator serving a different campaign is a fatal mismatch, not a
// garbage result.
//
// Failure posture: any transport trouble — send failure, EOF, corrupt
// stream — abandons the connection and reconnects with capped backoff;
// the coordinator's lease bookkeeping absorbs whatever was in flight.
// A worker can therefore be killed at ANY point (the chaos tests do,
// via the kill_* hooks below and via SIGKILL in CI) without affecting
// campaign correctness, only placement.
//
// Exit meaning (WorkerReport): saw_done means the campaign completed;
// reconnect exhaustion after having been connected usually means the
// coordinator finished and left — also a clean exit for the CLI.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/campaign.hpp"
#include "dist/transport.hpp"

namespace fne {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string name = "worker";
  int connect_timeout_ms = 1000;
  int connect_attempts = 40;     ///< reconnect tries before giving up
  int reconnect_backoff_ms = 50; ///< doubled per failure, capped at 1s
  int recv_timeout_ms = 250;     ///< io poll granularity
  int idle_timeout_ms = 10000;   ///< max silence after a PULL before reconnect
  FaultSchedule faults{};        ///< chaos: injected on this worker's sends
  int kill_after_results = -1;   ///< chaos: die abruptly after N submissions
  bool kill_mid_job = false;     ///< chaos: die silently holding a lease
};

struct WorkerReport {
  std::uint64_t cells = 0;    ///< results submitted by kind
  std::uint64_t metrics = 0;
  std::uint64_t reconnects = 0;
  bool ever_connected = false;
  bool saw_done = false;        ///< coordinator said the campaign is complete
  bool fatal_mismatch = false;  ///< WELCOME refused us: wrong campaign/build
};

class DistWorker {
 public:
  DistWorker(Campaign campaign, WorkerOptions options);

  /// Serve until DONE, a kill hook fires, reconnects are exhausted, or
  /// stop().  Safe to call once.
  [[nodiscard]] WorkerReport run();

  /// Thread-safe: ask a running worker to exit at the next loop edge.
  void stop() { stop_.store(true); }

 private:
  Campaign campaign_;
  WorkerOptions opts_;
  std::atomic<bool> stop_{false};
  /// kill_mid_job parks the connection here instead of closing it: the
  /// coordinator gets no EOF and must reap the abandoned lease by
  /// deadline — the exact failure a silently hung worker produces.
  std::unique_ptr<Transport> zombie_;
};

}  // namespace fne
