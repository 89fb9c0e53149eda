#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "dist/message.hpp"
#include "store/record.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

constexpr int kHandshakeTimeoutMs = 5000;
constexpr int kMaxReconnectBackoffMs = 1000;

enum class ConnEnd {
  kReconnect,  ///< connection is dead/untrusted; try again
  kExit,       ///< run() is over (DONE, stop(), kill hook, mismatch)
  kZombie,     ///< kill_mid_job: exit but keep the socket open, so the
               ///< coordinator must reap the lease by deadline
};

}  // namespace

DistWorker::DistWorker(Campaign campaign, WorkerOptions options)
    : campaign_(std::move(campaign)), opts_(std::move(options)) {}

WorkerReport DistWorker::run() {
  WorkerReport report;
  CampaignPlan plan(campaign_, 1);
  const std::uint64_t fingerprint = wire_fingerprint(plan.fingerprint());
  std::uint64_t submitted = 0;

  const auto sleep_checking_stop = [&](int ms) {
    Timer t;
    while (!stop_.load() && t.millis() < ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(std::min(ms, 10)));
    }
  };

  // Everything one connection does, handshake to grave.  `transport` is
  // shared with the per-job heartbeat thread, hence the send mutex.
  const auto drive = [&](Transport& transport) -> ConnEnd {
    FrameBuffer buf;
    Message msg;
    std::mutex send_mutex;
    const auto send_msg = [&](MsgType type, std::string payload) {
      const std::string frame = encode_frame({type, std::move(payload)});
      std::lock_guard<std::mutex> lk(send_mutex);
      return transport.send(frame);
    };

    if (!send_msg(MsgType::kHello, encode_hello({fingerprint, opts_.name}))) {
      return ConnEnd::kReconnect;
    }
    const Timer handshake;
    for (bool welcomed = false; !welcomed;) {
      if (stop_.load() || handshake.millis() > kHandshakeTimeoutMs) return ConnEnd::kReconnect;
      switch (read_message(transport, buf, msg, opts_.recv_timeout_ms)) {
        case ReadStatus::kMessage:
          if (msg.type == MsgType::kWelcome) {
            const auto welcome = decode_welcome(msg.payload);
            if (!welcome) return ConnEnd::kReconnect;
            if (!welcome->ok) {
              report.fatal_mismatch = true;
              return ConnEnd::kExit;
            }
            welcomed = true;
            break;
          }
          if (msg.type == MsgType::kDone) {
            report.saw_done = true;
            return ConnEnd::kExit;
          }
          return ConnEnd::kReconnect;  // anything else pre-WELCOME is garbage
        case ReadStatus::kTimeout:
          break;
        default:
          return ConnEnd::kReconnect;
      }
    }

    for (;;) {
      if (stop_.load()) return ConnEnd::kExit;
      if (!send_msg(MsgType::kPull, "")) return ConnEnd::kReconnect;

      const Timer idle;
      for (bool got = false; !got;) {
        if (stop_.load()) return ConnEnd::kExit;
        if (idle.millis() > opts_.idle_timeout_ms) return ConnEnd::kReconnect;
        switch (read_message(transport, buf, msg, opts_.recv_timeout_ms)) {
          case ReadStatus::kMessage:
            got = true;
            break;
          case ReadStatus::kTimeout:
            break;
          default:
            return ConnEnd::kReconnect;
        }
      }

      if (msg.type == MsgType::kDone) {
        report.saw_done = true;
        return ConnEnd::kExit;
      }
      if (msg.type == MsgType::kWait) {
        const auto wait = decode_wait(msg.payload);
        const int ms = wait ? static_cast<int>(std::min<std::uint64_t>(wait->retry_ms, 500))
                            : opts_.recv_timeout_ms;
        sleep_checking_stop(std::max(ms, 1));
        continue;
      }
      if (msg.type != MsgType::kJob) return ConnEnd::kReconnect;

      const auto assignment = decode_job(msg.payload);
      if (!assignment || assignment->index >= plan.num_jobs()) return ConnEnd::kReconnect;
      const std::size_t index = static_cast<std::size_t>(assignment->index);
      const CampaignJob& job = plan.job(index);
      // The coordinator's word is checked against OUR plan: same index
      // must mean same kind and same content key, or this connection is
      // serving a different campaign than the handshake claimed.
      if (assignment->kind != static_cast<std::uint32_t>(job.kind) ||
          assignment->key != job.key) {
        return ConnEnd::kReconnect;
      }
      if (opts_.kill_mid_job) return ConnEnd::kZombie;

      std::atomic<bool> heartbeat_stop{false};
      const double period =
          static_cast<double>(std::max<std::uint64_t>(assignment->heartbeat_ms, 20));
      std::thread heartbeat([&] {
        Timer since;
        while (!heartbeat_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          if (since.millis() >= period) {
            (void)send_msg(MsgType::kHeartbeat, encode_heartbeat({assignment->index}));
            since.reset();
          }
        }
      });

      std::string data;
      bool computed = false;
      try {
        if (job.kind == CampaignJob::Kind::kMetric) {
          const auto parents = decode_runs(assignment->parent_runs);
          if (parents && parents->size() == 1) {
            const MetricRecord record = plan.compute_metric(index, parents->front());
            data = encode_metric_record({record.name, record.payload, record.brief});
            computed = true;
          }
        } else {
          const std::vector<ScenarioRun> runs = plan.compute_cell(index);
          data = encode_runs(runs);
          computed = true;
        }
      } catch (...) {
        computed = false;  // drop the connection; the job is retried elsewhere
      }
      heartbeat_stop.store(true);
      heartbeat.join();
      if (!computed) return ConnEnd::kReconnect;

      ResultPayload result;
      result.index = assignment->index;
      result.kind = assignment->kind;
      result.key = job.key;
      result.data = std::move(data);
      if (!send_msg(MsgType::kResult, encode_result(result))) return ConnEnd::kReconnect;
      if (job.kind == CampaignJob::Kind::kMetric) {
        ++report.metrics;
      } else {
        ++report.cells;
      }
      ++submitted;
      if (opts_.kill_after_results >= 0 &&
          submitted >= static_cast<std::uint64_t>(opts_.kill_after_results)) {
        return ConnEnd::kExit;  // abrupt: no goodbye, like a SIGKILL
      }
    }
  };

  int failures = 0;
  int backoff = std::max(opts_.reconnect_backoff_ms, 1);
  while (!stop_.load()) {
    std::unique_ptr<Transport> transport =
        tcp_connect(opts_.host, opts_.port, opts_.connect_timeout_ms);
    if (!transport) {
      if (++failures > opts_.connect_attempts) break;
      sleep_checking_stop(backoff);
      backoff = std::min(backoff * 2, kMaxReconnectBackoffMs);
      continue;
    }
    if (report.ever_connected) ++report.reconnects;
    report.ever_connected = true;
    failures = 0;
    backoff = std::max(opts_.reconnect_backoff_ms, 1);
    if (opts_.faults.any()) {
      transport = std::make_unique<FaultyTransport>(std::move(transport), opts_.faults);
    }
    const ConnEnd end = drive(*transport);
    if (end == ConnEnd::kZombie) {
      zombie_ = std::move(transport);  // lease dies by deadline, not by EOF
      return report;
    }
    transport->shutdown();
    if (end == ConnEnd::kExit) return report;
  }
  return report;
}

}  // namespace fne
