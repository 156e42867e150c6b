// QueryServer — the length-prefixed TCP front end over IndexService
// (DESIGN.md §5.14).
//
// Threading model: one accept thread plus one thread per live connection.
// Connection threads do the protocol work (framing, parsing, response
// encoding) and call IndexService::Query, whose shard fan-out runs on the
// shared work-stealing ThreadPool — so the pool stays the single execution
// backbone and connection threads are just I/O pumps that block on it.
// Query's ParallelFor waits only for its own shard tasks, never for pool
// quiescence, so concurrent connections do not wait on each other. Request
// handling still stays off the pool: a handler running as a pool task
// would hold that worker while it blocks in ParallelFor, and with every
// worker so held the shard tasks could never run.
//
// Admission control: a bounded in-flight budget (`max_in_flight`). A query
// arriving with the budget exhausted is shed immediately with an explicit
// kOverloaded reply — the client learns to back off in one round trip —
// instead of queueing unboundedly in front of the pool, which under an
// open-loop arrival process would convert overload into unbounded latency
// for every request behind it. Connections beyond `max_connections` are
// refused at accept.
//
// Deadlines: each request's relative deadline (or the server default) is
// armed on a per-request CancellationToken chained onto the server's drain
// token; IndexService polls it at plan-node boundaries, so an expired
// deadline frees the connection's worker within one decode/intersect and
// the client gets kDeadlineExceeded. A client that stalls mid-frame is
// bounded by `idle_timeout_ms` (socket receive timeout) and costs no pool
// worker at all — only its own connection thread, which then exits.
//
// Error containment: a malformed payload inside a valid frame gets a
// Status error reply and the connection continues; a framing error (bad
// magic, oversized declared length, CRC mismatch) gets one error reply and
// a close, because the byte stream has lost alignment. Nothing a client
// sends can crash the server — the protocol fuzz campaign pins this down.
// A result whose reply would exceed `max_payload_bytes` is answered with a
// kInvalidArgument reply (counted as rejected) instead of an oversized
// frame, so the connection stays usable.
//
// Reply domain: every row image is encoded over the service's row count,
// read once at construction; IndexService::SwapSnapshot refuses a
// snapshot with a different row count, so the domain cannot drift.
//
// Drain protocol (Stop()):
//   1. stop accepting (listener closed),
//   2. shutdown(SHUT_RD) every connection — in-flight requests keep
//      computing and their responses still flow back; idle readers wake
//      with EOF and exit,
//   3. after `drain_timeout_ms`, trip the drain token so runaway queries
//      finish as kCancelled,
//   4. join every thread. Stop() returns only when the last connection is
//      gone, so destruction is race-free.

#ifndef INTCOMP_NET_SERVER_H_
#define INTCOMP_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cancel.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "service/sharded_index.h"

namespace intcomp {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;             // 0 = ephemeral; see QueryServer::port()
  size_t max_in_flight = 64;     // admission budget (queries being evaluated)
  size_t max_connections = 256;  // accept-time cap
  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  uint64_t default_deadline_ns = 0;   // applied when a request carries none
  uint64_t idle_timeout_ms = 30000;   // stalled-client bound (0 = none)
  uint64_t drain_timeout_ms = 5000;   // Stop(): grace before cancelling
  std::string wire_codec = "VB";      // registry codec for response rows
  // Test hook: runs on the connection thread for every admitted query,
  // while the admission slot is held and before evaluation — lets tests
  // park a request deterministically to observe overload shedding.
  std::function<void()> on_admitted;
};

class QueryServer {
 public:
  // `service` is borrowed and must outlive the server.
  QueryServer(IndexService* service, const ServerOptions& options);
  ~QueryServer();  // implies Stop()

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, and spawns the accept thread. kUnavailable on bind
  // failure (port taken), kInvalidArgument for an unknown wire codec.
  Status Start();

  // The bound port (after Start(); the interesting case is port 0 in the
  // options, where the kernel picked).
  uint16_t port() const { return port_; }

  // Graceful drain; idempotent; implied by the destructor.
  void Stop();

  // Point-in-time counters (also exported as net.* metrics when the
  // registry is enabled).
  struct Stats {
    uint64_t accepted = 0;
    uint64_t refused = 0;        // over max_connections
    uint64_t requests = 0;       // well-formed requests seen
    uint64_t ok = 0;
    uint64_t overloaded = 0;     // shed by admission control
    uint64_t deadline = 0;       // kDeadlineExceeded replies
    uint64_t rejected = 0;       // kInvalidArgument replies (bad plan,
                                 // result over the payload cap)
    uint64_t malformed = 0;      // framing/payload errors
    uint64_t idle_closed = 0;    // stalled clients reaped by idle timeout
  };
  Stats GetStats() const;

  size_t InFlight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(ScopedFd fd, uint64_t conn_id);
  // Handles one parsed request; appends the response frame to *reply.
  void HandleRequest(const QueryRequest& req, std::vector<uint8_t>* reply);
  void ReapFinished(bool all);

  IndexService* service_;
  ServerOptions options_;
  const uint64_t domain_;  // row-id domain of every reply image
  const Codec* wire_codec_ = nullptr;

  ScopedFd listen_fd_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  CancellationToken drain_token_;  // parent of every per-request token

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;                 // fires on conn exit
  std::unordered_map<uint64_t, int> conn_fds_;       // live sockets, by id
  std::unordered_map<uint64_t, std::thread> conns_;  // live + unreaped
  std::vector<uint64_t> finished_;                   // ids ready to join
  uint64_t next_conn_id_ = 0;

  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> accepted_{0}, refused_{0}, requests_{0}, ok_{0},
      overloaded_{0}, deadline_{0}, rejected_{0}, malformed_{0},
      idle_closed_{0};
};

}  // namespace net
}  // namespace intcomp

#endif  // INTCOMP_NET_SERVER_H_
