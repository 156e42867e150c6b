#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/plan_text.h"

namespace intcomp {
namespace net {

namespace {

// Counter bump that also feeds the metrics registry when it is enabled, so
// load_gen exports net.* next to engine.* and perf_check can gate both.
void Count(std::atomic<uint64_t>* local, const char* name) {
  local->fetch_add(1, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::Global();
  if (reg.Enabled()) reg.AddCounter(name, 1);
}

}  // namespace

QueryServer::QueryServer(IndexService* service, const ServerOptions& options)
    : service_(service),
      options_(options),
      domain_(std::max<uint64_t>(service->Snapshot()->NumRows(), 1)) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  wire_codec_ = FindCodec(options_.wire_codec);
  if (wire_codec_ == nullptr) {
    return Status::InvalidArgument("unknown wire codec: " +
                                   options_.wire_codec);
  }

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.ok()) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd.get(), 128) != 0) return ErrnoStatus("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &blen) !=
      0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = std::move(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryServer::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    ReapFinished(/*all=*/false);
    const int cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down; anything else (EMFILE, ...) also
      // ends the accept loop rather than spinning on a broken listener.
      break;
    }
    ScopedFd conn(cfd);
    Count(&accepted_, "net.accepted");
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (conn_fds_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      Count(&refused_, "net.refused");
      continue;  // ScopedFd closes: connection refused by resource cap
    }
    const uint64_t id = next_conn_id_++;
    conn_fds_.emplace(id, conn.get());
    conns_.emplace(id, std::thread([this, id, c = std::move(conn)]() mutable {
                     ServeConnection(std::move(c), id);
                   }));
  }
}

void QueryServer::ServeConnection(ScopedFd fd, uint64_t conn_id) {
  if (options_.idle_timeout_ms > 0) {
    (void)SetRecvTimeoutMs(fd.get(), options_.idle_timeout_ms);
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  FrameDecoder decoder(options_.max_payload_bytes);
  std::vector<uint8_t> payload, reply;
  uint8_t buf[64 * 1024];

  while (true) {
    Status frame_err = Status::Ok();
    const FrameDecoder::Result r = decoder.Next(&payload, &frame_err);
    if (r == FrameDecoder::Result::kBad) {
      // Framing is unrecoverable: one best-effort error reply, then close.
      Count(&malformed_, "net.malformed");
      reply.clear();
      QueryResponse resp;
      resp.code = frame_err.code();
      resp.message = frame_err.message();
      EncodeResponseFrame(resp, &reply);
      (void)WriteAll(fd.get(), reply.data(), reply.size());
      break;
    }
    if (r == FrameDecoder::Result::kFrame) {
      QueryRequest req;
      reply.clear();
      const Status ps =
          ParseRequestPayload(payload, options_.max_payload_bytes, &req);
      if (!ps.ok()) {
        // The frame itself was intact (magic + CRC), so the stream is still
        // aligned: report the bad payload and keep serving.
        Count(&malformed_, "net.malformed");
        QueryResponse resp;
        resp.code = ps.code();
        resp.message = ps.message();
        EncodeResponseFrame(resp, &reply);
      } else {
        HandleRequest(req, &reply);
      }
      if (!WriteAll(fd.get(), reply.data(), reply.size()).ok()) break;
      continue;
    }
    // kNeedMore: pull more bytes from the socket.
    size_t n = 0;
    const Status rs = ReadSome(fd.get(), buf, sizeof(buf), &n);
    if (!rs.ok()) {
      if (rs.code() == StatusCode::kDeadlineExceeded) {
        Count(&idle_closed_, "net.idle_closed");
      }
      break;
    }
    if (n == 0) break;  // peer closed (or Stop()'s SHUT_RD drained to EOF)
    decoder.Feed(buf, n);
  }

  std::lock_guard<std::mutex> lk(conns_mu_);
  conn_fds_.erase(conn_id);
  finished_.push_back(conn_id);
  conns_cv_.notify_all();
}

void QueryServer::HandleRequest(const QueryRequest& req,
                                std::vector<uint8_t>* reply) {
  Count(&requests_, "net.requests");
  QueryResponse resp;

  if (req.type == MsgType::kPing) {
    EncodeResponseFrame(resp, reply);
    return;
  }

  // Admission control: reserve an in-flight slot or shed immediately. The
  // CAS loop (rather than fetch_add + undo) never overshoots the budget, so
  // a rejected request can't transiently push a concurrent admit over.
  size_t cur = in_flight_.load(std::memory_order_relaxed);
  bool admitted = false;
  while (cur < options_.max_in_flight) {
    if (in_flight_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel)) {
      admitted = true;
      break;
    }
  }
  if (!admitted) {
    Count(&overloaded_, "net.overloaded");
    const Status st =
        Status::Overloaded("server overloaded: in-flight budget exhausted");
    resp.code = st.code();
    resp.message = st.message();
    EncodeResponseFrame(resp, reply);
    return;
  }
  struct SlotRelease {
    std::atomic<size_t>* slots;
    ~SlotRelease() { slots->fetch_sub(1, std::memory_order_release); }
  } release{&in_flight_};
  if (options_.on_admitted) options_.on_admitted();

  TRACE_SPAN("net_request");
  obs::ScopedOpTimer timer(wire_codec_->Name(), obs::OpKind::kNetRequest);

  Status st;
  std::vector<uint32_t> rows;
  QueryPlan plan;
  st = ParsePlanText(req.plan_text, &plan);
  if (st.ok()) {
    CancellationToken token;
    token.ChainParent(&drain_token_);
    const uint64_t deadline_ns =
        req.deadline_ns != 0 ? req.deadline_ns : options_.default_deadline_ns;
    token.SetDeadlineAfterNs(deadline_ns);
    st = service_->Query(plan, &token, &rows);
  }

  if (st.ok()) {
    // The result rows ride back as a compressed-set image of the wire codec
    // — the same Serialize/DeserializeChecked boundary disk images cross.
    const auto set = wire_codec_->Encode(rows, domain_);
    resp.has_rows = true;
    resp.codec_name = wire_codec_->Name();
    resp.domain = domain_;
    wire_codec_->Serialize(*set, &resp.image);
    const size_t start = reply->size();
    EncodeResponseFrame(resp, reply);
    if (reply->size() - start - kFrameHeaderBytes <=
        options_.max_payload_bytes) {
      Count(&ok_, "net.ok");
      return;
    }
    // Too large for a frame: the client would see a framing error and lose
    // the connection, so answer with a typed error instead.
    reply->resize(start);
    resp = QueryResponse{};
    st = Status::InvalidArgument("result image exceeds the reply payload cap");
  }
  if (st.code() == StatusCode::kDeadlineExceeded ||
      st.code() == StatusCode::kCancelled) {
    Count(&deadline_, "net.deadline");
  } else if (st.code() == StatusCode::kInvalidArgument) {
    Count(&rejected_, "net.rejected");
  }
  resp.code = st.code();
  resp.message = st.message();
  EncodeResponseFrame(resp, reply);
}

void QueryServer::ReapFinished(bool all) {
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (all) {
      for (auto& [id, t] : conns_) joinable.push_back(std::move(t));
      conns_.clear();
      finished_.clear();
    } else {
      for (uint64_t id : finished_) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;  // already taken by an all-reap
        joinable.push_back(std::move(it->second));
        conns_.erase(it);
      }
      finished_.clear();
    }
  }
  // Joins happen outside conns_mu_: the exiting thread's own cleanup takes
  // that lock, so joining under it would deadlock.
  for (std::thread& t : joinable) t.join();
}

void QueryServer::Stop() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // A concurrent/previous Stop() owns the drain; wait for its join.
    if (accept_thread_.joinable()) return;  // destructor will re-enter
    return;
  }

  // 1. Stop accepting: shutdown() wakes a blocked accept() where a plain
  //    close() would not; the fd itself stays alive until the thread joins.
  if (listen_fd_.ok()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Reset();

  // 2. Half-close every live connection: readers wake with EOF and exit,
  //    but responses for in-flight requests still flush on the write side.
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RD);
  }

  // 3. Grace period, then trip the drain token so any query still running
  //    finishes promptly as kCancelled.
  {
    std::unique_lock<std::mutex> lk(conns_mu_);
    conns_cv_.wait_for(lk, std::chrono::milliseconds(options_.drain_timeout_ms),
                       [this] { return conn_fds_.empty(); });
  }
  drain_token_.Cancel();

  // 4. Join everything; Stop() returns only once no connection thread runs.
  ReapFinished(/*all=*/true);
}

QueryServer::Stats QueryServer::GetStats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.deadline = deadline_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace intcomp
