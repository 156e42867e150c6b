// serve_bench — the serving benchmark: one workload of verified traffic
// through the whole stack, ending in one JSON result line.
//
//   serve_bench --workload serve_eval|serve_hot --seed N
//               --seconds S --trace 0|1 --data-dir DIR
//
// Stack: the generated lists are built into a Planner-coded ShardedIndex
// (the planner picks Roaring, EWAH, SIMDPforDelta* or PEF per list), which
// LiveIndex::Create writes with WriteIndexFile and opens through
// MappedIndex. The LiveIndex is attached to an IndexService (4 shards, a
// 4-worker pool) served by a QueryServer on loopback; QueryClient is the
// client. The load generator runs in this process, so it shares the host
// with the server.
//
// --trace 0 measures the end-to-end metrics: set-up time, open-loop query
// latency at a fixed nominal rate, verified closed-loop throughput, update
// latency, space and memory. --trace 1 is a separate run that attributes a
// request's time to the repository's modules by timing calls into their
// public functions from this file (see Tracer); it reports the per-layer
// metrics and how much tracing slowed the requests.
//
// Every reply is checked against the oracle (oracle.h). A healthy run has
// no failures: a wrong answer, a reply that is not OK (shed, deadline,
// transport error), a failed update or compaction, or a model mismatch at a
// quiescent point or after reopening the index makes the result
// `correct: false` and the exit code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/scratch.h"
#include "engine/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "service/plan_text.h"
#include "service/sharded_index.h"
#include "storage/live_index.h"
#include "traced.h"

namespace perfbench {
namespace {

using intcomp::IndexService;
using intcomp::Status;
using intcomp::StatusCode;
using intcomp::ThreadPool;
using intcomp::storage::LiveIndex;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kRows = 1000000;
constexpr size_t kLists = 48;
constexpr size_t kPlans = 64;
constexpr double kPlanSkew = 1.0;
constexpr size_t kShards = 4;
constexpr size_t kPoolWorkers = 4;
constexpr size_t kClients = 4;        // generator threads = connections
constexpr size_t kBatchRows = 64;     // rows per Insert/Remove batch
constexpr size_t kSetups = 5;         // setup_s is the median of these
constexpr size_t kRounds = 10;        // rounds of open + closed loop
constexpr double kOpenShare = 0.6;    // of a round; the rest is closed loop
constexpr size_t kProbeBatch = 1000;  // update probe batches, per round
constexpr size_t kTraceEvery = 4;     // traced run: replay every 4th request

struct Workload {
  const char* name;
  bool cache;
  double read_qps;  // open-loop nominal rate
};

// serve_eval: evaluation-bound, the cache off, open loop at about a sixth of
// its closed-loop peak on a 4-core host; each query fans out to every pool
// worker, so at a third of peak the queueing behind other queries amplified
// each swing in the host's speed. serve_hot: the same plans answered from
// the result cache, open loop at about a third of its peak.
constexpr Workload kWorkloads[] = {
    {"serve_eval", false, 80},
    {"serve_hot", true, 340},
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) { return Seconds(d) * 1e3; }
double Us(Clock::duration d) { return Seconds(d) * 1e6; }

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "serve_bench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

// ---- exact percentiles over raw samples ----

// Nearest rank (1-based) of quantile q among n samples.
size_t Rank(double q, size_t n) {
  return std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[Rank(q, v.size()) - 1];
}

// Quantile q of each round's samples, and the lower quartile of those over
// the rounds. Other tenants of a shared host slow some rounds and never speed
// one up, so the quieter rounds give the program's own figure, while a change
// that slows every round still moves it. Throughput takes the upper quartile
// of the rounds' figures for the same reason.
double QuietRounds(const std::vector<std::vector<double>>& rounds, double q) {
  std::vector<double> per_round;
  for (const std::vector<double>& r : rounds) {
    if (!r.empty()) per_round.push_back(Quantile(r, q));
  }
  return Quantile(per_round, 0.25);
}

// "p50=.. p99=.. n=N; highest supported pXX=..": the highest percentile
// with at least ten samples beyond it.
std::string Describe(const std::vector<double>& v) {
  static constexpr double kQs[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double top_q = 0;
  for (double q : kQs) {
    if (!v.empty() && v.size() >= Rank(q, v.size()) + 10) top_q = q;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%.4g p99=%.4g n=%zu", Quantile(v, 0.5),
                Quantile(v, 0.99), v.size());
  std::string out = buf;
  if (top_q > 0) {
    std::snprintf(buf, sizeof(buf), "; highest supported p%g=%.4g",
                  top_q * 100, Quantile(v, top_q));
    out += buf;
  } else {
    out += "; no percentile has 10 samples beyond";
  }
  return out;
}

// ---- host record ----

std::string HostRecord() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu + "\" build=" + PERFBENCH_BUILD_TYPE +
         " compiler=\"" + compiler +
         "\"; the load generator shares this host with the server";
}

// {steal, total} jiffies of all CPUs from /proc/stat: time the hypervisor
// gave to other tenants shows as steal and slows every figure of the run.
std::array<uint64_t, 2> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ---- the served stack ----

struct Outcomes {
  std::atomic<uint64_t> attempted{0}, ok{0}, shed{0}, deadline{0},
      transport{0}, wrong{0};

  uint64_t Failed() const {
    return shed.load() + deadline.load() + transport.load() + wrong.load();
  }
};

struct Stack {
  std::string dir;
  std::unique_ptr<LiveIndex> live;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<IndexService> service;
  std::unique_ptr<intcomp::net::QueryServer> server;
  double open_ms = 0;  // LiveIndex::Create: container write + open

  // Tears down in reverse order of declaration, by hand so the index files
  // are closed before their directory is removed.
  ~Stack() {
    if (server) server->Stop();
    if (live) live->AttachService(nullptr);
    server.reset();
    service.reset();
    pool.reset();
    live.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

bool Verify(std::span<const uint32_t> rows, const Digest& want) {
  return DigestRows(rows).Matches(want);
}

// Builds the index, writes it with LiveIndex::Create and serves the opened
// LiveIndex through an IndexService on a pool of `workers`.
std::unique_ptr<Stack> OpenStack(const Inputs& in, const std::string& dir,
                                 bool cache, size_t workers) {
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const intcomp::Codec* planner = intcomp::FindCodec("Planner");
  if (planner == nullptr) {
    Die("codec", Status::InvalidArgument("Planner not registered"));
  }
  {
    const intcomp::ShardedIndex built =
        intcomp::ShardedIndex::Build(*planner, in.lists, in.num_rows, kShards);
    intcomp::storage::LiveIndexOptions options;
    options.wal.sync_every_records = 1;  // every acknowledged batch fsynced
    const auto open_start = Clock::now();
    auto live = LiveIndex::Create(dir, built, options);
    if (!live.ok()) Die("LiveIndex::Create", live.status());
    stack->open_ms = Ms(Clock::now() - open_start);
    stack->live = std::move(live.value());
  }
  stack->pool = std::make_unique<ThreadPool>(workers);
  intcomp::IndexServiceOptions service_options;
  service_options.cache_enabled = cache;
  stack->service = std::make_unique<IndexService>(
      stack->live->Snapshot(), stack->pool.get(), service_options);
  stack->live->AttachService(stack->service.get());
  return stack;
}

// Sends every plan once over TCP and checks each answer.
void QueryEveryPlan(Stack* stack, const Inputs& in) {
  intcomp::net::QueryClient client;
  if (Status st = client.Connect("127.0.0.1", stack->server->port());
      !st.ok()) {
    Die("warm-up connect", st);
  }
  std::vector<uint32_t> rows;
  for (size_t p = 0; p < in.plans.size(); ++p) {
    const Status st = client.Query(in.plan_texts[p], 0, &rows);
    if (!st.ok()) Die("warm-up query", st);
    if (!Verify(rows, in.expected[p])) {
      Die("warm-up", Status::Corrupt("wrong answer to " + in.plan_texts[p]));
    }
  }
}

// OpenStack, then a QueryServer, then every plan once over TCP. *seconds
// gets the wall time of all of it.
std::unique_ptr<Stack> SetUp(const Workload& w, const Inputs& in,
                             const std::string& dir, double* seconds) {
  const auto start = Clock::now();
  std::unique_ptr<Stack> stack = OpenStack(in, dir, w.cache, kPoolWorkers);
  intcomp::net::ServerOptions server_options;
  stack->server = std::make_unique<intcomp::net::QueryServer>(
      stack->service.get(), server_options);
  if (Status st = stack->server->Start(); !st.ok()) Die("server start", st);

  QueryEveryPlan(stack.get(), in);
  *seconds = Seconds(Clock::now() - start);
  return stack;
}

// ---- the update probe ----

// Update latency is taken on a second, idle index of the same lists, with
// its own cache-on service, so an update publishes and invalidates as it
// would on a served index. After each read round the probe applies
// kProbeBatch back-to-back fsynced batches and then compacts. The served
// index stays read-only, and the result cache of serve_hot stays warm.
struct UpdateProbe {
  UpdateProbe(const Inputs& in, uint64_t seed) : stream(in, seed, kBatchRows) {}

  UpdateStream stream;
  std::vector<double> latency_ms;  // Insert/Remove until it returns
  std::vector<double> compact_ms;
  uint64_t attempted = 0, failed = 0, user_bytes = 0;
  uint64_t container_bytes = 0;  // written by compactions
};

void RunProbeRound(Stack* stack, UpdateProbe* probe) {
  for (size_t k = 0; k < kProbeBatch; ++k) {
    const UpdateBatch batch = probe->stream.Next();
    ++probe->attempted;
    const auto start = Clock::now();
    const Status st = batch.op == intcomp::storage::WalOp::kInsert
                          ? stack->live->Insert(batch.list, batch.rows)
                          : stack->live->Remove(batch.list, batch.rows);
    const auto done = Clock::now();
    if (!st.ok()) {
      ++probe->failed;
      continue;
    }
    probe->stream.Apply(batch);
    probe->latency_ms.push_back(Ms(done - start));
    probe->user_bytes += batch.rows.size() * sizeof(uint32_t);
  }
  ++probe->attempted;
  const auto start = Clock::now();
  if (!stack->live->Compact().ok()) {
    ++probe->failed;
    return;
  }
  probe->compact_ms.push_back(Ms(Clock::now() - start));
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(
      stack->dir + "/" + LiveIndex::kIndexFile, ec);
  if (!ec) probe->container_bytes += bytes;
}

// ---- the traced run's per-request replay ----

struct LayerSample {
  double rtt_us, parse_us, service_us, eval_us, codec_us, plan_sets_us,
      encode_us, client_decode_us, resp_bytes, fanout_wait_us;
};

// After a traced request's round trip, the generator thread replays the
// request through the public functions of each layer and times each call:
// ParsePlanText (service), IndexService::Query under the workload's
// concurrency (service, engine), PlanSets + EvaluatePlanChecked per shard on
// a TracedSnapshot (storage, core, codec), the wire codec's Encode +
// Serialize + EncodeResponseFrame (net) and the client's DeserializeChecked
// + Decode (net). Every replayed answer is checked against the oracle.
class Tracer {
 public:
  Tracer(Stack* stack, const Inputs& in, const TracedCodec* codec,
         std::vector<double> alone_us)
      : stack_(stack),
        in_(in),
        codec_(codec),
        wire_(intcomp::FindCodec(intcomp::net::ServerOptions().wire_codec)),
        alone_us_(std::move(alone_us)) {
    if (wire_ == nullptr) {
      Die("wire codec", Status::InvalidArgument("not registered"));
    }
  }

  // Returns false on a wrong answer.
  bool Replay(size_t p, double rtt_us, intcomp::ScratchArena* arena) {
    LayerSample s{};
    s.rtt_us = rtt_us;
    bool right = true;

    auto t = Clock::now();
    QueryPlan plan;
    const Status parsed = intcomp::ParsePlanText(in_.plan_texts[p], &plan);
    s.parse_us = Us(Clock::now() - t);
    if (!parsed.ok()) return false;

    std::vector<uint32_t> rows;
    t = Clock::now();
    const Status queried = stack_->service->Query(plan, &rows);
    s.service_us = Us(Clock::now() - t);
    right &= queried.ok() && Verify(rows, in_.expected[p]);
    s.fanout_wait_us = s.service_us - alone_us_[p];

    const TracedSnapshot traced(stack_->service->Snapshot(), codec_);
    std::vector<size_t> leaves;
    CollectLeaves(plan, &leaves);
    const uint64_t codec_ns0 = TracedCodec::ThreadNs();
    const uint64_t plan_sets_ns0 = TracedSnapshot::ThreadPlanSetsNs();
    std::vector<uint32_t> part, stitched;
    double eval_us = 0;
    for (size_t shard = 0; shard < traced.NumShards(); ++shard) {
      auto sets = traced.PlanSets(shard, leaves);
      if (!sets.ok()) return false;
      t = Clock::now();
      const Status st = intcomp::EvaluatePlanChecked(
          traced.codec(), plan, sets.value(), nullptr, arena, &part);
      eval_us += Us(Clock::now() - t);
      if (!st.ok()) return false;
      traced.Router().Rebase(shard, part, &stitched);
    }
    s.eval_us = eval_us;
    s.codec_us =
        static_cast<double>(TracedCodec::ThreadNs() - codec_ns0) / 1e3;
    s.plan_sets_us = static_cast<double>(TracedSnapshot::ThreadPlanSetsNs() -
                                         plan_sets_ns0) /
                     1e3;
    right &= Verify(stitched, in_.expected[p]);

    const uint64_t domain = std::max<uint64_t>(traced.NumRows(), 1);
    t = Clock::now();
    intcomp::net::QueryResponse resp;
    const auto set = wire_->Encode(stitched, domain);
    resp.has_rows = true;
    resp.codec_name = wire_->Name();
    resp.domain = domain;
    wire_->Serialize(*set, &resp.image);
    std::vector<uint8_t> frame;
    intcomp::net::EncodeResponseFrame(resp, &frame);
    s.encode_us = Us(Clock::now() - t);
    s.resp_bytes = static_cast<double>(frame.size());

    t = Clock::now();
    auto image = wire_->DeserializeChecked(resp.image, resp.domain);
    std::vector<uint32_t> decoded;
    if (image.ok()) wire_->Decode(**image, &decoded);
    s.client_decode_us = Us(Clock::now() - t);
    right &= image.ok() && Verify(decoded, in_.expected[p]);

    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(s);
    return right;
  }

  std::vector<LayerSample> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  static void CollectLeaves(const QueryPlan& plan, std::vector<size_t>* out) {
    std::vector<const QueryPlan*> todo = {&plan};
    while (!todo.empty()) {
      const QueryPlan* node = todo.back();
      todo.pop_back();
      if (node->op == QueryPlan::Op::kLeaf) out->push_back(node->leaf);
      for (const QueryPlan& kid : node->children) todo.push_back(&kid);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }

  Stack* stack_;
  const Inputs& in_;
  const TracedCodec* codec_;
  const intcomp::Codec* wire_;
  std::vector<double> alone_us_;
  mutable std::mutex mu_;
  std::vector<LayerSample> samples_;
};

// ---- read traffic ----

void RecordOutcome(const Status& st, bool right, Outcomes* out) {
  out->attempted.fetch_add(1);
  if (st.ok()) {
    (right ? out->ok : out->wrong).fetch_add(1);
  } else if (st.code() == StatusCode::kOverloaded) {
    out->shed.fetch_add(1);
  } else if (st.code() == StatusCode::kDeadlineExceeded) {
    out->deadline.fetch_add(1);
  } else {
    out->transport.fetch_add(1);
  }
}

struct OpenLoopResult {
  std::vector<double> latency_ms;  // completion - scheduled send
  std::vector<double> lag_ms;      // actual send - scheduled send
};

// Poisson arrivals at `qps` for `seconds`, fixed before the phase starts,
// spread over kClients connections. A request is timed from when it was due,
// so a stalled server charges its backlog to the requests behind the stall.
OpenLoopResult RunOpenLoop(Stack* stack, const Inputs& in, double qps,
                           double seconds, uint64_t seed, Outcomes* outcomes,
                           Tracer* tracer) {
  Prng rng(seed);
  PlanSequence sequence(in.plans.size(), kPlanSkew, seed);
  std::vector<int64_t> due_ns;
  std::vector<uint32_t> plan_of;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / qps;
    if (t >= seconds) break;
    due_ns.push_back(static_cast<int64_t>(t * 1e9));
    plan_of.push_back(sequence.Next());
  }

  std::mutex mu;
  OpenLoopResult result;
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      intcomp::net::QueryClient client;
      intcomp::ScratchArena arena;
      std::vector<double> latency, lag;
      std::vector<uint32_t> rows;
      for (size_t i; (i = next.fetch_add(1)) < due_ns.size();) {
        const auto due = start + std::chrono::nanoseconds(due_ns[i]);
        std::this_thread::sleep_until(due);
        if (!client.Connected()) {
          (void)client.Connect("127.0.0.1", stack->server->port());
        }
        const auto sent = Clock::now();
        const Status st = client.Query(in.plan_texts[plan_of[i]], 0, &rows);
        const auto done = Clock::now();
        bool right = st.ok() && Verify(rows, in.expected[plan_of[i]]);
        if (right && tracer != nullptr && i % kTraceEvery == 0) {
          right = tracer->Replay(plan_of[i], Us(done - sent), &arena);
        }
        RecordOutcome(st, right, outcomes);
        lag.push_back(Ms(sent - due));
        latency.push_back(Ms(done - due));
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latency_ms.insert(result.latency_ms.end(), latency.begin(),
                               latency.end());
      result.lag_ms.insert(result.lag_ms.end(), lag.begin(), lag.end());
    });
  }
  for (std::thread& t : threads) t.join();
  return result;
}

// kClients clients that each send their next request when the previous
// reply has been verified. Returns verified OK replies per second.
double RunClosedLoop(Stack* stack, const Inputs& in, double seconds,
                     uint64_t seed, Outcomes* outcomes) {
  PlanSequence sequence(in.plans.size(), kPlanSkew, seed);
  std::mutex sequence_mu;
  std::atomic<uint64_t> verified{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::nanoseconds(
                               static_cast<int64_t>(seconds * 1e9));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      intcomp::net::QueryClient client;
      std::vector<uint32_t> rows;
      while (Clock::now() < end) {
        if (!client.Connected()) {
          (void)client.Connect("127.0.0.1", stack->server->port());
        }
        size_t p = 0;
        {
          std::lock_guard<std::mutex> lock(sequence_mu);
          p = sequence.Next();
        }
        const Status st = client.Query(in.plan_texts[p], 0, &rows);
        const bool in_time = Clock::now() <= end;
        const bool right = st.ok() && Verify(rows, in.expected[p]);
        RecordOutcome(st, right, outcomes);
        if (right && in_time) verified.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(verified.load()) / seconds;
}

// ---- quiescent and durability checks ----

// Every plan and every single list, against the model of acknowledged
// writes. `query` answers one plan; returns the number of mismatches.
template <typename QueryFn>
uint64_t CheckAgainstModel(const Inputs& in, const Lists& model,
                           QueryFn query) {
  std::vector<QueryPlan> plans = in.plans;
  for (size_t l = 0; l < model.size(); ++l) {
    plans.push_back(QueryPlan::Leaf(l));
  }
  uint64_t mismatches = 0;
  std::vector<uint32_t> rows;
  for (const QueryPlan& plan : plans) {
    const Status st = query(plan, &rows);
    if (!st.ok() || !Verify(rows, DigestRows(EvaluateOracle(plan, model)))) {
      ++mismatches;
    }
  }
  return mismatches;
}

uint64_t CheckServed(Stack* stack, const Inputs& in, const Lists& model) {
  intcomp::net::QueryClient client;
  if (!client.Connect("127.0.0.1", stack->server->port()).ok()) {
    return in.plans.size() + model.size();
  }
  return CheckAgainstModel(
      in, model, [&](const QueryPlan& plan, std::vector<uint32_t>* rows) {
        return client.Query(intcomp::PlanToText(plan), 0, rows);
      });
}

struct Durability {
  bool ok = false;
  double recovery_ms = 0;
  uint64_t mismatches = 0;
};

// Closes the live index, reopens its directory and compares every plan with
// the model of acknowledged writes.
Durability CheckDurability(Stack* stack, const Inputs& in,
                           const Lists& model) {
  Durability d;
  stack->live->AttachService(nullptr);
  if (Status st = stack->live->Close(); !st.ok()) {
    std::fprintf(stderr, "serve_bench: Close: %s\n", st.ToString().c_str());
    return d;
  }
  const auto start = Clock::now();
  auto reopened = LiveIndex::Open(stack->dir);
  d.recovery_ms = Ms(Clock::now() - start);
  if (!reopened.ok()) {
    std::fprintf(stderr, "serve_bench: reopen: %s\n",
                 reopened.status().ToString().c_str());
    return d;
  }
  intcomp::IndexServiceOptions options;
  options.cache_enabled = false;
  IndexService service((*reopened)->Snapshot(), stack->pool.get(), options);
  d.mismatches = CheckAgainstModel(
      in, model, [&](const QueryPlan& plan, std::vector<uint32_t>* rows) {
        return service.Query(plan, rows);
      });
  d.ok = (*reopened)->Close().ok();
  return d;
}

// ---- results ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // samples, and which end-to-end metric it should move
  bool reported = true;  // in the JSON result, not only the table
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g %-10s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.reported ? "" : "(table only) ",
                m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.reported) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Count(size_t n) { return "n=" + std::to_string(n); }

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--data-dir") {
      a.data_dir = value;
    } else {
      std::fprintf(stderr, "serve_bench: unknown flag %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (a.workload == nullptr || !(a.seconds > 0) || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload serve_eval|serve_hot"
                 " --seed N --seconds S --trace 0|1 --data-dir DIR\n");
    std::exit(2);
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::printf("# %s seed=%llu seconds=%g trace=%d\n# host: %s\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, HostRecord().c_str());
  std::printf("# index: Planner codec, %llu rows, %zu lists, %zu "
              "shards, %zu pool workers; %zu plans, zipf %.1f; %zu clients; "
              "cache %s; open loop %.0f qps; update probe after each read "
              "round on an idle index, %zu %zu-row batches, fsync per batch "
              "(sync_every_records=1)\n",
              static_cast<unsigned long long>(kRows), kLists, kShards, kPoolWorkers, kPlans, kPlanSkew, kClients,
              w.cache ? "on" : "off", w.read_qps, kProbeBatch, kBatchRows);
  std::fflush(stdout);

  const std::array<uint64_t, 2> steal_start = CpuSteal();
  const Inputs in = MakeInputs(args.seed, kRows, kLists, kPlans);
  const std::string dir_base = args.data_dir + "/serve_bench." +
                               std::to_string(::getpid()) + ".";

  std::vector<double> setup_s, open_ms;
  std::unique_ptr<Stack> stack;
  for (size_t i = 0; i < kSetups; ++i) {
    stack.reset();  // tear the previous one down first
    double s = 0;
    stack = SetUp(w, in, dir_base + std::to_string(i), &s);
    setup_s.push_back(s);
    open_ms.push_back(stack->open_ms);
  }
  // The result cache admits a plan on its second request, so a second pass
  // fills it before anything is timed.
  QueryEveryPlan(stack.get(), in);

  // The update probe's index (see UpdateProbe).
  const std::unique_ptr<Stack> probe =
      OpenStack(in, dir_base + "probe", /*cache=*/true, 1);

  Outcomes outcomes;
  UpdateProbe updates(in, args.seed);
  uint64_t model_mismatches = 0, checked = 0;
  const auto check_served = [&] {
    model_mismatches += CheckServed(stack.get(), in, in.lists);
    checked += in.plans.size() + kLists;
  };
  intcomp::obs::MetricsRegistry& registry =
      intcomp::obs::MetricsRegistry::Global();
  const TracedCodec traced_codec(&stack->service->Snapshot()->codec());
  std::unique_ptr<Tracer> tracer;
  OpenLoopResult open, traced_open;
  intcomp::ResultCacheStats cache;  // summed over traced halves
  std::vector<double> cost_err, strategies, traced_round_p50_ms;

  const uint64_t phase_seed = args.seed * 1000;
  std::vector<double> round_p50_ms, round_qps;
  // Per round: open-loop latencies, and the update latencies it added.
  std::vector<std::vector<double>> round_latency_ms, round_update_ms;
  const auto end_update_round = [&] {
    size_t done = 0;
    for (const auto& r : round_update_ms) done += r.size();
    round_update_ms.emplace_back(updates.latency_ms.begin() + done,
                                 updates.latency_ms.end());
  };
  if (!args.trace) {
    // Rounds alternate the open- and the closed-loop phase, so a burst of
    // load from elsewhere on the host lands in one round (see QuietRounds).
    for (size_t r = 0; r < kRounds; ++r) {
      const OpenLoopResult round = RunOpenLoop(
          stack.get(), in, w.read_qps, args.seconds * kOpenShare / kRounds,
          phase_seed + 2 * r, &outcomes, nullptr);
      round_p50_ms.push_back(Quantile(round.latency_ms, 0.5));
      round_latency_ms.push_back(round.latency_ms);
      open.latency_ms.insert(open.latency_ms.end(), round.latency_ms.begin(),
                             round.latency_ms.end());
      open.lag_ms.insert(open.lag_ms.end(), round.lag_ms.begin(),
                         round.lag_ms.end());
      round_qps.push_back(RunClosedLoop(
          stack.get(), in, args.seconds * (1 - kOpenShare) / kRounds,
          phase_seed + 2 * r + 1, &outcomes));
      RunProbeRound(probe.get(), &updates);
      end_update_round();
      if (r == kRounds / 2) check_served();
    }
  } else {
    // Each plan alone on the idle service: the base engine.fanout_wait_us
    // subtracts.
    std::vector<double> alone_us;
    std::vector<uint32_t> rows;
    for (const QueryPlan& plan : in.plans) {
      std::vector<double> runs;
      for (int r = 0; r < 3; ++r) {
        const auto t = Clock::now();
        (void)stack->service->Query(plan, &rows);
        runs.push_back(Us(Clock::now() - t));
      }
      alone_us.push_back(Quantile(runs, 0.5));
    }
    tracer = std::make_unique<Tracer>(stack.get(), in, &traced_codec,
                                      std::move(alone_us));
    // Untraced and traced halves alternate in rounds, like the phases of the
    // untraced run; the registry that feeds planner.* and the WAL histogram
    // is on only in traced halves and update probes.
    registry.Reset();
    for (size_t r = 0; r < kRounds; ++r) {
      const double half = args.seconds / 2 / kRounds;
      const OpenLoopResult plain =
          RunOpenLoop(stack.get(), in, w.read_qps, half, phase_seed + 2 * r,
                      &outcomes, nullptr);
      registry.SetEnabled(true);
      const intcomp::ServiceStats before = stack->service->Stats();
      const OpenLoopResult traced =
          RunOpenLoop(stack.get(), in, w.read_qps, half,
                      phase_seed + 2 * r + 1, &outcomes, tracer.get());
      const intcomp::ServiceStats after = stack->service->Stats();
      registry.SetEnabled(false);
      cache.hits += after.cache.hits - before.cache.hits;
      cache.misses += after.cache.misses - before.cache.misses;
      cache.evicted += after.cache.evicted - before.cache.evicted;
      cache.stale_dropped +=
          after.cache.stale_dropped - before.cache.stale_dropped;
      round_p50_ms.push_back(Quantile(plain.latency_ms, 0.5));
      traced_round_p50_ms.push_back(Quantile(traced.latency_ms, 0.5));
      for (const auto* from : {&plain, &traced}) {
        OpenLoopResult& to = from == &plain ? open : traced_open;
        to.latency_ms.insert(to.latency_ms.end(), from->latency_ms.begin(),
                             from->latency_ms.end());
        to.lag_ms.insert(to.lag_ms.end(), from->lag_ms.begin(),
                         from->lag_ms.end());
      }
      registry.SetEnabled(true);
      RunProbeRound(probe.get(), &updates);
      registry.SetEnabled(false);
      if (r == kRounds / 2) check_served();
    }
    for (const char* strategy : {"merge", "gallop", "compressed"}) {
      const std::string stem =
          std::string("planner.cost.residual.") + strategy;
      const double est =
          static_cast<double>(registry.CounterValue(stem + ".est_ns"));
      const double act =
          static_cast<double>(registry.CounterValue(stem + ".act_ns"));
      if (est > 0 && act > 0) {
        cost_err.push_back(std::fabs(std::log2(est / act)));
      }
      strategies.push_back(static_cast<double>(registry.CounterValue(
          std::string("planner.strategy.") + strategy)));
    }
  }
  check_served();
  const double bits_per_int =
      8.0 * static_cast<double>(stack->service->Snapshot()->SizeInBytes()) /
      static_cast<double>(in.postings);

  const intcomp::storage::LiveIndexStats live_stats = probe->live->Stats();
  const intcomp::net::QueryServer::Stats server_stats =
      stack->server->GetStats();
  const intcomp::obs::LatencyHistogram* wal_append = registry.OpLatency(
      probe->service->Snapshot()->codec().Name(),
      intcomp::obs::OpKind::kWalAppend);
  const double wal_append_us_p99 =
      static_cast<double>(wal_append->P99()) / 1e3;
  const Durability durability =
      CheckDurability(probe.get(), in, updates.stream.Model());

  // Any failure fails the run: a healthy one has none.
  const uint64_t attempted = outcomes.attempted.load() + updates.attempted +
                             checked + in.plans.size() + kLists;
  const uint64_t failed = outcomes.Failed() + updates.failed +
                          model_mismatches + durability.mismatches +
                          (durability.ok ? 0 : 1);
  const bool correct = failed == 0;
  std::printf(
      "# outcomes: reads attempted=%llu ok=%llu shed=%llu deadline=%llu "
      "transport=%llu wrong=%llu; updates and compactions attempted=%llu "
      "failed=%llu; "
      "model mismatches=%llu; reopen %s with %llu mismatches; "
      "failed_frac=%.6g\n",
      static_cast<unsigned long long>(outcomes.attempted.load()),
      static_cast<unsigned long long>(outcomes.ok.load()),
      static_cast<unsigned long long>(outcomes.shed.load()),
      static_cast<unsigned long long>(outcomes.deadline.load()),
      static_cast<unsigned long long>(outcomes.transport.load()),
      static_cast<unsigned long long>(outcomes.wrong.load()),
      static_cast<unsigned long long>(updates.attempted),
      static_cast<unsigned long long>(updates.failed),
      static_cast<unsigned long long>(model_mismatches),
      durability.ok ? "ok" : "FAILED",
      static_cast<unsigned long long>(durability.mismatches),
      static_cast<double>(failed) / static_cast<double>(attempted));
  const std::array<uint64_t, 2> steal_end = CpuSteal();
  std::printf("# host: %.2f%% of CPU time stolen by other tenants during the "
              "run\n",
              100.0 * static_cast<double>(steal_end[0] - steal_start[0]) /
                  static_cast<double>(
                      std::max<uint64_t>(1, steal_end[1] - steal_start[1])));
  std::printf("# open loop: send lag %s ms\n", Describe(open.lag_ms).c_str());
  std::string rounds;
  for (size_t r = 0; r < round_p50_ms.size(); ++r) {
    rounds += " " + std::to_string(round_p50_ms[r]) + " ms/" +
              (args.trace ? std::to_string(traced_round_p50_ms[r]) + " ms"
                          : std::to_string(round_qps[r]) + " qps");
  }
  std::printf("# rounds (%s):%s\n",
              args.trace ? "p50 untraced/traced" : "p50/peak", rounds.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    char note[64];
    std::snprintf(note, sizeof(note), "median of %zu set-ups", kSetups);
    const std::string quiet =
        "lower quartile of " + std::to_string(kRounds) + " rounds' ";
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s", note},
        {"query_p50_ms", QuietRounds(round_latency_ms, 0.5), "ms",
         quiet + "p50; pooled " + Describe(open.latency_ms)},
        {"query_p99_ms", QuietRounds(round_latency_ms, 0.99), "ms",
         quiet + "p99, " + Count(open.latency_ms.size() / kRounds) + " each"},
        {"peak_qps", Quantile(round_qps, 0.75), "1/s",
         "verified OK replies, closed loop, upper quartile of " +
             std::to_string(kRounds) + " rounds"},
        {"update_p50_ms", QuietRounds(round_update_ms, 0.5), "ms",
         quiet + "p50; pooled " + Describe(updates.latency_ms)},
        {"update_p99_ms", QuietRounds(round_update_ms, 0.99), "ms",
         quiet + "p99; per-layer storage.update_p99_ms in BENCHMARK.json",
         false},
        {"bits_per_int", bits_per_int, "bits", "8 x SizeInBytes / postings"},
        {"peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss"},
    };
  } else {
    const std::vector<LayerSample> samples = tracer->Samples();
    const double n = std::max<double>(1, static_cast<double>(samples.size()));
    const auto mean_of = [&](auto field) {
      double sum = 0;
      for (const LayerSample& s : samples) sum += field(s);
      return sum / n;
    };
    const auto all_of = [&](auto field) {
      std::vector<double> v;
      for (const LayerSample& s : samples) v.push_back(field(s));
      return v;
    };
    const std::string per_req = "mean of " + Count(samples.size());
    const std::string kCodecMoves =
        "-> query_p50_ms, peak_qps on serve_eval; none on serve_hot";
    // Every (codec, op) cell prints; the result line carries the cells the
    // fixed plan mix exercises on every seed, and Other as one total (its
    // cells depend on which rare plans a run draws).
    static constexpr bool kReported[][TracedCodec::kNumOps] = {
        {true, true, false},  // EWAH union: 0 on most seeds
        {true, true, true},   // PEF
        {false, false, false}};
    for (size_t b = 0; b < TracedCodec::kBuckets.size(); ++b) {
      const std::string stem =
          "codec." + std::string(TracedCodec::kBuckets[b]) + ".";
      double total_ns = 0;
      for (size_t op = 0; op < TracedCodec::kNumOps; ++op) {
        const double ns = static_cast<double>(
            traced_codec.TotalNs(b, static_cast<TracedCodec::Op>(op)));
        total_ns += ns;
        metrics.push_back({stem + std::string(TracedCodec::kOpNames[op]) +
                               "_us",
                           ns / 1e3 / n, "us", per_req + " " + kCodecMoves,
                           kReported[b][op]});
      }
      if (TracedCodec::kBuckets[b] == "Other") {
        metrics.push_back({stem + "us", total_ns / 1e3 / n, "us",
                           per_req + ", all ops " + kCodecMoves});
      }
      metrics.push_back({stem + "calls",
                         static_cast<double>(traced_codec.TotalCalls(b)) / n,
                         "calls/req", per_req});
    }
    metrics.push_back({"core.eval_us",
                       mean_of([](const LayerSample& s) { return s.eval_us; }),
                       "us", per_req + " " + kCodecMoves});
    metrics.push_back(
        {"core.self_us",
         mean_of([](const LayerSample& s) { return s.eval_us - s.codec_us; }),
         "us", per_req + " " + kCodecMoves});

    // Table-only lines below read 0 on (nearly) every run of these
    // workloads, or are fixed by the probe's schedule, so they carry no
    // signal and stay out of the result.
    const std::string planner_moves = "-> query_p50_ms on serve_eval";
    const char* const kStrategies[] = {"merge", "gallop", "compressed"};
    for (size_t i = 0; i < strategies.size(); ++i) {
      const bool reported = std::string(kStrategies[i]) == "gallop";
      metrics.push_back(
          {std::string("planner.strategy.") + kStrategies[i], strategies[i],
           "count", "traced halves " + planner_moves, reported});
    }
    metrics.push_back({"planner.cost_err_log2", Quantile(cost_err, 0.5),
                       "log2", "median over strategies " + planner_moves});

    metrics.push_back(
        {"engine.fanout_wait_us",
         mean_of([](const LayerSample& s) { return s.fanout_wait_us; }), "us",
         per_req +
             " -> peak_qps, query_p99_ms on serve_eval; ~0 on serve_hot"});

    const std::string service_moves = "-> query_p50_ms on serve_hot";
    const std::vector<double> service_us =
        all_of([](const LayerSample& s) { return s.service_us; });
    const double hits = static_cast<double>(cache.hits);
    const double misses = static_cast<double>(cache.misses);
    metrics.push_back(
        {"service.parse_us",
         mean_of([](const LayerSample& s) { return s.parse_us; }), "us",
         per_req + " " + service_moves});
    metrics.push_back({"service.query_us_p50", Quantile(service_us, 0.5), "us",
                       Describe(service_us) + " " + service_moves});
    metrics.push_back({"service.query_us_p99", Quantile(service_us, 0.99),
                       "us", Count(service_us.size())});
    metrics.push_back({"service.cache_hit_ratio",
                       hits + misses > 0 ? hits / (hits + misses) : 0, "frac",
                       "traced phase " + service_moves});
    metrics.push_back({"service.cache_evicted",
                       static_cast<double>(cache.evicted), "count",
                       "traced phase; every answer fits the cache", false});
    metrics.push_back({"service.cache_stale_dropped",
                       static_cast<double>(cache.stale_dropped), "count",
                       "traced phase; the served index is read-only", false});

    const std::string net_moves =
        "-> query_p50_ms, peak_qps on serve_hot; small on serve_eval";
    const std::vector<double> rtt_us =
        all_of([](const LayerSample& s) { return s.rtt_us; });
    metrics.push_back({"net.rtt_us_p50", Quantile(rtt_us, 0.5), "us",
                       Describe(rtt_us) + " " + net_moves});
    metrics.push_back(
        {"net.self_us",
         mean_of([](const LayerSample& s) { return s.rtt_us - s.service_us; }),
         "us", per_req + " rtt - service " + net_moves});
    metrics.push_back(
        {"net.encode_us",
         mean_of([](const LayerSample& s) { return s.encode_us; }), "us",
         per_req + " " + net_moves});
    metrics.push_back(
        {"net.client_decode_us",
         mean_of([](const LayerSample& s) { return s.client_decode_us; }),
         "us", per_req + " " + net_moves});
    metrics.push_back(
        {"net.resp_bytes",
         mean_of([](const LayerSample& s) { return s.resp_bytes; }), "bytes",
         per_req});
    metrics.push_back({"net.shed", static_cast<double>(server_stats.overloaded),
                       "count", "whole run; a shed reply fails the run", false});
    metrics.push_back({"net.deadline",
                       static_cast<double>(server_stats.deadline), "count",
                       "whole run; no request has a deadline", false});

    const std::string update_moves = "-> update_p50_ms";
    double compact_ms = 0;
    for (double ms : updates.compact_ms) {
      compact_ms += ms / static_cast<double>(updates.compact_ms.size());
    }
    metrics.push_back({"storage.open_ms", Quantile(open_ms, 0.5), "ms",
                       "median of set-ups -> setup_s"});
    metrics.push_back(
        {"storage.plan_sets_us",
         mean_of([](const LayerSample& s) { return s.plan_sets_us; }), "us",
         per_req + " -> setup_s"});
    metrics.push_back({"storage.update_p99_ms",
                       Quantile(updates.latency_ms, 0.99), "ms",
                       Describe(updates.latency_ms) + " " + update_moves});
    metrics.push_back({"storage.wal_append_us_p99", wal_append_us_p99, "us",
                       Count(wal_append->Count()) +
                           " log2 histogram, +-1/8 " + update_moves});
    metrics.push_back({"storage.compact_ms", compact_ms, "ms",
                       "mean of " + Count(updates.compact_ms.size()) + " " +
                           update_moves});
    metrics.push_back({"storage.compactions",
                       static_cast<double>(live_stats.compactions), "count",
                       "one per probe round", false});
    metrics.push_back({"storage.swaps",
                       static_cast<double>(live_stats.generation), "count",
                       "published snapshots, one per probe batch and "
                       "compaction",
                       false});
    metrics.push_back(
        {"storage.write_amp",
         updates.user_bytes > 0
             ? static_cast<double>(live_stats.wal_bytes +
                                   updates.container_bytes) /
                   static_cast<double>(updates.user_bytes)
             : 0,
         "ratio", "(WAL + container bytes) / acknowledged user bytes"});
    metrics.push_back({"storage.recovery_ms", durability.recovery_ms, "ms",
                       "LiveIndex::Open after Close"});

    const double untraced_p50 = Quantile(round_p50_ms, 0.5);
    const double traced_p50 = Quantile(traced_round_p50_ms, 0.5);
    const double budget = mean_of([](const LayerSample& s) {
      return s.parse_us + s.service_us + s.encode_us + s.client_decode_us;
    });
    const double rtt = mean_of([](const LayerSample& s) { return s.rtt_us; });
    metrics.push_back({"loadgen.send_lag_p99_ms", Quantile(open.lag_ms, 0.99),
                       "ms", "untraced phase " + Count(open.lag_ms.size())});
    metrics.push_back(
        {"trace.overhead_frac",
         untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "frac",
         "median round p50, traced / untraced - 1"});
    metrics.push_back(
        {"trace.residual_frac", rtt > 0 ? 1 - budget / rtt : 0, "frac",
         "1 - (parse + service + encode + client decode) / rtt"});
    std::printf("# untraced query latency %s ms\n",
                Describe(open.latency_ms).c_str());
    std::printf("# traced query latency %s ms\n",
                Describe(traced_open.latency_ms).c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
