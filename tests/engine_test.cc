// Tests for the parallel query path: the work-stealing pool and its
// per-call ParallelFor latch, the index service's determinism guarantee
// over a sharded index (1 thread == N threads == serial EvaluatePlan, for
// every codec), a small-query stress run with concurrent callers on one
// shared pool, and the checked evaluator's fault containment. This binary
// is the one the INTCOMP_SANITIZE=thread CI job repeats.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/registry.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/sharded_index.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

constexpr size_t kStressThreads = 8;  // the sanitizer job's thread count
constexpr size_t kShards = 4;         // shard fan-out of the service tests

struct Workload {
  std::vector<std::vector<uint32_t>> lists;
  std::vector<QueryPlan> plans;
  uint64_t domain = 0;
};

// A mixed AND/OR plan load over one distribution's lists: pairwise ANDs
// with the Table-1 size skew, plus SSB-style (a OR b) AND c shapes.
Workload MakeWorkload(const char* dist, size_t nlists, size_t nplans) {
  Workload w;
  w.domain = 1 << 20;
  for (size_t i = 0; i < nlists; ++i) {
    const size_t n = 200 + 600 * (i % 4);
    const uint64_t seed = 1000 + i;
    if (std::string_view(dist) == "uniform") {
      w.lists.push_back(GenerateUniform(n, w.domain, seed));
    } else if (std::string_view(dist) == "zipf") {
      w.lists.push_back(GenerateZipf(n, w.domain, kPaperZipfSkew, seed));
    } else {
      w.lists.push_back(GenerateMarkov(n, w.domain, kPaperMarkovClustering, seed));
    }
  }
  Prng rng(42);
  for (size_t q = 0; q < nplans; ++q) {
    const size_t a = rng.NextBounded(nlists);
    const size_t b = rng.NextBounded(nlists);
    const size_t c = rng.NextBounded(nlists);
    switch (q % 3) {
      case 0:
        w.plans.push_back(QueryPlan::And({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
        break;
      case 1:
        w.plans.push_back(QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
        break;
      default:
        w.plans.push_back(QueryPlan::And(
            {QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}),
             QueryPlan::Leaf(c)}));
        break;
    }
  }
  return w;
}

struct EncodedWorkload {
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
};

EncodedWorkload Encode(const Codec& codec, const Workload& w) {
  EncodedWorkload e;
  for (const auto& l : w.lists) {
    e.sets.push_back(codec.Encode(l, w.domain));
    e.ptrs.push_back(e.sets.back().get());
  }
  return e;
}

// Evaluates every plan through an IndexService over a kShards-way sharded
// copy of `lists` (result cache off, so every query runs the fan-out).
std::vector<std::vector<uint32_t>> ServeAll(
    const Codec& codec, const std::vector<std::vector<uint32_t>>& lists,
    uint64_t domain, const std::vector<QueryPlan>& plans, ThreadPool* pool) {
  // Markov lists may run past the nominal domain; the row space holds them.
  uint64_t rows = domain;
  for (const auto& l : lists) {
    if (!l.empty()) rows = std::max<uint64_t>(rows, uint64_t{l.back()} + 1);
  }
  const ShardedIndex index = ShardedIndex::Build(codec, lists, rows, kShards);
  IndexServiceOptions options;
  options.cache_enabled = false;
  IndexService service(&index, pool, options);
  std::vector<std::vector<uint32_t>> got(plans.size());
  for (size_t q = 0; q < plans.size(); ++q) {
    const Status st = service.Query(plans[q], &got[q]);
    EXPECT_TRUE(st.ok()) << "query " << q << ": " << st.ToString();
  }
  return got;
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> ran(kTasks);
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([&ran, i](size_t) { ran[i].fetch_add(1); });
    }
  }  // the destructor runs every queued task before the workers exit
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(kStressThreads);
  std::vector<uint32_t> hits(10007, 0);  // one slot per index: no two tasks
                                         // share an index, so plain writes
  pool.ParallelFor(100, 10007, [&](size_t i, size_t) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 100 ? 1u : 0u) << "index " << i;
  }
  pool.ParallelFor(5, 5, [&](size_t, size_t) { FAIL() << "empty range ran"; });
}

TEST(ThreadPoolTest, ParallelForIsReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, 50, [&sum](size_t, size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), static_cast<uint64_t>((round + 1) * 50));
  }
}

TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnTasks) {
  // Caller A's one task blocks on a flag; caller B's trivial ParallelFor
  // must still return, because each call waits on its own latch rather
  // than for the whole pool to go quiet. B runs on a thread with a bounded
  // wait, so a pool-wide join fails this test instead of hanging it.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> a_started{false};
  std::thread a([&] {
    pool.ParallelFor(0, 1, [&](size_t, size_t) {
      a_started.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  });
  while (!a_started.load()) std::this_thread::yield();

  std::atomic<int> b_ran{0};
  std::packaged_task<void()> b_call([&] {
    pool.ParallelFor(0, 1, [&](size_t, size_t) { b_ran.fetch_add(1); });
  });
  std::future<void> b_done = b_call.get_future();
  std::thread b(std::move(b_call));
  const bool b_returned =
      b_done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();
  if (!b_returned) {
    FAIL() << "ParallelFor waited for another caller's blocked task";
  }
  EXPECT_EQ(b_ran.load(), 1);
}

TEST(ThreadPoolTest, TasksSeeTheExecutingWorkerIndex) {
  ThreadPool pool(4);
  std::atomic<uint64_t> bad{0};
  pool.ParallelFor(0, 4000, [&](size_t, size_t worker) {
    if (worker >= pool.NumWorkers()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0u);
}

// ------------------------------------------------------------- determinism

class EngineDeterminismTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(EngineDeterminismTest, ServiceMatchesSerialOnEveryDistribution) {
  const Codec& codec = *GetParam();
  for (const char* dist : {"uniform", "zipf", "markov"}) {
    SCOPED_TRACE(dist);
    const Workload w = MakeWorkload(dist, 10, 60);
    const EncodedWorkload e = Encode(codec, w);

    // Serial reference over the unsharded sets, via the arena-free entry
    // point.
    std::vector<std::vector<uint32_t>> ref;
    ref.reserve(w.plans.size());
    for (const QueryPlan& p : w.plans) {
      ref.push_back(EvaluatePlan(codec, p, e.ptrs));
    }

    for (size_t threads : {size_t{1}, kStressThreads}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const auto got = ServeAll(codec, w.lists, w.domain, w.plans, &pool);
      for (size_t q = 0; q < ref.size(); ++q) {
        ASSERT_EQ(got[q], ref[q]) << "query " << q;
      }
    }
  }
}

std::string CodecName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name(info.param->Name());
  for (char& c : name) {
    if (c == '*') c = 'S';
  }
  return name;
}

std::vector<const Codec*> AllPlusExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, EngineDeterminismTest,
                         ::testing::ValuesIn(AllPlusExtensions()), CodecName);

// ------------------------------------------------------------------ stress

TEST(EngineStressTest, TenThousandTinyQueriesFromConcurrentCallers) {
  // 10k near-empty queries issued by several caller threads at once through
  // one service on one shared pool: scheduling dominates the work, which is
  // exactly where submission/steal/latch races would surface. Run under
  // INTCOMP_SANITIZE=thread this is the race detector for concurrent
  // ParallelFor callers.
  const Codec* codec = FindCodec("Roaring");
  ASSERT_NE(codec, nullptr);
  const uint64_t domain = 1 << 16;
  Prng rng(7);
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < 64; ++i) {
    lists.push_back(RandomSortedList(1 + rng.NextBounded(8), domain, 500 + i));
  }
  std::vector<QueryPlan> plans;
  plans.reserve(10000);
  for (size_t q = 0; q < 10000; ++q) {
    const size_t a = rng.NextBounded(lists.size());
    const size_t b = rng.NextBounded(lists.size());
    plans.push_back(q % 2 == 0
                        ? QueryPlan::And({QueryPlan::Leaf(a), QueryPlan::Leaf(b)})
                        : QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
  }

  ThreadPool pool(kStressThreads);
  const ShardedIndex index = ShardedIndex::Build(*codec, lists, domain, kShards);
  IndexServiceOptions options;
  options.cache_enabled = false;
  IndexService service(&index, &pool, options);
  constexpr size_t kCallers = 4;
  std::vector<std::vector<uint32_t>> got(plans.size());
  std::vector<Status> statuses(plans.size());
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t q = c; q < plans.size(); q += kCallers) {
        statuses[q] = service.Query(plans[q], &got[q]);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (size_t q = 0; q < plans.size(); ++q) {
    ASSERT_TRUE(statuses[q].ok()) << "query " << q;
    const auto& a = lists[plans[q].children[0].leaf];
    const auto& b = lists[plans[q].children[1].leaf];
    const auto ref = q % 2 == 0 ? RefIntersect(a, b) : RefUnion(a, b);
    ASSERT_EQ(got[q], ref) << "query " << q;
  }
  EXPECT_EQ(service.Stats().queries, plans.size());
}

// ------------------------------------------------------- fault containment

TEST(EvaluatePlanCheckedTest, ValidatesShapeAndMatchesTrustedPath) {
  const Codec& codec = *FindCodec("VB");
  const uint64_t domain = 1 << 16;
  auto la = RandomSortedList(2000, domain, 31);
  auto lb = RandomSortedList(3000, domain, 32);
  auto sa = codec.Encode(la, domain);
  auto sb = codec.Encode(lb, domain);
  std::vector<const CompressedSet*> sets = {sa.get(), sb.get()};

  ScratchArena arena;
  std::vector<uint32_t> out;
  const auto plan =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  ASSERT_TRUE(
      EvaluatePlanChecked(codec, plan, sets, nullptr, &arena, &out).ok());
  EXPECT_EQ(out, EvaluatePlan(codec, plan, sets));

  // Leaf index out of range.
  Status st = EvaluatePlanChecked(codec, QueryPlan::Leaf(7), sets, nullptr,
                                  &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  // Null set slot (an image that failed DeserializeChecked upstream).
  std::vector<const CompressedSet*> holed = {sa.get(), nullptr};
  st = EvaluatePlanChecked(
      codec, QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}), holed,
      nullptr, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Operator nodes with no children.
  st = EvaluatePlanChecked(codec, QueryPlan::And({}), sets, nullptr, &arena,
                           &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  st = EvaluatePlanChecked(codec, QueryPlan::Or({}), sets, nullptr, &arena,
                           &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // A pre-tripped token cancels before any work.
  CancellationToken cancelled;
  cancelled.Cancel();
  st = EvaluatePlanChecked(codec, plan, sets, &cancelled, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // An already-elapsed deadline reports kDeadlineExceeded.
  CancellationToken past;
  past.SetDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  st = EvaluatePlanChecked(codec, plan, sets, &past, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The token is polled before the plan is validated: a cancelled request
  // reports kCancelled even when its plan is also malformed.
  st = EvaluatePlanChecked(codec, QueryPlan::And({}), sets, &cancelled,
                           &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);

  // &(|(big,big),small): the union is more than 8x the leaf, so the SvS
  // probe decodes the leaf and gallops it into the union.
  auto lbig1 = RandomSortedList(20000, domain, 33);
  auto lbig2 = RandomSortedList(20000, domain, 34);
  auto lsmall = RandomSortedList(500, domain, 35);
  auto sbig1 = codec.Encode(lbig1, domain);
  auto sbig2 = codec.Encode(lbig2, domain);
  auto ssmall = codec.Encode(lsmall, domain);
  std::vector<const CompressedSet*> skewed = {sbig1.get(), sbig2.get(),
                                              ssmall.get()};
  const auto skew_plan = QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Leaf(2)});
  std::set<uint32_t> big_union(lbig1.begin(), lbig1.end());
  big_union.insert(lbig2.begin(), lbig2.end());
  ASSERT_GT(big_union.size(), 8 * lsmall.size());
  std::vector<uint32_t> oracle;
  for (uint32_t v : lsmall) {
    if (big_union.count(v) != 0) oracle.push_back(v);
  }
  ASSERT_TRUE(EvaluatePlanChecked(codec, skew_plan, skewed, nullptr, &arena,
                                  &out)
                  .ok());
  EXPECT_EQ(out, EvaluatePlan(codec, skew_plan, skewed));
  EXPECT_EQ(out, oracle);
}

TEST(ObservabilityTest, TracingAndMetricsDoNotPerturbResults) {
  // The determinism guarantee must survive observability: sampled tracing
  // plus the metrics registry enabled, at 1 and N threads, bit-identical to
  // the reference computed with everything off.
  const Codec* codec = FindCodec("PforDelta");
  ASSERT_NE(codec, nullptr);
  const Workload w = MakeWorkload("zipf", 10, 60);
  const EncodedWorkload e = Encode(*codec, w);

  obs::SetTraceSampling(0);
  obs::MetricsRegistry::Global().SetEnabled(false);
  std::vector<std::vector<uint32_t>> ref;
  ref.reserve(w.plans.size());
  for (const QueryPlan& p : w.plans) {
    ref.push_back(EvaluatePlan(*codec, p, e.ptrs));
  }

  obs::SetTraceSeed(42);
  obs::SetTraceSampling(4);
  obs::MetricsRegistry::Global().Reset();
  obs::MetricsRegistry::Global().SetEnabled(true);
  for (size_t threads : {size_t{1}, kStressThreads}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto got = ServeAll(*codec, w.lists, w.domain, w.plans, &pool);
    for (size_t q = 0; q < ref.size(); ++q) {
      ASSERT_EQ(got[q], ref[q]) << "query " << q;
    }
  }
  // One more run with every root sampled: still bit-identical, and now the
  // rings are guaranteed to hold spans.
  obs::SetTraceSampling(1);
  {
    ThreadPool pool(kStressThreads);
    const auto got = ServeAll(*codec, w.lists, w.domain, w.plans, &pool);
    for (size_t q = 0; q < ref.size(); ++q) {
      ASSERT_EQ(got[q], ref[q]) << "query " << q;
    }
  }
  // The instrumented runs actually recorded: one service_query latency per
  // query in the registry and spans in the rings.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .OpLatency(codec->Name(), obs::OpKind::kServiceQuery)
                ->Count(),
            3 * w.plans.size());
  obs::SetTraceSampling(0);  // quiesce before reading the rings
  EXPECT_FALSE(obs::SnapshotSpans().empty());
  obs::ClearSpans();
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
}

}  // namespace
}  // namespace intcomp
