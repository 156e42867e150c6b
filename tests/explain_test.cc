// Tests for the per-query EXPLAIN layer (obs/explain.h, DESIGN.md §5.13):
// tree completeness (every plan node attributed), the planner's
// estimate-vs-measured cost audit, cache probe outcomes, structural-JSON
// determinism across identical runs, exporter determinism (JSONL and Chrome
// trace-event), the trace reader-quiescence counter, the plan-text grammar,
// and the service cache occupancy gauges.

#include "obs/explain.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/plan_text.h"
#include "service/sharded_index.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

using obs::ExplainNode;
using obs::QueryExplain;

const Codec& Planner() { return *FindCodec("Planner"); }

// Mirrors the planner tests' mixed-shape workload: the per-list codec choice
// is genuinely mixed (dense lists → bitmap, sparse lists → list codec), so
// per-pair decisions in the explain tree cross codec families.
std::vector<std::vector<uint32_t>> MixedLists(uint64_t domain, uint64_t seed) {
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back(GenerateUniform(domain / 3, domain, seed));
  lists.push_back(GenerateUniform(200, domain, seed + 1));
  lists.push_back(GenerateMarkov(domain / 8, domain, 64.0, seed + 2));
  lists.push_back(GenerateZipf(2000, domain, 1.0, seed + 3));
  return lists;
}

size_t TotalNodes(const ExplainNode& n) {
  size_t total = 1;
  for (const ExplainNode& c : n.children) total += TotalNodes(c);
  return total;
}

size_t CountLeavesInPlan(const QueryPlan& plan) {
  if (plan.op == QueryPlan::Op::kLeaf) return 1;
  size_t total = 0;
  for (const QueryPlan& c : plan.children) total += CountLeavesInPlan(c);
  return total;
}

size_t CountOperatorsInPlan(const QueryPlan& plan) {
  if (plan.op == QueryPlan::Op::kLeaf) return 0;
  size_t total = 1;
  for (const QueryPlan& c : plan.children) total += CountOperatorsInPlan(c);
  return total;
}

// ------------------------------------------------------------- plan text

TEST(PlanTextTest, RoundTripsLeavesAndNestedOperators) {
  for (const char* text :
       {"7", "&(0,1)", "|(2,3,4)", "&(|(0,1),2)", "|(&(0,2),1,&(3,4,5))"}) {
    QueryPlan plan;
    ASSERT_TRUE(ParsePlanText(text, &plan).ok()) << text;
    EXPECT_EQ(PlanToText(plan), text);
  }
}

TEST(PlanTextTest, AcceptsWhitespaceBetweenTokens) {
  QueryPlan plan;
  ASSERT_TRUE(ParsePlanText(" &( 0 , | (1, 2) ) ", &plan).ok());
  EXPECT_EQ(PlanToText(plan), "&(0,|(1,2))");
}

TEST(PlanTextTest, RejectsMalformedInput) {
  QueryPlan plan;
  for (const char* text :
       {"", "&", "&(", "&()", "&(0,", "&(0))", "0 1", "x", "&(0,,1)",
        "99999999999999999999"}) {
    EXPECT_FALSE(ParsePlanText(text, &plan).ok()) << text;
  }
}

TEST(PlanTextTest, PreservesWrittenOrderWithoutCanonicalizing) {
  QueryPlan plan;
  ASSERT_TRUE(ParsePlanText("&(2,0,1)", &plan).ok());
  ASSERT_EQ(plan.children.size(), 3u);
  EXPECT_EQ(plan.children[0].leaf, 2u);
  EXPECT_EQ(plan.children[1].leaf, 0u);
  EXPECT_EQ(plan.children[2].leaf, 1u);
}

// --------------------------------------------------------- service explain

struct ServiceRig {
  std::vector<std::vector<uint32_t>> lists;
  ShardedIndex index;
  ThreadPool pool;
  IndexService service;

  ServiceRig(uint64_t domain, uint64_t seed, size_t shards, bool cache)
      : lists(MixedLists(domain, seed)),
        index(ShardedIndex::Build(Planner(), lists, domain, shards)),
        pool(2),
        service(&index, &pool,
                [cache] {
                  IndexServiceOptions o;
                  o.cache_enabled = cache;
                  return o;
                }()) {}
};

TEST(ExplainQueryTest, TreeCoversEveryPlanNodeOnEveryShard) {
  ServiceRig rig(1 << 14, TestSeed(0xe101), /*shards=*/3, /*cache=*/false);
  const QueryPlan plan = QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Leaf(2), QueryPlan::Leaf(3)});

  QueryExplain explain;
  std::vector<uint32_t> rows;
  ASSERT_TRUE(rig.service.Query(plan, &rows, &explain).ok());
  ASSERT_TRUE(explain.ok);

  EXPECT_EQ(explain.root.name, "service.query");
  ASSERT_NE(explain.root.FindAttr("rows"), nullptr);
  EXPECT_EQ(explain.root.FindAttr("rows")->u, rows.size());

  // Fan-out: one shard node per shard, each carrying its ordinal.
  const ExplainNode* fanout = explain.root.Find("service.fanout");
  ASSERT_NE(fanout, nullptr);
  ASSERT_EQ(fanout->children.size(), 3u);
  for (size_t s = 0; s < fanout->children.size(); ++s) {
    const ExplainNode& shard = fanout->children[s];
    EXPECT_EQ(shard.name, "service.shard");
    EXPECT_EQ(shard.ordinal, s);

    // Complete attribution: every plan leaf and every operator node of the
    // plan appears in this shard's subtree, plus one "list" node per
    // distinct referenced list.
    EXPECT_EQ(shard.CountNodes("plan.leaf"), CountLeavesInPlan(plan));
    EXPECT_EQ(shard.CountNodes("plan.and") + shard.CountNodes("plan.or"),
              CountOperatorsInPlan(plan));
    EXPECT_EQ(shard.CountNodes("list"), 4u);

    // Each list node names its serving codec and family.
    for (const ExplainNode& child : shard.children) {
      if (child.name != "list") continue;
      ASSERT_NE(child.FindAttr("codec"), nullptr);
      const ExplainNode* list_node = &child;
      const std::string family = list_node->FindAttr("family")->s;
      EXPECT_TRUE(family == "bitmap" || family == "list") << family;
    }
  }

  EXPECT_NE(explain.root.Find("service.stitch"), nullptr);
  EXPECT_NE(explain.root.Find("cache.probe"), nullptr);
}

TEST(ExplainQueryTest, MixedCodecPairCarriesEstimateAndMeasuredCost) {
  ServiceRig rig(1 << 14, TestSeed(0xe102), /*shards=*/2, /*cache=*/false);
  // Leaves 0 (dense → bitmap) and 1 (sparse → list codec) intersect through
  // the planner's strategy chooser.
  const QueryPlan plan =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});

  QueryExplain explain;
  std::vector<uint32_t> rows;
  ASSERT_TRUE(rig.service.Query(plan, &rows, &explain).ok());
  ASSERT_TRUE(explain.ok);

  const ExplainNode* pair = explain.root.Find("planner.pair");
  ASSERT_NE(pair, nullptr);
  ASSERT_NE(pair->FindAttr("strategy"), nullptr);
  ASSERT_NE(pair->FindAttr("codec_a"), nullptr);
  ASSERT_NE(pair->FindAttr("codec_b"), nullptr);
  // The pair genuinely crosses codec families in this workload.
  EXPECT_NE(pair->FindAttr("codec_a")->s, pair->FindAttr("codec_b")->s);
  // Estimated cost (model) and measured cost (wall) are both attributed.
  ASSERT_NE(pair->FindAttr("est_ns"), nullptr);
  EXPECT_GT(pair->FindAttr("est_ns")->d, 0.0);
  ASSERT_NE(pair->FindAttr("measured_ns"), nullptr);
  // And the estimate-vs-actual residual counters accumulate when metrics
  // are enabled (the audit feeds both surfaces from the same site).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  ASSERT_TRUE(rig.service.Query(plan, &rows).ok());
  reg.SetEnabled(false);
  uint64_t residual_count = 0;
  for (const char* strategy : {"compressed", "merge", "gallop"}) {
    residual_count += reg.CounterValue(
        std::string("planner.cost.residual.") + strategy + ".count");
  }
  EXPECT_GT(residual_count, 0u);
  reg.Reset();
}

TEST(ExplainQueryTest, CacheProbeOutcomeProgressesMissToHit) {
  ServiceRig rig(1 << 13, TestSeed(0xe103), /*shards=*/2, /*cache=*/true);
  const QueryPlan plan =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(2)});

  std::vector<uint32_t> rows;
  QueryExplain first, last;
  ASSERT_TRUE(rig.service.Query(plan, &rows, &first).ok());
  ASSERT_TRUE(rig.service.Query(plan, &rows, &last).ok());
  ASSERT_TRUE(rig.service.Query(plan, &rows, &last).ok());

  const ExplainNode* probe1 = first.root.Find("cache.probe");
  ASSERT_NE(probe1, nullptr);
  EXPECT_EQ(probe1->FindAttr("outcome")->s, "miss");
  // The admission gate stores on the second miss; run 3 hits.
  const ExplainNode* probe3 = last.root.Find("cache.probe");
  ASSERT_NE(probe3, nullptr);
  EXPECT_EQ(probe3->FindAttr("outcome")->s, "hit");
  // A hit short-circuits evaluation: no fan-out below the root.
  EXPECT_EQ(last.root.Find("service.fanout"), nullptr);
  EXPECT_EQ(probe3->FindAttr("rows")->u, rows.size());
}

TEST(ExplainQueryTest, StructuralJsonIsDeterministicAcrossIdenticalRuns) {
  const QueryPlan plan = QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(3)}),
       QueryPlan::Leaf(2)});
  std::string first_json;
  for (int run = 0; run < 2; ++run) {
    // A fresh rig per run: same seeds, same build, same (cold) cache state.
    ServiceRig rig(1 << 13, TestSeed(0xe104), /*shards=*/2, /*cache=*/true);
    QueryExplain explain;
    std::vector<uint32_t> rows;
    ASSERT_TRUE(rig.service.Query(plan, &rows, &explain).ok());
    ASSERT_TRUE(explain.ok);
    const std::string structural = explain.ToJson(/*include_timings=*/false);
    // Timing-stripped form: no wall-clock fields anywhere.
    EXPECT_EQ(structural.find("_ns"), std::string::npos);
    if (run == 0) {
      first_json = structural;
      // The full form does carry timings.
      EXPECT_NE(explain.ToJson(true).find("dur_ns"), std::string::npos);
    } else {
      EXPECT_EQ(structural, first_json);  // byte-identical
    }
  }
  EXPECT_FALSE(first_json.empty());
}

TEST(ExplainQueryTest, NullExplainPointerMatchesPlainQuery) {
  ServiceRig rig(1 << 13, TestSeed(0xe105), /*shards=*/2, /*cache=*/false);
  const QueryPlan plan =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  std::vector<uint32_t> plain, with_null, with_explain;
  ASSERT_TRUE(rig.service.Query(plan, &plain).ok());
  ASSERT_TRUE(rig.service.Query(plan, &with_null, nullptr).ok());
  QueryExplain explain;
  ASSERT_TRUE(rig.service.Query(plan, &with_explain, &explain).ok());
  EXPECT_EQ(with_null, plain);
  EXPECT_EQ(with_explain, plain);  // capture never changes results
  EXPECT_GT(TotalNodes(explain.root), 1u);
}

TEST(ExplainQueryTest, InvalidPlanStillReturnsACaptureWithTheError) {
  ServiceRig rig(1 << 12, TestSeed(0xe106), /*shards=*/2, /*cache=*/false);
  const QueryPlan plan = QueryPlan::Leaf(99);  // out of range
  QueryExplain explain;
  std::vector<uint32_t> rows;
  EXPECT_FALSE(rig.service.Query(plan, &rows, &explain).ok());
  EXPECT_TRUE(rows.empty());
}

// ------------------------------------------------------------- exporters

TEST(ExplainExportTest, ChromeTraceExportIsAPureFunctionOfTheSnapshot) {
  obs::SetTraceSampling(0);
  obs::ClearSpans();
  obs::SetTraceSeed(42);
  obs::SetTraceSampling(1);
  {
    TRACE_SPAN("export_root");
    for (int i = 0; i < 8; ++i) {
      TRACE_SPAN("export_child");
    }
  }
  obs::SetTraceSampling(0);
  const auto spans = obs::SnapshotSpans();
  ASSERT_GE(spans.size(), 9u);

  const std::string a = obs::ExportChromeTrace(spans);
  const std::string b = obs::ExportChromeTrace(spans);
  EXPECT_EQ(a, b);  // byte-identical for a fixed snapshot
  // Structure: trace-event container with complete events and the span ids
  // threaded through args for tooling.
  EXPECT_NE(a.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(a.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"export_root\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.find("\"parent_id\""), std::string::npos);
  obs::ClearSpans();
}

TEST(ExplainExportTest, JsonlAndPrometheusExportGauges) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  reg.SetGauge("service.cache.bytes", 4096);
  reg.SetGauge("service.cache.entries", 3);
  reg.SetGauge("service.cache.evictions", 1);
  reg.RecordOpLatency("Planner", obs::OpKind::kServiceQuery, 1000);
  reg.SetEnabled(false);

  const std::string jsonl = reg.ExportJsonl("explain_test");
  EXPECT_NE(jsonl.find("{\"metric\":\"gauge\",\"name\":"
                       "\"service.cache.bytes\",\"value\":4096}"),
            std::string::npos);
  EXPECT_EQ(jsonl, reg.ExportJsonl("explain_test"));  // deterministic

  const std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("# TYPE intcomp_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("intcomp_gauge{name=\"service.cache.entries\"} 3"),
            std::string::npos);
  reg.Reset();
}

TEST(ExplainExportTest, ServiceQueriesPublishCacheOccupancyGauges) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  {
    ServiceRig rig(1 << 13, TestSeed(0xe107), /*shards=*/2, /*cache=*/true);
    const QueryPlan plan =
        QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(2)});
    std::vector<uint32_t> rows;
    // Two misses: the admission gate stores on the second one.
    ASSERT_TRUE(rig.service.Query(plan, &rows).ok());
    ASSERT_TRUE(rig.service.Query(plan, &rows).ok());
  }
  reg.SetEnabled(false);
  EXPECT_GE(reg.GaugeValue("service.cache.entries"), 1u);
  EXPECT_GT(reg.GaugeValue("service.cache.bytes"), 0u);
  reg.Reset();
}

// ------------------------------------------------------------ quiescence

TEST(TraceQuiescenceTest, ActiveRecorderCountTracksOpenSpans) {
  obs::SetTraceSampling(0);
  obs::ClearSpans();
  obs::SetTraceSeed(42);
  EXPECT_EQ(obs::ActiveRecorderCount(), 0u);

  obs::SetTraceSampling(1);
  std::mutex mu;
  std::condition_variable cv;
  bool span_open = false, release = false;
  std::thread holder([&] {
    TRACE_SPAN("held_open");
    {
      std::unique_lock<std::mutex> lock(mu);
      span_open = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return span_open; });
  }
  // The holder thread is inside an open recording span: a snapshot now
  // would race its End(); the predicate the debug assertion checks.
  EXPECT_GE(obs::ActiveRecorderCount(), 1u);
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  holder.join();
  obs::SetTraceSampling(0);
  EXPECT_EQ(obs::ActiveRecorderCount(), 0u);  // quiescent: reads are safe
  EXPECT_FALSE(obs::SnapshotSpans().empty());
  obs::ClearSpans();
}

// ------------------------------------------------------- explain plumbing

TEST(ExplainScopeTest, InactiveWithoutACaptureAndAttrsAreDropped) {
  ASSERT_FALSE(obs::ExplainActive());
  obs::ExplainScope scope("no_capture");
  EXPECT_FALSE(scope.active());
  scope.AddUint("ignored", 1);  // must be a no-op, not a crash
}

TEST(ExplainScopeTest, SiblingsSortByOrdinalRegardlessOfRecordOrder) {
  obs::ExplainSink sink;
  {
    obs::ScopedExplainCapture capture(&sink);
    obs::ExplainScope root("root");
    {
      obs::ExplainScope late("child", /*ordinal=*/2);
    }
    {
      obs::ExplainScope early("child", /*ordinal=*/0);
    }
    {
      obs::ExplainScope mid("child", /*ordinal=*/1);
    }
  }
  const QueryExplain explain = sink.Build();
  ASSERT_TRUE(explain.ok);
  ASSERT_EQ(explain.root.children.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(explain.root.children[i].ordinal, i);
  }
}

TEST(ExplainScopeTest, ThreadPoolWorkersAttachUnderTheSubmittersScope) {
  obs::ExplainSink sink;
  {
    obs::ScopedExplainCapture capture(&sink);
    obs::ExplainScope root("root");
    ThreadPool pool(2);
    pool.ParallelFor(0, 4, [](size_t i, size_t) {
      obs::ExplainScope scope("worker", /*ordinal=*/i);
      scope.AddUint("task", i);
    });
  }
  const QueryExplain explain = sink.Build();
  ASSERT_TRUE(explain.ok);
  EXPECT_EQ(explain.root.name, "root");
  ASSERT_EQ(explain.root.CountNodes("worker"), 4u);
  for (size_t i = 0; i < explain.root.children.size(); ++i) {
    EXPECT_EQ(explain.root.children[i].ordinal, i);
  }
}

}  // namespace
}  // namespace intcomp
