// Parallel variant of Table 1: a batch of two-list intersections with
// |L2|/|L1| = 1000, swept over 1..N pool threads. Each run is one
// ThreadPool::ParallelFor over the plans, evaluating each with EvaluatePlan
// into the executing worker's ScratchArena. Prints per-codec scaling blocks
// (time, speedup vs 1 thread, steal count, busy fraction) so per-core
// scaling is visible at a glance.
//
// Defaults keep a laptop run short: uniform distribution, |L2| = 1M,
// 16 query pairs, the paper's headline codecs. Sweep further with
//   tab1_parallel --threads=1,2,4,8 --codecs=all --dists=uniform,zipf,markov
//
// Each (L1, L2) pair is generated with its own seeds, so the batch holds
// `queries` distinct intersections — a miniature of the concurrent-traffic
// serving scenario the pool exists for. Results are cross-checked across
// thread counts: any divergence from the 1-thread batch is a bug (each
// query runs the serial evaluator, so results cannot depend on the
// schedule) and aborts the run.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchutil/flags.h"
#include "benchutil/timer.h"
#include "core/scratch.h"
#include "engine/thread_pool.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

std::vector<uint32_t> MakeList(const std::string& dist, size_t n,
                               uint64_t domain, uint64_t seed) {
  if (dist == "zipf") return GenerateZipf(n, domain, kPaperZipfSkew, seed);
  if (dist == "markov") {
    return GenerateMarkov(n, domain, kPaperMarkovClustering, seed);
  }
  return GenerateUniform(n, domain, seed);
}

// One timed pass over the batch: wall time plus the pool's steal and
// busy/idle deltas across the pass.
struct BatchRun {
  double wall_ms = 0;
  uint64_t steals = 0;
  double busy_fraction = 0;
};

BatchRun RunBatch(ThreadPool& pool, const Codec& codec,
                  std::span<const QueryPlan> plans,
                  std::span<const CompressedSet* const> sets,
                  std::vector<std::unique_ptr<ScratchArena>>& arenas,
                  std::vector<std::vector<uint32_t>>* results) {
  results->resize(plans.size());
  uint64_t steals0 = 0, busy0 = 0, idle0 = 0;
  for (size_t w = 0; w < pool.NumWorkers(); ++w) {
    steals0 += pool.Steals(w);
    busy0 += pool.BusyNs(w);
    idle0 += pool.IdleNs(w);
  }
  // With --metrics-out, each query's latency lands in the (codec, query)
  // histogram, like the serial figure benches' MeasureOpMs.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::LatencyHistogram* hist =
      reg.Enabled() ? reg.OpLatency(codec.Name(), obs::OpKind::kQuery)
                    : nullptr;
  WallTimer timer;
  pool.ParallelFor(0, plans.size(), [&](size_t q, size_t worker) {
    const uint64_t t0 = hist != nullptr ? NowNs() : 0;
    EvaluatePlan(codec, plans[q], sets, arenas[worker].get(), &(*results)[q]);
    if (hist != nullptr) hist->Record(NowNs() - t0);
  });
  BatchRun run;
  run.wall_ms = timer.ElapsedMs();
  uint64_t busy = 0, idle = 0;
  for (size_t w = 0; w < pool.NumWorkers(); ++w) {
    run.steals += pool.Steals(w);
    busy += pool.BusyNs(w);
    idle += pool.IdleNs(w);
  }
  run.steals -= steals0;
  busy -= busy0;
  idle -= idle0;
  run.busy_fraction =
      busy + idle == 0 ? 0.0 : static_cast<double>(busy) / (busy + idle);
  return run;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchMetrics metrics("tab1_parallel", flags);
  const size_t n2 = flags.GetInt("size", 1000000);
  const size_t ratio = flags.GetInt("ratio", 1000);
  const size_t queries = flags.GetInt("queries", 16);
  const uint64_t domain = flags.GetInt("domain", kPaperDomain);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const uint64_t seed = flags.GetInt("seed", 7);

  std::vector<size_t> threads;
  for (const auto& t : SplitCsv(flags.GetString("threads", "1,2,4"))) {
    size_t v = 0;
    for (char c : t) {
      if (c < '0' || c > '9') { v = 0; break; }
      v = v * 10 + static_cast<size_t>(c - '0');
    }
    if (v == 0) {
      std::fprintf(stderr, "bad --threads entry: '%s' (want a count >= 1)\n",
                   t.c_str());
      std::exit(1);
    }
    threads.push_back(v);
  }
  const std::vector<std::string> dists =
      SplitCsv(flags.GetString("dists", "uniform"));
  for (const auto& d : dists) {
    if (d != "uniform" && d != "zipf" && d != "markov") {
      std::fprintf(stderr, "unknown distribution: %s\n", d.c_str());
      std::exit(1);
    }
  }

  std::vector<const Codec*> codecs;
  const std::string codecs_flag =
      flags.GetString("codecs", "Roaring,SIMDBP128,WAH");
  if (codecs_flag == "all") {
    codecs.assign(AllCodecs().begin(), AllCodecs().end());
  } else {
    for (const auto& name : SplitCsv(codecs_flag)) {
      const Codec* c = FindCodec(name);
      if (c == nullptr) {
        std::fprintf(stderr, "unknown codec: %s\n", name.c_str());
        std::exit(1);
      }
      codecs.push_back(c);
    }
  }

  std::printf("tab1_parallel: batch of %zu intersections, |L2|/|L1| = %zu\n",
              queries, ratio);
  for (const std::string& dist : dists) {
    // One shared immutable index per distribution: `queries` pairs of
    // (L1, L2), each with distinct seeds.
    const size_t n1 = std::max<size_t>(1, n2 / ratio);
    std::vector<std::vector<uint32_t>> lists;
    std::vector<QueryPlan> plans;
    for (size_t q = 0; q < queries; ++q) {
      lists.push_back(MakeList(dist, n1, domain, seed + 2 * q + 1));
      lists.push_back(MakeList(dist, n2, domain, seed + 2 * q + 2));
      plans.push_back(QueryPlan::And(
          {QueryPlan::Leaf(2 * q), QueryPlan::Leaf(2 * q + 1)}));
    }

    for (const Codec* codec : codecs) {
      EncodedLists enc = EncodeLists(*codec, lists, domain);
      const auto ptrs = enc.Ptrs();

      std::vector<ScalingRow> rows;
      std::vector<std::vector<uint32_t>> reference;
      double base_ms = 0;
      for (size_t t : threads) {
        ThreadPool pool(t);
        std::vector<std::unique_ptr<ScratchArena>> arenas;
        for (size_t w = 0; w < pool.NumWorkers(); ++w) {
          arenas.push_back(std::make_unique<ScratchArena>());
        }
        std::vector<std::vector<uint32_t>> results;
        // Warm-up: grows the arenas, faults in the index.
        RunBatch(pool, *codec, plans, ptrs, arenas, &results);
        BatchRun best;
        for (int r = 0; r < repeats; ++r) {
          const BatchRun run = RunBatch(pool, *codec, plans, ptrs, arenas,
                                        &results);
          if (r == 0 || run.wall_ms < best.wall_ms) best = run;
        }
        if (reference.empty()) {
          reference = std::move(results);
          base_ms = best.wall_ms;
        } else if (results != reference) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %s %s differs at %zu threads\n",
                       std::string(codec->Name()).c_str(), dist.c_str(), t);
          std::exit(1);
        }
        rows.push_back({t, best.wall_ms, base_ms / best.wall_ms,
                        1000.0 * static_cast<double>(queries) / best.wall_ms,
                        best.steals, best.busy_fraction});
      }
      PrintScalingBlock("tab1_parallel: " + std::string(codec->Name()) + ", " +
                            dist + "/" + std::to_string(n2),
                        rows);
    }
  }
  PrintPaperShape(
      "Per-query parallelism scales near-linearly until memory bandwidth "
      "saturates: ~Nx throughput at N threads for the compute-bound codecs "
      "(WAH, SIMDBP128), somewhat less for the most bandwidth-lean ones "
      "(Roaring), mirroring the multicore results in the Roaring and SIMD "
      "intersection papers rather than the single-core Table 1.");
}

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  intcomp::Run(argc, argv);
  return 0;
}
