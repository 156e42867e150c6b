// Query plans combining intersection and union, e.g. SSB Q3.4's
// (L1 OR L2) AND (L3 OR L4) AND L5 (paper §6.1).

#ifndef INTCOMP_CORE_QUERY_H_
#define INTCOMP_CORE_QUERY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/codec.h"
#include "core/scratch.h"

namespace intcomp {

// Expression tree over a query's input lists (referenced by index).
struct QueryPlan {
  enum class Op { kLeaf, kAnd, kOr };

  Op op = Op::kLeaf;
  size_t leaf = 0;                  // input index (op == kLeaf)
  std::vector<QueryPlan> children;  // op == kAnd / kOr

  static QueryPlan Leaf(size_t index) {
    QueryPlan p;
    p.op = Op::kLeaf;
    p.leaf = index;
    return p;
  }
  static QueryPlan And(std::vector<QueryPlan> children) {
    QueryPlan p;
    p.op = Op::kAnd;
    p.children = std::move(children);
    return p;
  }
  static QueryPlan Or(std::vector<QueryPlan> children) {
    QueryPlan p;
    p.op = Op::kOr;
    p.children = std::move(children);
    return p;
  }
};

// Evaluates `plan` over the compressed inputs into `out`. AND nodes use SvS
// over leaf children (keeping them compressed) and probe already-materialized
// sub-results; OR nodes union leaves on the compressed form first, then
// merge in materialized sub-results. All intermediate lists are leased from
// `arena`; only `out`'s own growth allocates, so a caller that keeps one
// arena across a query stream (e.g. the index service's per-worker arenas)
// pays no per-query temporary allocation. The result is a pure function of
// (codec, plan, sets) — the arena never changes what is computed.
void EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                  std::span<const CompressedSet* const> sets,
                  ScratchArena* arena, std::vector<uint32_t>* out);

// Convenience form with a throwaway arena per call.
std::vector<uint32_t> EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                                   std::span<const CompressedSet* const> sets);

// The plan-shape check for plans that crossed a trust boundary:
// kInvalidArgument unless every leaf indexes one of `num_inputs` inputs and
// every AND/OR node has children. `leaves` receives the distinct leaf
// indices the plan references, ascending (partial on error).
Status ValidatePlan(const QueryPlan& plan, size_t num_inputs,
                    std::vector<size_t>* leaves);

// Fault-contained form of EvaluatePlan: computes bit-identical results on
// success, but instead of assuming a well-formed plan it returns
//   kCancelled /
//   kDeadlineExceeded  — `token` tripped (polled first, then at every plan
//                        node entry and SvS probe step, so latency is
//                        bounded by one decode/intersect);
//   kInvalidArgument   — ValidatePlan failed, or a referenced input set is
//                        null. The plan is validated once, before any work.
// On any non-OK status `out` is cleared. `token` may be null (no
// cancellation). The trusted EvaluatePlan runs the same evaluator with no
// token and no validation; this is the entry point for plans or sets that
// crossed a trust boundary.
Status EvaluatePlanChecked(const Codec& codec, const QueryPlan& plan,
                           std::span<const CompressedSet* const> sets,
                           const CancellationToken* token, ScratchArena* arena,
                           std::vector<uint32_t>* out);

}  // namespace intcomp

#endif  // INTCOMP_CORE_QUERY_H_
