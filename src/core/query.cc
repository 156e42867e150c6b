#include "core/query.h"

#include <algorithm>

#include "core/set_ops.h"
#include "invlist/plain_list.h"
#include "obs/explain.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {
namespace {

inline void CountDecodedSet(const CompressedSet& set) {
  obs::ThreadOpCounters().bytes_decoded += set.SizeInBytes();
}

// Emits one explain node for a leaf that an AND/OR parent consumes in place
// (inlined leaves never recurse, so without this they would be invisible and
// the explain tree would not cover the whole plan).
inline void ExplainInlineLeaf(const Codec& codec, uint32_t leaf,
                              const CompressedSet& set) {
  obs::ExplainScope scope("plan.leaf");
  if (scope.active()) {
    scope.AddUint("leaf", leaf);
    scope.AddUint("card", set.Cardinality());
    scope.AddStr("codec", codec.SetCodecName(set));
  }
}

Status CollectLeaves(const QueryPlan& plan, size_t num_inputs,
                     std::vector<size_t>* leaves) {
  if (plan.op == QueryPlan::Op::kLeaf) {
    if (plan.leaf >= num_inputs) {
      return Status::InvalidArgument("plan leaf index out of range");
    }
    leaves->push_back(plan.leaf);
    return Status::Ok();
  }
  if (plan.children.empty()) {
    return Status::InvalidArgument("AND/OR node with no children");
  }
  for (const QueryPlan& child : plan.children) {
    Status st = CollectLeaves(child, num_inputs, leaves);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status Evaluate(const Codec& codec, const QueryPlan& plan,
                std::span<const CompressedSet* const> sets,
                const CancellationToken* token, ScratchArena& arena,
                std::vector<uint32_t>* out);

// Splits an AND/OR node's children: leaves stay compressed (in plan order),
// operator children are evaluated into arena leases.
Status EvaluateChildren(const Codec& codec, const QueryPlan& plan,
                        std::span<const CompressedSet* const> sets,
                        const CancellationToken* token, ScratchArena& arena,
                        std::vector<const CompressedSet*>* leaves,
                        std::vector<ScratchArena::Lease>* materialized) {
  for (const QueryPlan& child : plan.children) {
    if (child.op == QueryPlan::Op::kLeaf) {
      ExplainInlineLeaf(codec, child.leaf, *sets[child.leaf]);
      leaves->push_back(sets[child.leaf]);
    } else {
      ScratchArena::Lease sub = arena.Acquire();
      Status st = Evaluate(codec, child, sets, token, arena, sub.get());
      if (!st.ok()) return st;
      materialized->push_back(std::move(sub));
    }
  }
  return Status::Ok();
}

// Writes the plan's result into *out (cleared first). Temporaries are
// leased from `arena`; `out` itself is caller storage so results can
// outlive the evaluation. The plan must already be valid for `sets`;
// `token` (nullable) is polled at every node entry and SvS probe step.
Status Evaluate(const Codec& codec, const QueryPlan& plan,
                std::span<const CompressedSet* const> sets,
                const CancellationToken* token, ScratchArena& arena,
                std::vector<uint32_t>* out) {
  if (token != nullptr) {
    Status st = token->Check();
    if (!st.ok()) return st;
  }
  out->clear();
  switch (plan.op) {
    case QueryPlan::Op::kLeaf: {
      TRACE_SPAN("decode");
      obs::ExplainScope scope("plan.leaf");
      if (scope.active()) {
        scope.AddUint("leaf", plan.leaf);
        scope.AddUint("card", sets[plan.leaf]->Cardinality());
        scope.AddStr("codec", codec.SetCodecName(*sets[plan.leaf]));
      }
      CountDecodedSet(*sets[plan.leaf]);
      codec.Decode(*sets[plan.leaf], out);
      return Status::Ok();
    }
    case QueryPlan::Op::kAnd: {
      obs::ExplainScope scope("plan.and");
      scope.AddUint("children", plan.children.size());
      // Materialize non-leaf children; keep leaves compressed for SvS.
      std::vector<const CompressedSet*> leaf_sets;
      std::vector<ScratchArena::Lease> materialized;
      Status st = EvaluateChildren(codec, plan, sets, token, arena,
                                   &leaf_sets, &materialized);
      if (!st.ok()) return st;
      std::vector<TaggedSet> leaves;
      leaves.reserve(leaf_sets.size());
      for (const CompressedSet* s : leaf_sets) leaves.push_back({&codec, s});
      SortByCardinality(leaves);
      std::sort(materialized.begin(), materialized.end(),
                [](const auto& a, const auto& b) { return a->size() < b->size(); });

      // SvS seed: the merged materialized results, else the smallest one or
      // two leaves; the remaining leaves are probed into it.
      size_t seeded = 0;
      if (!materialized.empty()) {
        out->swap(*materialized[0]);
        ScratchArena::Lease next = arena.Acquire();
        for (size_t i = 1; i < materialized.size(); ++i) {
          IntersectLists(*out, *materialized[i], next.get());
          out->swap(*next);
        }
      } else if (leaves.size() == 1) {
        CountDecodedSet(*leaves[0].set);
        codec.Decode(*leaves[0].set, out);
        seeded = 1;
      } else {
        codec.Intersect(*leaves[0].set, *leaves[1].set, out);
        seeded = 2;
      }
      st = ProbeSvS(std::span(leaves).subspan(seeded), token, &arena, out);
      if (!st.ok()) return st;
      scope.AddUint("rows", out->size());
      return Status::Ok();
    }
    case QueryPlan::Op::kOr:
    default: {
      obs::ExplainScope scope("plan.or");
      scope.AddUint("children", plan.children.size());
      std::vector<const CompressedSet*> leaves;
      std::vector<ScratchArena::Lease> materialized;
      Status st = EvaluateChildren(codec, plan, sets, token, arena, &leaves,
                                   &materialized);
      if (!st.ok()) return st;
      if (!leaves.empty()) {
        UnionSets(codec, leaves, &arena, out);
      }
      ScratchArena::Lease merged = arena.Acquire();
      for (const auto& m : materialized) {
        UnionLists(*out, *m, merged.get());
        out->swap(*merged);
      }
      scope.AddUint("rows", out->size());
      return Status::Ok();
    }
  }
}

}  // namespace

Status ValidatePlan(const QueryPlan& plan, size_t num_inputs,
                    std::vector<size_t>* leaves) {
  leaves->clear();
  Status st = CollectLeaves(plan, num_inputs, leaves);
  std::sort(leaves->begin(), leaves->end());
  leaves->erase(std::unique(leaves->begin(), leaves->end()), leaves->end());
  return st;
}

void EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                  std::span<const CompressedSet* const> sets,
                  ScratchArena* arena, std::vector<uint32_t>* out) {
  Evaluate(codec, plan, sets, nullptr, *arena, out);
}

std::vector<uint32_t> EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                                   std::span<const CompressedSet* const> sets) {
  ScratchArena arena;
  std::vector<uint32_t> out;
  Evaluate(codec, plan, sets, nullptr, arena, &out);
  return out;
}

Status EvaluatePlanChecked(const Codec& codec, const QueryPlan& plan,
                           std::span<const CompressedSet* const> sets,
                           const CancellationToken* token, ScratchArena* arena,
                           std::vector<uint32_t>* out) {
  out->clear();
  if (token != nullptr) {
    if (Status st = token->Check(); !st.ok()) return st;
  }
  std::vector<size_t> leaves;
  if (Status st = ValidatePlan(plan, sets.size(), &leaves); !st.ok()) {
    return st;
  }
  for (size_t leaf : leaves) {
    if (sets[leaf] == nullptr) {
      return Status::InvalidArgument("plan references missing input set");
    }
  }
  Status st = Evaluate(codec, plan, sets, token, *arena, out);
  if (!st.ok()) out->clear();
  return st;
}

}  // namespace intcomp
