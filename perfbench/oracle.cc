#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "service/plan_text.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

constexpr uint64_t kShapeSeed = 0x5EED;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void Canonicalize(std::vector<uint32_t>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

// Plan shapes follow bench/load_gen: a leaf, an OR of up to four lists, an
// OR over a run of adjacent lists, and an AND of two ORs or of two or three
// lists. The shape is fixed by popularity rank.
QueryPlan MakePlan(size_t rank, size_t lists, Prng* rng) {
  const auto leaf = [&] { return QueryPlan::Leaf(rng->NextBounded(lists)); };
  const auto some_or = [&](size_t max_terms) {
    std::vector<QueryPlan> kids;
    const size_t terms = 1 + rng->NextBounded(max_terms);
    for (size_t i = 0; i < terms; ++i) kids.push_back(leaf());
    return kids.size() == 1 ? kids[0] : QueryPlan::Or(std::move(kids));
  };
  switch (rank % 4) {
    case 0:
      return leaf();
    case 1:
      return some_or(4);
    case 2: {
      const size_t lo = rng->NextBounded(lists);
      const size_t hi = std::min<size_t>(lists - 1, lo + rng->NextBounded(4));
      std::vector<QueryPlan> kids;
      for (size_t c = lo; c <= hi; ++c) kids.push_back(QueryPlan::Leaf(c));
      return kids.size() == 1 ? kids[0] : QueryPlan::Or(std::move(kids));
    }
    default:
      if ((rank / 4) % 2 == 0) return QueryPlan::And({some_or(3), some_or(3)});
      // An AND of compressed leaves is where the planner picks a strategy.
      std::vector<QueryPlan> kids;
      for (size_t i = 0, n = 2 + rng->NextBounded(2); i < n; ++i) {
        kids.push_back(leaf());
      }
      return QueryPlan::And(std::move(kids));
  }
}

}  // namespace

Digest DigestRows(std::span<const uint32_t> rows) {
  Digest d;
  d.count = rows.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    d.hash += Mix(rows[i]);
    if (i > 0 && rows[i] <= rows[i - 1]) d.sorted = false;
  }
  return d;
}

std::vector<uint32_t> EvaluateOracle(const QueryPlan& plan,
                                     const Lists& lists) {
  if (plan.op == QueryPlan::Op::kLeaf) return lists.at(plan.leaf);
  std::vector<uint32_t> acc = EvaluateOracle(plan.children[0], lists);
  std::vector<uint32_t> next;
  for (size_t c = 1; c < plan.children.size(); ++c) {
    const std::vector<uint32_t> kid = EvaluateOracle(plan.children[c], lists);
    next.clear();
    if (plan.op == QueryPlan::Op::kAnd) {
      std::set_intersection(acc.begin(), acc.end(), kid.begin(), kid.end(),
                            std::back_inserter(next));
    } else {
      std::set_union(acc.begin(), acc.end(), kid.begin(), kid.end(),
                     std::back_inserter(next));
    }
    acc.swap(next);
  }
  return acc;
}

Inputs MakeInputs(uint64_t seed, uint64_t num_rows, size_t num_lists,
                  size_t num_plans) {
  Inputs in;
  in.num_rows = num_rows;
  // The workload's shape is the same for every seed: list l has density
  // 1/(3 + k) with k spread evenly over [0, 40) as in load_gen's draw, in a
  // fixed shuffled order, distributions cycle uniform / zipf / markov, and
  // the plans are fixed. The seed draws the rows of every list (and, in
  // serve_bench, the arrivals and the update batches), so run-to-run
  // differences between seeds are samples of one workload, not different
  // workloads.
  Prng rng(kShapeSeed);
  std::vector<size_t> k(num_lists);
  for (size_t l = 0; l < num_lists; ++l) k[l] = l * 40 / num_lists;
  for (size_t l = num_lists; l > 1; --l) {
    std::swap(k[l - 1], k[rng.NextBounded(l)]);
  }
  for (size_t l = 0; l < num_lists; ++l) {
    const size_t n = 1 + static_cast<size_t>(static_cast<double>(num_rows) /
                                             (3.0 + static_cast<double>(k[l])));
    const uint64_t list_seed = seed * 1000003 + 100 + l;
    switch (l % 3) {
      case 0:
        in.lists.push_back(intcomp::GenerateUniform(n, num_rows, list_seed));
        break;
      case 1:
        in.lists.push_back(intcomp::GenerateZipf(
            n, num_rows, intcomp::kPaperZipfSkew, list_seed));
        break;
      default:
        in.lists.push_back(intcomp::GenerateMarkov(
            n, num_rows, intcomp::kPaperMarkovClustering, list_seed));
    }
    // GenerateMarkov emits exactly n values and may run past the domain;
    // ShardedIndex::Build requires rows < num_rows.
    std::vector<uint32_t>& list = in.lists.back();
    list.erase(std::lower_bound(list.begin(), list.end(), num_rows),
               list.end());
    in.postings += list.size();
  }
  for (size_t r = 0; r < num_plans; ++r) {
    in.plans.push_back(MakePlan(r, num_lists, &rng));
    in.plan_texts.push_back(intcomp::PlanToText(in.plans.back()));
    in.expected.push_back(
        DigestRows(EvaluateOracle(in.plans.back(), in.lists)));
  }
  return in;
}

PlanSequence::PlanSequence(size_t plans, double skew, uint64_t seed)
    : rng_(seed) {
  constexpr double kBlock = 1024;
  std::vector<double> weight(plans);
  double total = 0;
  for (size_t r = 0; r < plans; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew);
    total += weight[r];
  }
  for (size_t r = 0; r < plans; ++r) {
    const size_t count = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kBlock * weight[r] / total)));
    block_.insert(block_.end(), count, static_cast<uint32_t>(r));
  }
  pos_ = block_.size();
}

uint32_t PlanSequence::Next() {
  if (pos_ == block_.size()) {
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

UpdateStream::UpdateStream(const Inputs& inputs, uint64_t seed,
                           size_t batch_rows)
    : num_rows_(inputs.num_rows),
      model_(inputs.lists),
      rng_(seed * 7919 + 17),
      batch_rows_(batch_rows) {}

UpdateBatch UpdateStream::Next() {
  using intcomp::storage::WalOp;
  UpdateBatch b;
  // Every seed changes the same lists at the same points; only the rows
  // differ.
  const uint64_t i = issued_++;
  b.op = i % 2 == 0 ? WalOp::kInsert : WalOp::kRemove;
  b.list = static_cast<uint32_t>((i / 2) % model_.size());
  const std::vector<uint32_t>& list = model_[b.list];
  for (size_t r = 0; r < batch_rows_; ++r) {
    if (b.op == WalOp::kInsert) {
      b.rows.push_back(static_cast<uint32_t>(rng_.NextBounded(num_rows_)));
    } else if (!list.empty()) {
      b.rows.push_back(list[rng_.NextBounded(list.size())]);
    }
  }
  Canonicalize(&b.rows);
  return b;
}

void UpdateStream::Apply(const UpdateBatch& batch) {
  std::vector<uint32_t>& list = model_[batch.list];
  std::vector<uint32_t> next;
  next.reserve(list.size() + batch.rows.size());
  if (batch.op == intcomp::storage::WalOp::kInsert) {
    std::set_union(list.begin(), list.end(), batch.rows.begin(),
                   batch.rows.end(), std::back_inserter(next));
  } else {
    std::set_difference(list.begin(), list.end(), batch.rows.begin(),
                        batch.rows.end(), std::back_inserter(next));
  }
  list.swap(next);
}

}  // namespace perfbench
