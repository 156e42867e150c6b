// Seeded inputs and the correctness oracle of the serving benchmark.
//
// Everything the program under test receives is generated here: the
// posting lists the index is built from (rows drawn from the benchmark's
// --seed), the plan texts the clients send and the update batches the
// update probe applies (drawn from --seed). The oracle answers every plan with a plain sorted-vector evaluator over the
// generated lists (std::set_intersection / std::set_union, no codec), and
// a reply is checked by its digest: row count plus a 64-bit hash, with the
// rows required to be strictly increasing.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/query.h"
#include "storage/wal.h"

namespace perfbench {

using intcomp::Prng;
using intcomp::QueryPlan;
using Lists = std::vector<std::vector<uint32_t>>;

struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool sorted = true;  // strictly increasing

  bool Matches(const Digest& want) const {
    return sorted && count == want.count && hash == want.hash;
  }
};

Digest DigestRows(std::span<const uint32_t> rows);

// The sorted-vector reference evaluator.
std::vector<uint32_t> EvaluateOracle(const QueryPlan& plan, const Lists& lists);

struct Inputs {
  uint64_t num_rows = 0;
  Lists lists;
  std::vector<std::string> plan_texts;
  std::vector<QueryPlan> plans;
  std::vector<Digest> expected;  // per plan, over `lists`
  uint64_t postings = 0;         // Σ list sizes
};

Inputs MakeInputs(uint64_t seed, uint64_t num_rows, size_t num_lists,
                  size_t num_plans);

// An endless order of requests over plan ranks with popularity
// P(rank r) ∝ 1/(r+1)^skew, stratified: every block of about 1024 requests
// holds plan r round(1024 * P(r)) times (at least once), shuffled by the
// seed. Every run therefore sends the same mix of plans; only the order and
// the timing differ between seeds.
class PlanSequence {
 public:
  PlanSequence(size_t plans, double skew, uint64_t seed);
  uint32_t Next();

 private:
  std::vector<uint32_t> block_;
  size_t pos_ = 0;
  Prng rng_;
};

struct UpdateBatch {
  intcomp::storage::WalOp op = intcomp::storage::WalOp::kInsert;
  uint32_t list = 0;
  std::vector<uint32_t> rows;  // sorted unique
};

// The update probe's batches and the model of acknowledged writes. Inserts
// of random rows and removes of rows the list holds alternate, and the lists
// take turns in a fixed order.
class UpdateStream {
 public:
  UpdateStream(const Inputs& inputs, uint64_t seed, size_t batch_rows);

  UpdateBatch Next();
  // Folds an acknowledged batch into the model.
  void Apply(const UpdateBatch& batch);
  const Lists& Model() const { return model_; }

 private:
  uint64_t num_rows_;
  Lists model_;
  Prng rng_;
  size_t batch_rows_;
  uint64_t issued_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
