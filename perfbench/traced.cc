#include "traced.h"

#include <chrono>

namespace perfbench {

namespace {

thread_local uint64_t tl_codec_ns = 0;
thread_local uint64_t tl_plan_sets_ns = 0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr size_t kOther = TracedCodec::kBuckets.size() - 1;

}  // namespace

uint64_t TracedCodec::ThreadNs() { return tl_codec_ns; }

uint64_t TracedCodec::TotalCalls(size_t bucket) const {
  uint64_t calls = 0;
  for (const Totals& t : totals_[bucket]) {
    calls += t.calls.load(std::memory_order_relaxed);
  }
  return calls;
}

size_t TracedCodec::Bucket(const CompressedSet& set) const {
  const std::string_view name = inner_->SetCodecName(set);
  for (size_t b = 0; b < kOther; ++b) {
    if (name == kBuckets[b]) return b;
  }
  return kOther;
}

size_t TracedCodec::Bucket(const CompressedSet& a,
                           const CompressedSet& b) const {
  const size_t ba = Bucket(a);
  return ba == Bucket(b) ? ba : kOther;
}

void TracedCodec::Record(size_t bucket, Op op, uint64_t start_ns) const {
  const uint64_t ns = NowNs() - start_ns;
  tl_codec_ns += ns;
  totals_[bucket][op].ns.fetch_add(ns, std::memory_order_relaxed);
  totals_[bucket][op].calls.fetch_add(1, std::memory_order_relaxed);
}

void TracedCodec::Decode(const CompressedSet& set,
                         std::vector<uint32_t>* out) const {
  const uint64_t start = NowNs();
  inner_->Decode(set, out);
  Record(Bucket(set), kDecode, start);
}

void TracedCodec::Intersect(const CompressedSet& a, const CompressedSet& b,
                            std::vector<uint32_t>* out) const {
  const uint64_t start = NowNs();
  inner_->Intersect(a, b, out);
  Record(Bucket(a, b), kIntersect, start);
}

void TracedCodec::Union(const CompressedSet& a, const CompressedSet& b,
                        std::vector<uint32_t>* out) const {
  const uint64_t start = NowNs();
  inner_->Union(a, b, out);
  Record(Bucket(a, b), kUnion, start);
}

void TracedCodec::IntersectWithList(const CompressedSet& a,
                                    std::span<const uint32_t> probe,
                                    std::vector<uint32_t>* out) const {
  const uint64_t start = NowNs();
  inner_->IntersectWithList(a, probe, out);
  Record(Bucket(a), kIntersect, start);
}

uint64_t TracedSnapshot::ThreadPlanSetsNs() { return tl_plan_sets_ns; }

intcomp::StatusOr<std::span<const CompressedSet* const>>
TracedSnapshot::PlanSets(size_t shard, std::span<const size_t> leaves) const {
  const uint64_t start = NowNs();
  auto sets = inner_->PlanSets(shard, leaves);
  tl_plan_sets_ns += NowNs() - start;
  return sets;
}

}  // namespace perfbench
