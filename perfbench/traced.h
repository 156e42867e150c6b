// Decorators the traced run hands to the program's public entry points.
//
// TracedCodec forwards every Codec call to the index's codec and times
// Decode, Intersect / IntersectWithList and Union per set codec, the
// planner's per-list choice. On the benchmark's lists the planner picks EWAH
// (bitmap family) or PEF (inverted-list family); a pair of sets on different
// codecs, or a set on any other codec, counts as Other. TracedSnapshot
// forwards an IndexSnapshot, times PlanSets and exposes the TracedCodec as
// codec(), so EvaluatePlanChecked over its sets reports its kernel time per
// codec.
// Neither changes a result: every traced answer is checked against the
// same oracle as the untraced ones.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/codec.h"
#include "service/snapshot.h"

namespace perfbench {

using intcomp::Codec;
using intcomp::CompressedSet;

class TracedCodec final : public Codec {
 public:
  enum Op { kDecode, kIntersect, kUnion, kNumOps };
  static constexpr std::array<std::string_view, 3> kBuckets = {"EWAH", "PEF",
                                                               "Other"};
  static constexpr std::array<std::string_view, kNumOps> kOpNames = {
      "decode", "intersect", "union"};

  explicit TracedCodec(const Codec* inner) : inner_(inner) {}

  uint64_t TotalNs(size_t bucket, Op op) const {
    return totals_[bucket][op].ns.load(std::memory_order_relaxed);
  }
  uint64_t TotalCalls(size_t bucket) const;
  // Nanoseconds the calling thread has spent in timed calls, ever.
  static uint64_t ThreadNs();

  std::string_view Name() const override { return inner_->Name(); }
  intcomp::CodecFamily Family() const override { return inner_->Family(); }
  intcomp::CodecFamily EffectiveFamily(
      const CompressedSet& set) const override {
    return inner_->EffectiveFamily(set);
  }
  std::string_view SetCodecName(const CompressedSet& set) const override {
    return inner_->SetCodecName(set);
  }
  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
                                        uint64_t domain) const override {
    return inner_->Encode(sorted, domain);
  }
  void Decode(const CompressedSet& set,
              std::vector<uint32_t>* out) const override;
  void Intersect(const CompressedSet& a, const CompressedSet& b,
                 std::vector<uint32_t>* out) const override;
  void Union(const CompressedSet& a, const CompressedSet& b,
             std::vector<uint32_t>* out) const override;
  void IntersectWithList(const CompressedSet& a,
                         std::span<const uint32_t> probe,
                         std::vector<uint32_t>* out) const override;
  void Serialize(const CompressedSet& set,
                 std::vector<uint8_t>* out) const override {
    inner_->Serialize(set, out);
  }
  std::unique_ptr<CompressedSet> Deserialize(const uint8_t* data,
                                             size_t size) const override {
    return inner_->Deserialize(data, size);
  }
  std::unique_ptr<CompressedSet> DeserializeView(
      std::span<const uint8_t> image) const override {
    return inner_->DeserializeView(image);
  }
  bool SupportsViewDeserialize() const override {
    return inner_->SupportsViewDeserialize();
  }
  intcomp::StatusOr<std::unique_ptr<CompressedSet>> DeserializeChecked(
      std::span<const uint8_t> image, uint64_t domain) const override {
    return inner_->DeserializeChecked(image, domain);
  }
  intcomp::Status ValidateSet(const CompressedSet& set,
                              uint64_t domain) const override {
    return inner_->ValidateSet(set, domain);
  }

 private:
  struct Totals {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> calls{0};
  };

  size_t Bucket(const CompressedSet& set) const;
  size_t Bucket(const CompressedSet& a, const CompressedSet& b) const;
  void Record(size_t bucket, Op op, uint64_t start_ns) const;

  const Codec* inner_;
  mutable std::array<std::array<Totals, kNumOps>, kBuckets.size()> totals_;
};

class TracedSnapshot final : public intcomp::IndexSnapshot {
 public:
  // `codec` must wrap inner->codec() and outlive this snapshot.
  TracedSnapshot(std::shared_ptr<const intcomp::IndexSnapshot> inner,
                 const TracedCodec* codec)
      : inner_(std::move(inner)), codec_(codec) {}

  // Nanoseconds the calling thread has spent in PlanSets, ever.
  static uint64_t ThreadPlanSetsNs();

  const Codec& codec() const override { return *codec_; }
  const intcomp::ShardRouter& Router() const override {
    return inner_->Router();
  }
  size_t NumLists() const override { return inner_->NumLists(); }
  std::string_view CodecSignature() const override {
    return inner_->CodecSignature();
  }
  size_t SizeInBytes() const override { return inner_->SizeInBytes(); }
  intcomp::StatusOr<std::span<const CompressedSet* const>> PlanSets(
      size_t shard, std::span<const size_t> leaves) const override;

 private:
  std::shared_ptr<const intcomp::IndexSnapshot> inner_;
  const TracedCodec* codec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
