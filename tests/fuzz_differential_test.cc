// Differential fuzzing: random list shapes and operation sequences, with
// every codec's output compared against the std::set_* reference and
// against every other codec. Seeds are fixed, so failures reproduce; crank
// --gtest_repeat or widen kRounds for longer campaigns.
//
// The kernel-differential half pins the scalar / SIMD / auto kernel modes to
// bit-identical outputs: raw kernel twins head-to-head, plus every codec's
// Intersect / Union / IntersectWithList re-run under each mode. This binary
// carries its own main() to parse --fuzz-iters=N (the CI budget knob; the
// acceptance campaign is --fuzz-iters=10000).

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "common/simd_intersect.h"
#include "core/registry.h"
#include "core/set_ops.h"
#include "engine/thread_pool.h"
#include "service/sharded_index.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {

int g_fuzz_iters = 150;  // kernel-differential rounds per codec

namespace {

// Restores the process-wide kernel mode on scope exit so the kernel tests
// cannot leak a forced mode into the rest of the suite.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : prev_(GetKernelMode()) {
    SetKernelMode(mode);
  }
  ~ScopedKernelMode() { SetKernelMode(prev_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode prev_;
};

// Random list with a randomly chosen shape: uniform / clustered / zipf-ish /
// runs, random density, random domain.
std::vector<uint32_t> RandomShapedList(Prng& rng) {
  const uint64_t domain = uint64_t{1}
                          << (10 + rng.NextBounded(22));  // 2^10 .. 2^31
  const size_t max_n = static_cast<size_t>(
      std::min<uint64_t>(domain / 2, 30000));
  const size_t n = 1 + rng.NextBounded(std::max<size_t>(1, max_n));
  switch (rng.NextBounded(4)) {
    case 0:
      return GenerateUniform(n, domain, rng.Next());
    case 1:
      return GenerateMarkov(n, domain, 2 + rng.NextBounded(16), rng.Next());
    case 2:
      return GenerateZipf(n, domain, 0.7 + rng.NextDouble(), rng.Next());
    default: {
      // Adversarial: consecutive runs separated by erratic gaps.
      std::vector<uint32_t> v;
      uint64_t pos = rng.NextBounded(1 << 16);
      while (v.size() < n && pos < domain) {
        uint64_t run = 1 + rng.NextBounded(64);
        while (run-- > 0 && v.size() < n && pos < domain) {
          v.push_back(static_cast<uint32_t>(pos++));
        }
        pos += rng.NextBounded(1 << (1 + rng.NextBounded(20)));
      }
      return v;
    }
  }
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, AllCodecsAgree) {
  Prng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
  const auto a = RandomShapedList(rng);
  const auto b = RandomShapedList(rng);
  const auto probe = RandomShapedList(rng);
  const auto ref_and = RefIntersect(a, b);
  const auto ref_or = RefUnion(a, b);
  const auto ref_probe = RefIntersect(a, probe);

  const auto codecs = AllCodecsWithExtensions();
  const uint64_t domain = uint64_t{1} << 32;
  for (const Codec* codec : codecs) {
    SCOPED_TRACE(std::string(codec->Name()));
    auto sa = codec->Encode(a, domain);
    auto sb = codec->Encode(b, domain);
    std::vector<uint32_t> decoded;
    codec->Decode(*sa, &decoded);
    ASSERT_EQ(decoded, a);
    std::vector<uint32_t> out;
    codec->Intersect(*sa, *sb, &out);
    ASSERT_EQ(out, ref_and);
    codec->Union(*sa, *sb, &out);
    ASSERT_EQ(out, ref_or);
    codec->IntersectWithList(*sa, probe, &out);
    ASSERT_EQ(out, ref_probe);

    // Serialization must preserve behaviour, not just bytes.
    std::vector<uint8_t> image;
    codec->Serialize(*sa, &image);
    auto restored = codec->Deserialize(image.data(), image.size());
    ASSERT_NE(restored, nullptr);
    codec->Intersect(*restored, *sb, &out);
    ASSERT_EQ(out, ref_and);
  }
}

TEST_P(FuzzDifferentialTest, MultiListPlansAgree) {
  Prng rng(GetParam() * 0xd1342543de82ef95ull + 7);
  const size_t k = 3 + rng.NextBounded(3);
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < k; ++i) lists.push_back(RandomShapedList(rng));

  std::vector<uint32_t> ref_and = lists[0];
  std::vector<uint32_t> ref_or = lists[0];
  for (size_t i = 1; i < k; ++i) {
    ref_and = RefIntersect(ref_and, lists[i]);
    ref_or = RefUnion(ref_or, lists[i]);
  }

  const uint64_t domain = uint64_t{1} << 32;
  for (const Codec* codec : AllCodecs()) {
    SCOPED_TRACE(std::string(codec->Name()));
    std::vector<std::unique_ptr<CompressedSet>> sets;
    std::vector<const CompressedSet*> ptrs;
    for (const auto& l : lists) {
      sets.push_back(codec->Encode(l, domain));
      ptrs.push_back(sets.back().get());
    }
    std::vector<uint32_t> out;
    IntersectSets(*codec, ptrs, &out);
    ASSERT_EQ(out, ref_and);
    UnionSets(*codec, ptrs, &out);
    ASSERT_EQ(out, ref_or);
    DifferenceSets(*codec, *sets[0], *sets[1], &out);
    std::vector<uint32_t> ref_diff;
    std::set_difference(lists[0].begin(), lists[0].end(), lists[1].begin(),
                        lists[1].end(), std::back_inserter(ref_diff));
    ASSERT_EQ(out, ref_diff);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(0, 12));

// ------------------------------------------------- adversarial fixed shapes
//
// Hand-picked worst cases for run-length and block codecs: pure runs,
// alternating bits (the RLE pessimum), singletons, the 2^32-1 universe
// boundary, and pairs with empty intersections. Every pair is cross-checked
// against a literal std::set oracle, through the serial drivers AND through
// the sharded index service.

constexpr uint32_t kMaxU32 = 4294967295u;  // 2^32 - 1 universe boundary

struct AdversarialShape {
  const char* name;
  std::vector<uint32_t> values;
};

std::vector<AdversarialShape> AdversarialShapes() {
  std::vector<AdversarialShape> shapes;
  shapes.push_back({"empty", {}});
  shapes.push_back({"singleton_zero", {0}});
  shapes.push_back({"singleton_max", {kMaxU32}});
  {
    // All-runs bitmap: long literal runs split by long zero runs, plus a
    // run ending exactly at the universe boundary.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 3000; ++i) v.push_back(i);
    for (uint32_t i = 0; i < 3000; ++i) v.push_back(1u << 20 | i);
    for (uint32_t i = 0; i < 3000; ++i) v.push_back(kMaxU32 - 2999 + i);
    shapes.push_back({"all_runs", std::move(v)});
  }
  {
    // Alternating bits: the worst case for every RLE scheme (no run ever
    // forms) and a dense-block stress for Roaring containers.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 40000; i += 2) v.push_back(i);
    shapes.push_back({"alternating", std::move(v)});
  }
  {
    // Alternating, offset by one: intersects the above to the empty set.
    std::vector<uint32_t> v;
    for (uint32_t i = 1; i < 40000; i += 2) v.push_back(i);
    shapes.push_back({"alternating_odd", std::move(v)});
  }
  {
    // Sparse tail hugging the boundary: every value in the last 2^16 chunk.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 1000; ++i) v.push_back(kMaxU32 - 3 * i);
    std::sort(v.begin(), v.end());
    shapes.push_back({"sparse_near_max", std::move(v)});
  }
  {
    // Wide stride: one value per WAH word-span, so every gap is a fill.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 2000; ++i) v.push_back(i * 65537u);
    shapes.push_back({"wide_stride", std::move(v)});
  }
  return shapes;
}

// Literal std::set oracle — deliberately naive, independent of the list
// helpers the production code shares.
std::vector<uint32_t> SetOracleIntersect(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  const std::set<uint32_t> sb(b.begin(), b.end());
  std::vector<uint32_t> out;
  for (uint32_t v : a) {
    if (sb.count(v)) out.push_back(v);
  }
  return out;
}

std::vector<uint32_t> SetOracleUnion(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::set<uint32_t> s(a.begin(), a.end());
  s.insert(b.begin(), b.end());
  return std::vector<uint32_t>(s.begin(), s.end());
}

std::vector<const Codec*> AllPlusExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

TEST(AdversarialDifferentialTest, SerialPathMatchesSetOracle) {
  const uint64_t domain = uint64_t{1} << 32;
  const auto shapes = AdversarialShapes();
  for (const Codec* codec : AllPlusExtensions()) {
    SCOPED_TRACE(std::string(codec->Name()));
    std::vector<std::unique_ptr<CompressedSet>> sets;
    for (const auto& s : shapes) sets.push_back(codec->Encode(s.values, domain));
    for (size_t i = 0; i < shapes.size(); ++i) {
      SCOPED_TRACE(shapes[i].name);
      std::vector<uint32_t> out;
      codec->Decode(*sets[i], &out);
      ASSERT_EQ(out, shapes[i].values);
      // Serialization must survive the adversarial shape too.
      std::vector<uint8_t> image;
      codec->Serialize(*sets[i], &image);
      auto restored = codec->Deserialize(image.data(), image.size());
      ASSERT_NE(restored, nullptr);
      codec->Decode(*restored, &out);
      ASSERT_EQ(out, shapes[i].values);
      for (size_t j = 0; j < shapes.size(); ++j) {
        SCOPED_TRACE(shapes[j].name);
        codec->Intersect(*sets[i], *sets[j], &out);
        ASSERT_EQ(out, SetOracleIntersect(shapes[i].values, shapes[j].values));
        codec->Union(*sets[i], *sets[j], &out);
        ASSERT_EQ(out, SetOracleUnion(shapes[i].values, shapes[j].values));
        codec->IntersectWithList(*sets[i], shapes[j].values, &out);
        ASSERT_EQ(out, SetOracleIntersect(shapes[j].values, shapes[i].values));
      }
    }
  }
}

TEST(AdversarialDifferentialTest, BatchPathMatchesSetOracle) {
  // The same pairwise grid, served: one AND and one OR plan per shape pair,
  // each a query through the index service over a 2-shard split of the
  // 2^32 row space (shapes straddle the split), result cache off.
  const uint64_t domain = uint64_t{1} << 32;
  const auto shapes = AdversarialShapes();
  std::vector<std::vector<uint32_t>> lists;
  for (const auto& s : shapes) lists.push_back(s.values);
  std::vector<QueryPlan> plans;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    for (size_t j = 0; j < shapes.size(); ++j) {
      plans.push_back(QueryPlan::And({QueryPlan::Leaf(i), QueryPlan::Leaf(j)}));
      plans.push_back(QueryPlan::Or({QueryPlan::Leaf(i), QueryPlan::Leaf(j)}));
      pairs.emplace_back(i, j);
    }
  }

  ThreadPool pool(4);
  IndexServiceOptions options;
  options.cache_enabled = false;
  for (const Codec* codec : AllPlusExtensions()) {
    SCOPED_TRACE(std::string(codec->Name()));
    const ShardedIndex index = ShardedIndex::Build(*codec, lists, domain, 2);
    IndexService service(&index, &pool, options);
    std::vector<uint32_t> rows;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const auto& [i, j] = pairs[p];
      SCOPED_TRACE(std::string(shapes[i].name) + " x " + shapes[j].name);
      ASSERT_TRUE(service.Query(plans[2 * p], &rows).ok());
      ASSERT_EQ(rows, SetOracleIntersect(shapes[i].values, shapes[j].values));
      ASSERT_TRUE(service.Query(plans[2 * p + 1], &rows).ok());
      ASSERT_EQ(rows, SetOracleUnion(shapes[i].values, shapes[j].values));
    }
  }
}

// --------------------------------------------------- kernel differential
//
// The SIMD kernels must be exact behavioral twins of their scalar
// counterparts: same inputs, bit-identical outputs, for every shape. Three
// layers of checking: the raw kernel pairs head-to-head, fixed
// block-boundary adversarial shapes through every codec under each mode,
// and randomized per-codec rounds (--fuzz-iters of them).

// Smaller random lists than RandomShapedList: the kernel fuzz runs many
// more rounds per codec, so each round stays cheap.
std::vector<uint32_t> SmallRandomList(Prng& rng) {
  const uint64_t domain = uint64_t{1} << (8 + rng.NextBounded(24));
  const size_t max_n =
      static_cast<size_t>(std::min<uint64_t>(domain / 2, 1500));
  const size_t n = rng.NextBounded(std::max<size_t>(2, max_n));
  if (n == 0) return {};
  switch (rng.NextBounded(3)) {
    case 0:
      return GenerateUniform(n, domain, rng.Next());
    case 1:
      return GenerateMarkov(n, domain, 2 + rng.NextBounded(16), rng.Next());
    default: {
      // Block-boundary aware: runs whose lengths hover around multiples of
      // the 128-value block size, so block edges land inside and between
      // runs in every alignment.
      std::vector<uint32_t> v;
      uint64_t pos = rng.NextBounded(256);
      while (v.size() < n && pos < domain) {
        uint64_t run = 128 * (1 + rng.NextBounded(2)) + rng.NextBounded(5) - 2;
        while (run-- > 0 && v.size() < n && pos < domain) {
          v.push_back(static_cast<uint32_t>(pos++));
        }
        pos += 1 + rng.NextBounded(1 << (1 + rng.NextBounded(16)));
      }
      return v;
    }
  }
}

TEST(KernelTwinsTest, ScalarAndSimdKernelsBitIdentical) {
  Prng rng(0x5ee5ee);
  for (int it = 0; it < std::max(2000, g_fuzz_iters); ++it) {
    const auto a = SmallRandomList(rng);
    const auto b = SmallRandomList(rng);
    SCOPED_TRACE("iter " + std::to_string(it));

    std::vector<uint32_t> scalar, simd;
    ScalarMergeIntersectInto(a, b, &scalar);
    SimdMergeIntersectInto(a, b, &simd);
    ASSERT_EQ(simd, scalar) << "merge intersect";
    ASSERT_EQ(scalar, RefIntersect(a, b));

    scalar.clear();
    simd.clear();
    const auto& small = a.size() <= b.size() ? a : b;
    const auto& large = a.size() <= b.size() ? b : a;
    ScalarGallopIntersectInto(small, large, &scalar);
    SimdGallopIntersectInto(small, large, &simd);
    ASSERT_EQ(simd, scalar) << "gallop intersect";
    ASSERT_EQ(scalar, RefIntersect(a, b));

    scalar.clear();
    simd.clear();
    ScalarMergeUnionInto(a, b, &scalar);
    SimdMergeUnionInto(a, b, &simd);
    ASSERT_EQ(simd, scalar) << "union merge";
    ASSERT_EQ(scalar, RefUnion(a, b));
  }
}

// Fixed shapes that stress 128-value block edges: full blocks, one-off
// blocks, probes pinned to skip_first values, probes past the last block,
// and dense tails crossing a block boundary.
std::vector<AdversarialShape> BlockBoundaryShapes() {
  std::vector<AdversarialShape> shapes;
  for (const size_t n : {127u, 128u, 129u, 256u, 257u}) {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < n; ++i) v.push_back(3 * i + 1);
    shapes.push_back({"stride3_n", std::move(v)});
  }
  {
    // Every 128th value of a long range: each probe is some block's
    // skip_first, so the gallop-to-block path hits exact boundaries.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 1024; ++i) v.push_back(i * 128);
    shapes.push_back({"skip_first_probes", std::move(v)});
  }
  {
    // Values straddling each block edge of a dense 8-block list.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 8 * 128; ++i) v.push_back(i);
    shapes.push_back({"dense_8_blocks", std::move(v)});
  }
  {
    // Sparse head + dense tail crossing the final block boundary, ending
    // far below any probe that targets past the last block.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 100; ++i) v.push_back(i * 100000);
    for (uint32_t i = 0; i < 300; ++i) v.push_back(10000000 + i);
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    shapes.push_back({"sparse_head_dense_tail", std::move(v)});
  }
  {
    // Probes entirely past the other lists' last block.
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 200; ++i) v.push_back(4000000000u + 7 * i);
    shapes.push_back({"past_last_block", std::move(v)});
  }
  return shapes;
}

TEST(KernelDifferentialTest, BlockBoundaryShapesAgreeAcrossModes) {
  const uint64_t domain = uint64_t{1} << 32;
  const auto shapes = BlockBoundaryShapes();
  const KernelMode modes[] = {KernelMode::kScalar, KernelMode::kSimd,
                              KernelMode::kAuto};
  for (const Codec* codec : AllPlusExtensions()) {
    SCOPED_TRACE(std::string(codec->Name()));
    std::vector<std::unique_ptr<CompressedSet>> sets;
    for (const auto& s : shapes) sets.push_back(codec->Encode(s.values, domain));
    for (size_t i = 0; i < shapes.size(); ++i) {
      for (size_t j = 0; j < shapes.size(); ++j) {
        SCOPED_TRACE(std::string(shapes[i].name) + " x " + shapes[j].name);
        const auto ref_and =
            SetOracleIntersect(shapes[i].values, shapes[j].values);
        const auto ref_or = SetOracleUnion(shapes[i].values, shapes[j].values);
        for (const KernelMode mode : modes) {
          SCOPED_TRACE(std::string(KernelModeName(mode)));
          ScopedKernelMode guard(mode);
          std::vector<uint32_t> out;
          codec->Intersect(*sets[i], *sets[j], &out);
          ASSERT_EQ(out, ref_and);
          codec->Union(*sets[i], *sets[j], &out);
          ASSERT_EQ(out, ref_or);
          codec->IntersectWithList(*sets[i], shapes[j].values, &out);
          ASSERT_EQ(out, ref_and);
        }
      }
    }
  }
}

// Randomized per-codec rounds: every operation re-run under each mode must
// be bit-identical. --fuzz-iters=10000 is the acceptance campaign.
class KernelDifferentialFuzzTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(KernelDifferentialFuzzTest, ModesBitIdentical) {
  const Codec& codec = *GetParam();
  Prng prng(std::hash<std::string_view>{}(codec.Name()) ^ 0xfeedface);
  const uint64_t domain = uint64_t{1} << 32;
  for (int it = 0; it < g_fuzz_iters; ++it) {
    SCOPED_TRACE("iter " + std::to_string(it));
    const auto a = SmallRandomList(prng);
    const auto b = SmallRandomList(prng);
    auto sa = codec.Encode(a, domain);
    auto sb = codec.Encode(b, domain);

    std::vector<uint32_t> and_s, or_s, probe_s;
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      codec.Intersect(*sa, *sb, &and_s);
      codec.Union(*sa, *sb, &or_s);
      codec.IntersectWithList(*sa, b, &probe_s);
    }
    ASSERT_EQ(and_s, RefIntersect(a, b));
    ASSERT_EQ(or_s, RefUnion(a, b));
    ASSERT_EQ(probe_s, RefIntersect(a, b));
    for (const KernelMode mode : {KernelMode::kSimd, KernelMode::kAuto}) {
      SCOPED_TRACE(std::string(KernelModeName(mode)));
      ScopedKernelMode guard(mode);
      std::vector<uint32_t> out;
      codec.Intersect(*sa, *sb, &out);
      ASSERT_EQ(out, and_s);
      codec.Union(*sa, *sb, &out);
      ASSERT_EQ(out, or_s);
      codec.IntersectWithList(*sa, b, &out);
      ASSERT_EQ(out, probe_s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, KernelDifferentialFuzzTest,
    ::testing::ValuesIn(AllPlusExtensions()),
    [](const ::testing::TestParamInfo<const Codec*>& info) {
      std::string name(info.param->Name());
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg.rfind("--fuzz-iters=", 0) == 0) {
      value = argv[i] + 13;
    } else if (arg == "--fuzz-iters" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    char* end = nullptr;
    const long iters = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || iters <= 0) {
      std::fprintf(stderr,
                   "--fuzz-iters: expected a positive integer, got '%s'\n",
                   value);
      return 1;
    }
    intcomp::g_fuzz_iters = static_cast<int>(iters);
  }
  return RUN_ALL_TESTS();
}
