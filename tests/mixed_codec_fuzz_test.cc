// Mixed-codec differential fuzzer (satellite of DESIGN.md §5.12).
//
// Mixed-codec operations intersect, union, and difference sets that live
// under *different* codecs — the boundary the planner's per-list codec
// choice creates inside one index. Intersection goes through the rule
// served queries use, planner::PlannedIntersect under every SetOpStrategy
// (a forced kCompressed degrades to the probe across codecs), and the k-way
// planner::PlannedIntersectSets; union and difference through the tagged
// ops in core/set_ops.h. This fuzzer drives every bitmap×list codec pairing
// (plus the adaptive extensions as a third operand) through those ops
// against a sorted-vector oracle, and checks the metamorphic identities
// that catch asymmetric bugs a single oracle comparison can miss:
//
//   * commutativity:  A ∩ B = B ∩ A and A ∪ B = B ∪ A with the codec
//     assignment swapped along with the operands;
//   * De Morgan:      A ∩ B = ¬(¬A ∪ ¬B) with the complements encoded
//     under the *opposite* codecs;
//   * difference:     A ∖ B and B ∖ A against the oracle (asymmetric op,
//     both orders).
//
// The CI ASan+UBSan job runs this binary with a raised --fuzz-iters; the
// default keeps tier-1 ctest fast. Own main (not gtest_main) to parse the
// flag.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/registry.h"
#include "core/scratch.h"
#include "core/set_ops.h"
#include "planner/strategy.h"
#include "test_util.h"

namespace intcomp {

int g_fuzz_iters = 6;  // iterations per bitmap×list pairing

namespace {

using planner::CostModel;
using planner::SetOpStrategy;

constexpr SetOpStrategy kStrategies[] = {
    SetOpStrategy::kAuto, SetOpStrategy::kCompressed,
    SetOpStrategy::kDecodeMerge, SetOpStrategy::kGallopProbe};

std::vector<uint32_t> RefDifference(const std::vector<uint32_t>& a,
                                    const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Draws a list whose density varies iteration to iteration, so pairings hit
// both the dense regimes bitmap codecs favor and the sparse regimes list
// codecs favor.
std::vector<uint32_t> DrawList(Prng* rng, uint64_t domain) {
  const uint64_t kind = rng->NextBounded(3);
  const uint64_t max =
      kind == 0 ? domain / 2 : (kind == 1 ? domain / 16 : 64);
  const size_t n = static_cast<size_t>(1 + rng->NextBounded(max));
  return RandomSortedList(n, domain, rng->Next());
}

struct EncodedPair {
  std::unique_ptr<CompressedSet> set;
  TaggedSet tagged;
};

EncodedPair EncodeTagged(const Codec& codec,
                         const std::vector<uint32_t>& list, uint64_t domain) {
  EncodedPair p;
  p.set = codec.Encode(list, domain);
  p.tagged = {&codec, p.set.get()};
  return p;
}

void RunPairing(const Codec& bitmap_codec, const Codec& list_codec,
                uint64_t seed) {
  // Small domain keeps complements affordable for the De Morgan check.
  const uint64_t domain = 1u << 12;
  Prng rng(NoteSeed(seed));
  ScratchArena arena;
  const auto extensions = ExtensionCodecs();
  const CostModel& model = CostModel::Default();

  for (int iter = 0; iter < g_fuzz_iters; ++iter) {
    const auto a = DrawList(&rng, domain);
    const auto b = DrawList(&rng, domain);
    const auto ea = EncodeTagged(bitmap_codec, a, domain);
    const auto eb = EncodeTagged(list_codec, b, domain);

    const auto ref_and = RefIntersect(a, b);
    const auto ref_or = RefUnion(a, b);

    std::vector<uint32_t> out;
    for (SetOpStrategy strategy : kStrategies) {
      SCOPED_TRACE(std::string(planner::SetOpStrategyName(strategy)));
      planner::PlannedIntersect(ea.tagged, eb.tagged, strategy, model, &out);
      ASSERT_EQ(out, ref_and);
      // Commutativity.
      planner::PlannedIntersect(eb.tagged, ea.tagged, strategy, model, &out);
      ASSERT_EQ(out, ref_and);
    }

    UnionTagged(ea.tagged, eb.tagged, &out);
    ASSERT_EQ(out, ref_or);
    UnionTagged(eb.tagged, ea.tagged, &out);
    ASSERT_EQ(out, ref_or);

    DifferenceTagged(ea.tagged, eb.tagged, &out);
    ASSERT_EQ(out, RefDifference(a, b));
    DifferenceTagged(eb.tagged, ea.tagged, &out);
    ASSERT_EQ(out, RefDifference(b, a));

    // De Morgan with the families swapped: ¬A under the list codec, ¬B
    // under the bitmap codec.
    const auto not_a = EncodeTagged(list_codec, RefComplement(a, domain),
                                    domain);
    const auto not_b = EncodeTagged(bitmap_codec, RefComplement(b, domain),
                                    domain);
    std::vector<uint32_t> not_union;
    UnionTagged(not_a.tagged, not_b.tagged, &not_union);
    ASSERT_EQ(RefComplement(not_union, domain), ref_and);

    // Three-way planned SvS and k-way union with an adaptive third operand.
    const Codec& third =
        *extensions[static_cast<size_t>(rng.NextBounded(extensions.size()))];
    const auto c = DrawList(&rng, domain);
    const auto ec = EncodeTagged(third, c, domain);
    const std::vector<TaggedSet> sets = {ea.tagged, eb.tagged, ec.tagged};
    for (SetOpStrategy strategy : kStrategies) {
      SCOPED_TRACE(std::string(planner::SetOpStrategyName(strategy)));
      planner::PlannedIntersectSets(sets, strategy, model, &arena, &out);
      ASSERT_EQ(out, RefIntersect(ref_and, c));
    }
    UnionTaggedSets(sets, &arena, &out);
    ASSERT_EQ(out, RefUnion(ref_or, c));
  }
}

TEST(MixedCodecFuzz, EveryBitmapListPairingMatchesTheOracle) {
  const uint64_t base_seed = TestSeed(77001);
  uint64_t pairing = 0;
  for (const Codec* bitmap_codec : BitmapCodecs()) {
    for (const Codec* list_codec : InvertedListCodecs()) {
      SCOPED_TRACE(std::string(bitmap_codec->Name()) + " x " +
                   std::string(list_codec->Name()));
      RunPairing(*bitmap_codec, *list_codec, base_seed + pairing);
      if (::testing::Test::HasFatalFailure()) return;
      ++pairing;
    }
  }
}

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
