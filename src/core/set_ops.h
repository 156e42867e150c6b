// Multi-list set operations over compressed sets.
//
// Intersection follows SvS (paper §4.3, [14]): sort the lists by size,
// intersect the two smallest (the codec switches between merge-based and
// skip-based internally), then probe each remaining compressed list with the
// running uncompressed result. Union decompresses and merges linearly
// (App. B.2).

#ifndef INTCOMP_CORE_SET_OPS_H_
#define INTCOMP_CORE_SET_OPS_H_

#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/codec.h"
#include "core/scratch.h"

namespace intcomp {

// out = sets[0] AND ... AND sets[k-1]. k >= 1 (k == 1 decodes; k == 0
// clears `out`). Intermediate lists come from `arena`, so a caller that
// keeps one arena across queries pays no per-query allocation for them.
void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   ScratchArena* arena, std::vector<uint32_t>* out);

// out = sets[0] OR ... OR sets[k-1]. k >= 1 (k == 0 clears `out`). For
// k > 2 the decoded lists are merged with a k-way heap rather than repeated
// pairwise passes. Decode buffers come from `arena`.
void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               ScratchArena* arena, std::vector<uint32_t>* out);

// Convenience forms with a throwaway arena per call.
void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   std::vector<uint32_t>* out);
void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               std::vector<uint32_t>* out);

// out = a AND NOT b, as an uncompressed sorted list. Decodes `a` and
// subtracts the matches found by probing `b` through its skip/bucket
// structure.
void DifferenceSets(const Codec& codec, const CompressedSet& a,
                    const CompressedSet& b, std::vector<uint32_t>* out);

// ------------------------------------------------------------ mixed codec
//
// A compressed set paired with the codec that encodes it — the operand unit
// of mixed-codec set operations, where every list may use a different
// representation (the planner's per-list codec choice). All operations
// below are correct for any codec pairing; same-codec pairs use the codec's
// own compressed operation. The one cross-codec intersection rule is the
// planner's cost-model chooser (planner::PlannedIntersect).

struct TaggedSet {
  const Codec* codec = nullptr;
  const CompressedSet* set = nullptr;
};

// Orders `sets` by ascending cardinality: SvS's processing order.
void SortByCardinality(std::span<TaggedSet> sets);

// The SvS probe loop every k-way intersection shares (paper §4.3): the
// caller seeds `out` (typically by intersecting the two smallest sets) and
// passes the remaining sets, already in SvS order; each is probed through
// its own codec until `out` empties. A set much smaller than the running
// result (card * 8 < |out|, e.g. a selective predicate ANDed with a wide
// union) is decoded and galloped into `out` instead of pushing every result
// element through its skip index; a seed intersected from the two smallest
// sets never triggers that. `token` (nullable) is polled before each step;
// on a non-OK return `out` holds a partial result.
Status ProbeSvS(std::span<const TaggedSet> rest,
                const CancellationToken* token, ScratchArena* arena,
                std::vector<uint32_t>* out);

// out = a OR b across the codec boundary.
void UnionTagged(const TaggedSet& a, const TaggedSet& b,
                 std::vector<uint32_t>* out);

// k-way heap union over the decoded lists, each decoded by its own codec.
void UnionTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                     std::vector<uint32_t>* out);

// out = a AND NOT b across the codec boundary.
void DifferenceTagged(const TaggedSet& a, const TaggedSet& b,
                      std::vector<uint32_t>* out);

// Merge-difference of two uncompressed sorted lists (out = a \ b).
void DifferenceLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out);

}  // namespace intcomp

#endif  // INTCOMP_CORE_SET_OPS_H_
