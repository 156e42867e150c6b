#include "core/set_ops.h"

#include <algorithm>

#include "invlist/plain_list.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {
namespace {

std::vector<TaggedSet> Tag(const Codec& codec,
                           std::span<const CompressedSet* const> sets) {
  std::vector<TaggedSet> tagged;
  tagged.reserve(sets.size());
  for (const CompressedSet* s : sets) tagged.push_back({&codec, s});
  return tagged;
}

// k-way merge over the decoded lists: one pass instead of k-1 pairwise
// passes over the accumulated result.
void KWayUnion(std::span<const TaggedSet> sets, ScratchArena* arena,
               std::vector<uint32_t>* out) {
  std::vector<ScratchArena::Lease> decoded;
  decoded.reserve(sets.size());
  size_t total = 0;
  {
    TRACE_SPAN("decode");
    obs::OpCounters& oc = obs::ThreadOpCounters();
    for (const TaggedSet& s : sets) {
      decoded.push_back(arena->Acquire());
      s.codec->Decode(*s.set, decoded.back().get());
      oc.bytes_decoded += s.set->SizeInBytes();
      total += decoded.back()->size();
    }
  }
  out->reserve(total);
  struct Cursor {
    const uint32_t* p;
    const uint32_t* end;
  };
  auto later = [](const Cursor& a, const Cursor& b) { return *a.p > *b.p; };
  std::vector<Cursor> heap;
  for (const auto& d : decoded) {
    if (!d->empty()) heap.push_back({d->data(), d->data() + d->size()});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  uint32_t last = 0;
  bool have_last = false;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    const uint32_t v = *c.p++;
    if (!have_last || v != last) {
      out->push_back(v);
      last = v;
      have_last = true;
    }
    if (c.p == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace

void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   ScratchArena* arena, std::vector<uint32_t>* out) {
  TRACE_SPAN("intersect_sets");
  obs::ScopedOpTimer timer(codec.Name(), obs::OpKind::kIntersect);
  out->clear();
  if (sets.empty()) return;
  if (sets.size() == 1) {
    codec.Decode(*sets[0], out);
    return;
  }
  std::vector<TaggedSet> order = Tag(codec, sets);
  SortByCardinality(order);
  codec.Intersect(*order[0].set, *order[1].set, out);
  ProbeSvS(std::span(order).subspan(2), nullptr, arena, out);
}

void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               ScratchArena* arena, std::vector<uint32_t>* out) {
  TRACE_SPAN("union_sets");
  obs::ScopedOpTimer timer(codec.Name(), obs::OpKind::kUnion);
  out->clear();
  if (sets.empty()) return;
  if (sets.size() == 1) {
    codec.Decode(*sets[0], out);
    return;
  }
  if (sets.size() == 2) {
    codec.Union(*sets[0], *sets[1], out);
    return;
  }
  KWayUnion(Tag(codec, sets), arena, out);
}

void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   std::vector<uint32_t>* out) {
  ScratchArena arena;
  IntersectSets(codec, sets, &arena, out);
}

void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               std::vector<uint32_t>* out) {
  ScratchArena arena;
  UnionSets(codec, sets, &arena, out);
}

void DifferenceSets(const Codec& codec, const CompressedSet& a,
                    const CompressedSet& b, std::vector<uint32_t>* out) {
  std::vector<uint32_t> decoded;
  codec.Decode(a, &decoded);
  std::vector<uint32_t> common;
  codec.IntersectWithList(b, decoded, &common);
  DifferenceLists(decoded, common, out);
}

void UnionTagged(const TaggedSet& a, const TaggedSet& b,
                 std::vector<uint32_t>* out) {
  obs::ExplainScope scope("set_ops.union_tagged");
  if (scope.active()) {
    scope.AddStr("codec_a", a.codec->SetCodecName(*a.set));
    scope.AddStr("codec_b", b.codec->SetCodecName(*b.set));
  }
  if (a.codec == b.codec) {
    scope.AddStr("path", "compressed");
    a.codec->Union(*a.set, *b.set, out);
    return;
  }
  scope.AddStr("path", "merge");
  std::vector<uint32_t> da, db;
  a.codec->Decode(*a.set, &da);
  b.codec->Decode(*b.set, &db);
  obs::ThreadOpCounters().bytes_decoded +=
      a.set->SizeInBytes() + b.set->SizeInBytes();
  UnionLists(da, db, out);
}

void SortByCardinality(std::span<TaggedSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const TaggedSet& a, const TaggedSet& b) {
              return a.set->Cardinality() < b.set->Cardinality();
            });
}

Status ProbeSvS(std::span<const TaggedSet> rest,
                const CancellationToken* token, ScratchArena* arena,
                std::vector<uint32_t>* out) {
  TRACE_SPAN("svs_probe");
  ScratchArena::Lease next = arena->Acquire();
  for (const TaggedSet& s : rest) {
    if (out->empty()) break;
    if (token != nullptr) {
      Status st = token->Check();
      if (!st.ok()) return st;
    }
    if (s.set->Cardinality() * 8 < out->size()) {
      ScratchArena::Lease decoded = arena->Acquire();
      obs::ThreadOpCounters().bytes_decoded += s.set->SizeInBytes();
      s.codec->Decode(*s.set, decoded.get());
      GallopIntersect(*decoded, *out, next.get());
    } else {
      s.codec->IntersectWithList(*s.set, *out, next.get());
    }
    out->swap(*next);
  }
  return Status::Ok();
}

void UnionTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                     std::vector<uint32_t>* out) {
  TRACE_SPAN("union_tagged_sets");
  obs::ExplainScope scope("set_ops.union_tagged_sets");
  scope.AddUint("k", sets.size());
  out->clear();
  if (sets.empty()) return;
  if (sets.size() == 1) {
    sets[0].codec->Decode(*sets[0].set, out);
    return;
  }
  if (sets.size() == 2) {
    UnionTagged(sets[0], sets[1], out);
    return;
  }
  KWayUnion(sets, arena, out);
}

void DifferenceTagged(const TaggedSet& a, const TaggedSet& b,
                      std::vector<uint32_t>* out) {
  std::vector<uint32_t> decoded;
  a.codec->Decode(*a.set, &decoded);
  std::vector<uint32_t> common;
  b.codec->IntersectWithList(*b.set, decoded, &common);
  DifferenceLists(decoded, common, out);
}

void DifferenceLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(a.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out->push_back(a[i++]);
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

}  // namespace intcomp
