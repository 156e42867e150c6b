// Shared engine for run-length-encoded bitmap codecs.
//
// Every RLE bitmap method in the paper (BBC, WAH, EWAH, PLWAH, CONCISE,
// VALWAH, SBH) compresses a bitmap into a sequence of *segments*: fill runs
// (all-0 or all-1 groups) and literal groups, at the codec's group width
// (31 bits for WAH/CONCISE/PLWAH, 32 for EWAH, 8 for BBC, 7 for SBH, ...).
// The paper notes (§2.1) that all of them use the same merge-style
// intersection/union over "active words" and differ only in how those words
// are interpreted. We factor exactly that: each codec provides a segment
// decoder, and the templated algorithms below perform decode / AND / OR /
// list-probe directly on the compressed stream, without materializing the
// bitmap.
//
// For VALWAH, whose two operands may use *different* segment widths, the
// bit-granular ChunkedBitStream engine at the bottom performs the
// alignment-paying intersection the paper describes (§2.5, §5.2(3)).

#ifndef INTCOMP_BITMAP_RUNSTREAM_H_
#define INTCOMP_BITMAP_RUNSTREAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace intcomp {

// One decoded segment of an RLE-compressed bitmap.
struct RunSegment {
  bool is_fill;       // fill run vs literal group
  bool fill_bit;      // 0-fill or 1-fill (valid when is_fill)
  uint64_t count;     // number of groups in the fill run (valid when is_fill)
  uint32_t literal;   // group payload in the low kGroupBits (when !is_fill)
};

// Appends values start .. start+count-1 to out.
void EmitRange(uint64_t start, uint64_t count, std::vector<uint32_t>* out);

// Appends the positions of set bits of `word`, offset by `base`.
inline void EmitBits(uint32_t word, uint64_t base, std::vector<uint32_t>* out) {
  while (word != 0) {
    out->push_back(static_cast<uint32_t>(base) +
                   static_cast<uint32_t>(CountTrailingZeros32(word)));
    word = ClearLowestBit32(word);
  }
}

// ---------------------------------------------------------------------------
// Word-aligned algorithms (both operands share the same group width).
// A decoder `Dec` provides:
//   static constexpr int kGroupBits;
//   bool Next(RunSegment* seg);   // false when the stream ends
// ---------------------------------------------------------------------------

template <typename Dec>
void SegmentDecode(Dec dec, std::vector<uint32_t>* out) {
  constexpr int kW = Dec::kGroupBits;
  uint64_t pos = 0;  // current group index
  RunSegment s;
  while (dec.Next(&s)) {
    if (s.is_fill) {
      if (s.fill_bit) EmitRange(pos * kW, s.count * kW, out);
      pos += s.count;
    } else {
      EmitBits(s.literal, pos * kW, out);
      ++pos;
    }
  }
}

// Internal cursor pairing a decoder with the remaining group count of its
// current segment, so fills can be consumed piecewise.
template <typename Dec>
struct SegmentCursor {
  explicit SegmentCursor(Dec d) : dec(std::move(d)) { Refill(); }

  void Refill() {
    // Skip degenerate zero-length fill segments defensively.
    do {
      active = dec.Next(&seg);
      remaining = active ? (seg.is_fill ? seg.count : 1) : 0;
    } while (active && remaining == 0);
  }

  void Consume(uint64_t n) {
    remaining -= n;
    if (remaining == 0) Refill();
  }

  Dec dec;
  RunSegment seg{};
  uint64_t remaining = 0;
  bool active = false;
};

template <typename DecA, typename DecB>
void SegmentIntersect(DecA da, DecB db, std::vector<uint32_t>* out) {
  constexpr int kW = DecA::kGroupBits;
  static_assert(kW == DecB::kGroupBits,
                "word-aligned intersection requires equal group widths");
  SegmentCursor<DecA> a(std::move(da));
  SegmentCursor<DecB> b(std::move(db));
  uint64_t pos = 0;
  while (a.active && b.active) {
    if (a.seg.is_fill && b.seg.is_fill) {
      uint64_t n = std::min(a.remaining, b.remaining);
      if (a.seg.fill_bit && b.seg.fill_bit) {
        EmitRange(pos * kW, n * kW, out);
      }
      pos += n;
      a.Consume(n);
      b.Consume(n);
    } else {
      uint32_t wa = a.seg.is_fill ? (a.seg.fill_bit ? LowMask32(kW) : 0)
                                  : a.seg.literal;
      uint32_t wb = b.seg.is_fill ? (b.seg.fill_bit ? LowMask32(kW) : 0)
                                  : b.seg.literal;
      EmitBits(wa & wb, pos * kW, out);
      ++pos;
      a.Consume(1);
      b.Consume(1);
    }
  }
}

// Emits the remainder of a cursor's stream (used by union once the other
// operand ends).
template <typename Dec>
void DrainCursor(SegmentCursor<Dec>& c, uint64_t pos, int group_bits,
                 std::vector<uint32_t>* out) {
  while (c.active) {
    if (c.seg.is_fill) {
      if (c.seg.fill_bit) {
        EmitRange(pos * group_bits, c.remaining * group_bits, out);
      }
    } else {
      EmitBits(c.seg.literal, pos * group_bits, out);
    }
    pos += c.remaining;
    c.Consume(c.remaining);
  }
}

template <typename DecA, typename DecB>
void SegmentUnion(DecA da, DecB db, std::vector<uint32_t>* out) {
  constexpr int kW = DecA::kGroupBits;
  static_assert(kW == DecB::kGroupBits,
                "word-aligned union requires equal group widths");
  SegmentCursor<DecA> a(std::move(da));
  SegmentCursor<DecB> b(std::move(db));
  uint64_t pos = 0;
  while (a.active && b.active) {
    if (a.seg.is_fill && b.seg.is_fill) {
      uint64_t n = std::min(a.remaining, b.remaining);
      if (a.seg.fill_bit || b.seg.fill_bit) {
        EmitRange(pos * kW, n * kW, out);
      }
      pos += n;
      a.Consume(n);
      b.Consume(n);
    } else {
      uint32_t wa = a.seg.is_fill ? (a.seg.fill_bit ? LowMask32(kW) : 0)
                                  : a.seg.literal;
      uint32_t wb = b.seg.is_fill ? (b.seg.fill_bit ? LowMask32(kW) : 0)
                                  : b.seg.literal;
      EmitBits(wa | wb, pos * kW, out);
      ++pos;
      a.Consume(1);
      b.Consume(1);
    }
  }
  DrainCursor(a, pos, kW, out);
  DrainCursor(b, pos, kW, out);
}

// Bitmap-vs-list intersection (paper App. B.1): probes an uncompressed sorted
// list against the compressed stream, skipping whole fill runs.
template <typename Dec>
void SegmentIntersectWithList(Dec dec, std::span<const uint32_t> probe,
                              std::vector<uint32_t>* out) {
  constexpr int kW = Dec::kGroupBits;
  uint64_t pos = 0;
  size_t pi = 0;
  RunSegment s;
  while (pi < probe.size() && dec.Next(&s)) {
    if (s.is_fill) {
      uint64_t end = (pos + s.count) * kW;
      if (s.fill_bit) {
        while (pi < probe.size() && probe[pi] < end) out->push_back(probe[pi++]);
      } else {
        pi = std::lower_bound(probe.begin() + pi, probe.end(),
                              static_cast<uint32_t>(
                                  std::min<uint64_t>(end, UINT32_MAX))) -
             probe.begin();
        // lower_bound handles end > UINT32_MAX by clamping; in that case all
        // remaining probe values are below `end`, so finish the skip here.
        if (end > UINT32_MAX) pi = probe.size();
      }
      pos += s.count;
    } else {
      uint64_t base = pos * kW;
      uint64_t end = base + kW;
      while (pi < probe.size() && probe[pi] < end) {
        uint32_t off = probe[pi] - static_cast<uint32_t>(base);
        if ((s.literal >> off) & 1u) out->push_back(probe[pi]);
        ++pi;
      }
      ++pos;
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-granular engine: operands with different group widths (VALWAH).
// ---------------------------------------------------------------------------

// Adapts a segment decoder (with runtime group width) into a stream of bits
// consumable in arbitrary-sized chunks.
template <typename Dec>
class ChunkedBitStream {
 public:
  ChunkedBitStream(Dec dec, int width) : dec_(std::move(dec)), width_(width) {
    Advance();
  }

  bool exhausted() const { return !has_; }

  // If the stream is positioned inside a fill run, returns the bits left in
  // it and sets *bit; returns 0 otherwise.
  uint64_t FillBitsLeft(bool* bit) const {
    if (!has_ || !seg_.is_fill) return 0;
    *bit = seg_.fill_bit;
    return bits_left_;
  }

  // Returns the next 32 bits of the logical bitmap (LSB = earliest
  // position), zero-padded past the end of the stream.
  uint32_t Next32() {
    uint32_t w = 0;
    int got = 0;
    while (got < 32 && has_) {
      int take = static_cast<int>(
          std::min<uint64_t>(static_cast<uint64_t>(32 - got), bits_left_));
      if (seg_.is_fill) {
        if (seg_.fill_bit) w |= LowMask32(take) << got;
      } else {
        w |= (literal_ & LowMask32(take)) << got;
        literal_ >>= take;
      }
      got += take;
      bits_left_ -= take;
      if (bits_left_ == 0) Advance();
    }
    return w;
  }

  void Skip(uint64_t nbits) {
    while (nbits > 0 && has_) {
      uint64_t take = std::min(nbits, bits_left_);
      if (!seg_.is_fill) literal_ >>= take;
      bits_left_ -= take;
      nbits -= take;
      if (bits_left_ == 0) Advance();
    }
  }

 private:
  void Advance() {
    has_ = dec_.Next(&seg_);
    if (!has_) {
      bits_left_ = 0;
      return;
    }
    if (seg_.is_fill) {
      bits_left_ = seg_.count * static_cast<uint64_t>(width_);
    } else {
      bits_left_ = static_cast<uint64_t>(width_);
      literal_ = seg_.literal;
    }
  }

  Dec dec_;
  int width_;
  RunSegment seg_;
  bool has_ = false;
  uint64_t bits_left_ = 0;
  uint32_t literal_ = 0;
};

template <typename A, typename B>
void BitStreamIntersect(A a, B b, std::vector<uint32_t>* out) {
  uint64_t pos = 0;
  while (!a.exhausted() && !b.exhausted()) {
    bool bit_a = false, bit_b = false;
    uint64_t fa = a.FillBitsLeft(&bit_a);
    uint64_t fb = b.FillBitsLeft(&bit_b);
    if (fa > 0 && !bit_a) {
      a.Skip(fa);
      b.Skip(fa);
      pos += fa;
    } else if (fb > 0 && !bit_b) {
      a.Skip(fb);
      b.Skip(fb);
      pos += fb;
    } else if (fa > 0 && fb > 0) {  // both 1-fills
      uint64_t n = std::min(fa, fb);
      EmitRange(pos, n, out);
      a.Skip(n);
      b.Skip(n);
      pos += n;
    } else {
      uint32_t w = a.Next32() & b.Next32();
      EmitBits(w, pos, out);
      pos += 32;
    }
  }
}

template <typename A, typename B>
void BitStreamUnion(A a, B b, std::vector<uint32_t>* out) {
  uint64_t pos = 0;
  while (!a.exhausted() && !b.exhausted()) {
    bool bit_a = false, bit_b = false;
    uint64_t fa = a.FillBitsLeft(&bit_a);
    uint64_t fb = b.FillBitsLeft(&bit_b);
    if (fa > 0 && bit_a) {
      EmitRange(pos, fa, out);
      a.Skip(fa);
      b.Skip(fa);
      pos += fa;
    } else if (fb > 0 && bit_b) {
      EmitRange(pos, fb, out);
      a.Skip(fb);
      b.Skip(fb);
      pos += fb;
    } else if (fa > 0 && fb > 0) {  // both 0-fills
      uint64_t n = std::min(fa, fb);
      a.Skip(n);
      b.Skip(n);
      pos += n;
    } else {
      uint32_t w = a.Next32() | b.Next32();
      EmitBits(w, pos, out);
      pos += 32;
    }
  }
  // Drain whichever side is still active.
  auto drain = [&pos, out](auto& s) {
    while (!s.exhausted()) {
      bool bit = false;
      uint64_t f = s.FillBitsLeft(&bit);
      if (f > 0) {
        if (bit) EmitRange(pos, f, out);
        s.Skip(f);
        pos += f;
      } else {
        EmitBits(s.Next32(), pos, out);
        pos += 32;
      }
    }
  };
  drain(a);
  drain(b);
}

}  // namespace intcomp

#endif  // INTCOMP_BITMAP_RUNSTREAM_H_
