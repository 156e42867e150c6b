// Per-thread tallies of query-path work, sampled as deltas by EXPLAIN scopes
// (obs/explain.h records each scope's bytes_decoded).
//
// Counters are incremented unconditionally: every site is amortized over a
// whole set decode, so the cost stays inside the observability layer's
// disabled-overhead budget.

#ifndef INTCOMP_OBS_OP_COUNTERS_H_
#define INTCOMP_OBS_OP_COUNTERS_H_

#include <cstdint>

namespace intcomp {
namespace obs {

struct OpCounters {
  // Compressed bytes of every set that was fully decoded.
  uint64_t bytes_decoded = 0;
};

// Mutable reference to the calling thread's tallies.
inline OpCounters& ThreadOpCounters() {
  thread_local OpCounters counters;
  return counters;
}

}  // namespace obs
}  // namespace intcomp

#endif  // INTCOMP_OBS_OP_COUNTERS_H_
