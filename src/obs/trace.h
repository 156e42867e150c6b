// Trace layer: cheap RAII spans recording into per-thread ring buffers.
//
// Design goals, in priority order:
//   1. Near-zero cost when disabled: TRACE_SPAN compiles to one relaxed
//      atomic load and a branch (the destructor is a branch on a member).
//   2. Cheap when enabled but unsampled: the sampling decision is made once
//      per *root* span (one PRNG draw); every span nested under an unsampled
//      root pays only a TLS depth bump.
//   3. Lock-free recording: each thread owns a fixed-capacity ring buffer
//      that only it writes; full rings overwrite the oldest span (and count
//      the drop) rather than blocking or allocating.
//
// Span timing uses CycleTicks (raw TSC); conversion to nanoseconds happens
// at SnapshotSpans time, never on the record path.
//
// Cross-thread propagation: CurrentTraceContext() captures the innermost
// open span and the root's sampling decision; ScopedTraceContext re-applies
// it on another thread, so a worker's spans nest under the submitting
// thread's span. ThreadPool::Submit does this automatically, which is how a
// service.query span on the caller becomes the parent of the per-shard
// spans on workers regardless of which worker steals the task.
//
// Thread-safety contract for readers: SnapshotSpans / ClearSpans /
// SetTraceRingCapacity require quiescence — no thread may be concurrently
// recording (disable sampling and reach a synchronization point, e.g.
// ThreadPool::Wait, first). Recording itself is always safe from any number
// of threads.

#ifndef INTCOMP_OBS_TRACE_H_
#define INTCOMP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace intcomp {
namespace obs {

// One completed span. `start_ns` is measured from an arbitrary per-process
// epoch (calibrated TSC) — deltas and ordering are meaningful, wall time is
// not. `parent_id` is 0 for root spans.
struct SpanRecord {
  const char* name = nullptr;  // static string literal passed to TRACE_SPAN
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t thread_index = 0;  // ring registration order of the recorder
};

namespace detail {
extern std::atomic<uint32_t> g_trace_period;
}  // namespace detail

// The master switch doubles as the sampling knob: 0 disables tracing
// entirely, 1 records every root, N records roughly 1/N of roots (decided
// per root span by a deterministic per-thread PRNG).
void SetTraceSampling(uint32_t period);
uint32_t GetTraceSampling();

// True when tracing is on at any sampling period. Inline: this is the
// fast-path check TRACE_SPAN performs when tracing is disabled.
inline bool TraceEnabled() {
  return detail::g_trace_period.load(std::memory_order_relaxed) != 0;
}

// Reseeds every thread's sampling PRNG (applied lazily at each thread's next
// root span). With a fixed seed, the sequence of keep/drop decisions made by
// any single thread is deterministic.
void SetTraceSeed(uint64_t seed);

// Ring capacity in spans (default 4096). Resets existing rings; requires
// quiescence. Test hook for exercising wraparound cheaply.
void SetTraceRingCapacity(size_t capacity);

// All spans currently buffered, per-thread rings concatenated, each ring
// oldest-first. Requires quiescence.
std::vector<SpanRecord> SnapshotSpans();

// Empties every ring and zeroes the dropped-span counter. Requires
// quiescence.
void ClearSpans();

// Spans overwritten by ring wraparound since the last ClearSpans.
uint64_t DroppedSpans();

// Number of spans currently open in the recording state, summed across all
// threads. The quiescence contract above is precisely "this returns 0":
// debug builds assert it inside SnapshotSpans / ClearSpans /
// SetTraceRingCapacity, turning a racing reader into a crash instead of a
// torn snapshot.
uint64_t ActiveRecorderCount();

// Capture of "where am I in the trace" for handoff to another thread.
struct TraceContext {
  uint64_t parent_id = 0;
  bool sampled = false;
  // False when captured outside any span: applying such a context is a
  // no-op and the receiving thread makes its own root sampling decisions.
  bool inherited = false;
};

TraceContext CurrentTraceContext();

// Applies a captured context for the current scope: spans opened while it is
// alive become children of ctx.parent_id and inherit its sampling decision.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t saved_parent_ = 0;
  uint32_t saved_depth_ = 0;
  bool saved_sampled_ = false;
  bool applied_ = false;
};

// RAII span. Use via TRACE_SPAN; `name` must be a string literal (stored by
// pointer, never copied).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceEnabled()) Begin(name);
  }
  ~TraceSpan() {
    if (state_ != State::kInactive) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  enum class State : uint8_t { kInactive, kSuppressed, kRecording };

  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;
  uint64_t span_id_ = 0;
  uint64_t saved_parent_ = 0;
  uint64_t start_ticks_ = 0;
  State state_ = State::kInactive;
};

}  // namespace obs
}  // namespace intcomp

#define INTCOMP_TRACE_CONCAT_(a, b) a##b
#define INTCOMP_TRACE_CONCAT(a, b) INTCOMP_TRACE_CONCAT_(a, b)
#define TRACE_SPAN(name)                 \
  ::intcomp::obs::TraceSpan INTCOMP_TRACE_CONCAT(intcomp_trace_span_, \
                                                 __COUNTER__)(name)

#endif  // INTCOMP_OBS_TRACE_H_
