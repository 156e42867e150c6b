// Cooperative cancellation for query evaluation.
//
// A CancellationToken combines an explicit cancel flag with an optional
// deadline and an optional parent token (the net server chains each
// request's deadline token onto its drain token). Evaluation
// polls Check() at plan-node boundaries — between decode / intersect /
// union steps, not inside them — so cancellation latency is bounded by the
// cost of one node, which keeps the hot loops branch-free.
//
// Thread-safety: Cancel() may be called from any thread at any time.
// SetDeadline / ChainParent are setup-phase calls and must happen before
// the token is shared with running evaluations.

#ifndef INTCOMP_CORE_CANCEL_H_
#define INTCOMP_CORE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace intcomp {

class CancellationToken {
 public:
  CancellationToken() = default;

  // Non-copyable: identity is the point of a token.
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  // Trips the token; every subsequent Check() returns kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->IsCancelled());
  }

  // Sets an absolute deadline; Check() returns kDeadlineExceeded once the
  // steady clock passes it. Call before sharing the token.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  // Convenience: deadline `ns` nanoseconds from now (0 = no deadline).
  void SetDeadlineAfterNs(uint64_t ns) {
    if (ns == 0) return;
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::nanoseconds(ns));
  }

  // Chains `parent`: this token also reports cancelled / past-deadline when
  // the parent does. The parent must outlive this token.
  void ChainParent(const CancellationToken* parent) { parent_ = parent; }

  // Ok, or the reason evaluation must stop. Deadline wins over an untripped
  // parent; an explicit Cancel() wins over everything.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed))
      return Status::Cancelled("cancellation requested");
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)
      return Status::DeadlineExceeded("query deadline elapsed");
    if (parent_ != nullptr) return parent_->Check();
    return Status::Ok();
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const CancellationToken* parent_ = nullptr;
};

}  // namespace intcomp

#endif  // INTCOMP_CORE_CANCEL_H_
