// Reusable decode/merge buffers for query evaluation.
//
// EvaluatePlan / IntersectSets / UnionSets allocate every temporary list
// they need from a ScratchArena. Buffers returned to the arena keep their
// capacity, so steady-state evaluation of a query stream performs no heap
// allocation beyond the final per-query result — the allocation churn a
// serving loop must not pay. The legacy entry points
// without an arena argument still exist; they spin up a throwaway arena per
// call and behave exactly as before.
//
// An arena is NOT thread-safe. IndexService owns one arena per pool worker;
// serial callers use one local arena. Leases must not outlive the
// arena they came from.

#ifndef INTCOMP_CORE_SCRATCH_H_
#define INTCOMP_CORE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace intcomp {

class ScratchArena {
 public:
  class Lease;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  // Hands out a cleared buffer, reusing a previously released one (and its
  // capacity) when available.
  Lease Acquire();

  // Number of distinct buffers ever created — the high-water mark of
  // concurrently live leases. A steady value across queries means the
  // buffer-reuse path is working.
  size_t BuffersAllocated() const { return buffers_.size(); }

  // Buffers currently parked in the arena (not leased out).
  size_t BuffersFree() const { return free_.size(); }

  // Sum of the capacities currently retained, in bytes.
  size_t RetainedBytes() const {
    size_t total = 0;
    for (const auto& b : buffers_) total += b->capacity() * sizeof(uint32_t);
    return total;
  }

  // RAII handle to one arena buffer; returns it on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : arena_(std::exchange(other.arena_, nullptr)),
          buf_(std::exchange(other.buf_, nullptr)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        arena_ = std::exchange(other.arena_, nullptr);
        buf_ = std::exchange(other.buf_, nullptr);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    std::vector<uint32_t>& operator*() const { return *buf_; }
    std::vector<uint32_t>* operator->() const { return buf_; }
    std::vector<uint32_t>* get() const { return buf_; }

   private:
    friend class ScratchArena;
    Lease(ScratchArena* arena, std::vector<uint32_t>* buf)
        : arena_(arena), buf_(buf) {}

    void Release() {
      if (arena_ != nullptr) {
        arena_->free_.push_back(buf_);
        arena_ = nullptr;
        buf_ = nullptr;
      }
    }

    ScratchArena* arena_ = nullptr;
    std::vector<uint32_t>* buf_ = nullptr;
  };

 private:
  std::vector<std::unique_ptr<std::vector<uint32_t>>> buffers_;
  std::vector<std::vector<uint32_t>*> free_;
};

inline ScratchArena::Lease ScratchArena::Acquire() {
  if (free_.empty()) {
    buffers_.push_back(std::make_unique<std::vector<uint32_t>>());
    free_.push_back(buffers_.back().get());
  }
  std::vector<uint32_t>* buf = free_.back();
  free_.pop_back();
  buf->clear();
  return Lease(this, buf);
}

}  // namespace intcomp

#endif  // INTCOMP_CORE_SCRATCH_H_
