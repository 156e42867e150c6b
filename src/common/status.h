// Lightweight error propagation for the untrusted-input boundary.
//
// The decode/query hot paths stay exception-free: fallible entry points
// (Codec::DeserializeChecked, EvaluatePlanChecked, IndexService) return a
// Status or StatusOr<T> instead of throwing. Status is cheap to pass around —
// the OK value carries no allocation; error values carry a code plus a short
// human-readable message for reports and logs.

#ifndef INTCOMP_COMMON_STATUS_H_
#define INTCOMP_COMMON_STATUS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace intcomp {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,    // caller error: bad plan, missing input set
  kCorruptData,        // untrusted byte image failed structural validation
  kDeadlineExceeded,   // per-query deadline elapsed
  kCancelled,          // cancellation token tripped
  kInternal,           // invariant violation; indicates a bug
  kUnavailable,        // transient I/O or resource failure; retry may succeed
  kOverloaded,         // admission control shed the request; retry later
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kCorruptData: return "CORRUPT_DATA";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kOverloaded: return "OVERLOADED";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string_view message)
      : code_(code), message_(message) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string_view m) {
    return Status(StatusCode::kInvalidArgument, m);
  }
  static Status Corrupt(std::string_view m) {
    return Status(StatusCode::kCorruptData, m);
  }
  static Status DeadlineExceeded(std::string_view m) {
    return Status(StatusCode::kDeadlineExceeded, m);
  }
  static Status Cancelled(std::string_view m) {
    return Status(StatusCode::kCancelled, m);
  }
  static Status Internal(std::string_view m) {
    return Status(StatusCode::kInternal, m);
  }
  static Status Unavailable(std::string_view m) {
    return Status(StatusCode::kUnavailable, m);
  }
  static Status Overloaded(std::string_view m) {
    return Status(StatusCode::kOverloaded, m);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Either a value or a non-OK Status. Minimal by design: exactly what the
// DeserializeChecked boundary needs, no monadic extras.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK StatusOr must carry a value");
    if (status_.ok()) status_ = Status::Internal("OK StatusOr without value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // REQUIRES: ok().
  T& value() {
    assert(ok());
    return value_;
  }
  const T& value() const {
    assert(ok());
    return value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }

 private:
  Status status_;
  T value_{};
};

// Bounds-checked little-endian reader for untrusted byte images. Every read
// reports success instead of walking off the buffer; on failure the output is
// poisoned with zero and the cursor does not advance, so a caller that forgets
// to check cannot be steered by out-of-bounds memory.
class CheckedByteReader {
 public:
  CheckedByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}

  bool GetU8(uint8_t* v) {
    if (size_ - pos_ < 1) return Fail(v);
    *v = data_[pos_++];
    return true;
  }
  bool GetU16(uint16_t* v) {
    if (size_ - pos_ < 2) return Fail(v);
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (size_ - pos_ < 4) return Fail(v);
    std::memcpy(v, data_ + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (size_ - pos_ < 8) return Fail(v);
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool GetBytes(uint8_t* dst, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool Skip(size_t n) {
    if (size_ - pos_ < n) return false;
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ >= size_; }
  size_t Remaining() const { return size_ - pos_; }
  size_t Position() const { return pos_; }

 private:
  template <typename T>
  static bool Fail(T* v) {
    *v = 0;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace intcomp

#endif  // INTCOMP_COMMON_STATUS_H_
