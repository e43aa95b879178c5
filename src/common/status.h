// Lightweight status / result types used across the PrefillOnly libraries.
//
// The library does not throw for recoverable conditions (allocation budget
// exhausted, request over the maximum input length, cache miss, ...).
// Functions that can fail return Status or Result<T> instead.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace prefillonly {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kResourceExhausted,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  // Request-lifecycle outcomes (ISSUE 5): a caller withdrew the request, or
  // its deadline lapsed before (or while) it could be served.
  kCancelled,
  kDeadlineExceeded,
  // Cluster serving (ISSUE 8): no replica can take the request right now
  // (every candidate tripped, draining, or unreachable). Transient by
  // definition — the honest client reaction is to back off and retry, so
  // the HTTP mapping is 503 + Retry-After and the facade RetryPolicy
  // treats it like overload shedding.
  kUnavailable,
};

std::string_view StatusCodeName(StatusCode code);

// Value-semantic error descriptor. An engaged message is only kept for
// non-OK statuses.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk);
  }

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }

  // OK while a value is held.
  const Status& status() const { return status_; }

  // Precondition: ok().
  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T&& take() {
    assert(ok());
    return std::move(*value_);
  }

  const T& value_or(const T& fallback) const { return ok() ? value() : fallback; }

 private:
  // Both members are always constructed (a std::variant<T, Status> left the
  // Status uninitialised while a value was held, and GCC 12 then warned
  // -Wmaybe-uninitialized about destroying it on a path it cannot rule out).
  Status status_;
  std::optional<T> value_;
};

}  // namespace prefillonly

#endif  // SRC_COMMON_STATUS_H_
