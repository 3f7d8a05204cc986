// Status and Result<T>: lightweight, exception-free error propagation in the
// style of RocksDB/Arrow. Library entry points that validate external input
// return Status (or Result<T>); internal invariant violations use assertions.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace optshare {

/// Error taxonomy for the library. Keep the list short; the message string
/// carries the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kAlreadyExists,
  kResourceExhausted,
  kInternal,
  /// Transient: the serving node is gone or mid-failover; the operation may
  /// or may not have executed, and an idempotent resend can succeed.
  kUnavailable,
};

/// Human-readable name of a status code (e.g. "InvalidArgument").
std::string_view StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName; nullopt for unknown names. Used by wire
/// protocols (service/protocol.h) that carry status codes as strings.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

/// A success-or-error value. Cheap to copy in the success case (no message
/// allocation). Statuses must be checked by callers; the library never
/// silently drops an error.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Rebuilds a Status from a code and message (the wire-deserialization
/// counterpart of code()/message(); an OK code yields an OK status and the
/// message is dropped).
Status MakeStatus(StatusCode code, std::string message);

/// A value-or-error. Mirrors arrow::Result / absl::StatusOr with only the
/// operations this codebase needs.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /// Default-constructs the value in place, for producers that fill it
  /// field by field and return it by name (no move of a large T).
  explicit Result(std::in_place_t) : value_(std::in_place) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when in the error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

/// Propagates a non-OK Status from an expression to the caller.
#define OPTSHARE_RETURN_NOT_OK(expr)            \
  do {                                          \
    ::optshare::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (false)

}  // namespace optshare
