// Minimal Status / StatusOr error-reporting types.
//
// The library avoids exceptions; fallible operations (parsing, configuration
// validation, file I/O) return Status or StatusOr<T>.

#ifndef RECON_UTIL_STATUS_H_
#define RECON_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace recon {

/// Error categories, a small subset of the canonical codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
};

/// Returns a short human-readable name for `code` ("OK", "INVALID_ARGUMENT"…).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result with an optional message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status.
template <typename T>
class StatusOr {
 public:
  /// Constructs from a value (implicit by design, mirroring absl::StatusOr).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Constructs from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    RECON_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Requires ok().
  const T& value() const& {
    RECON_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    RECON_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    RECON_CHECK(ok()) << status_.ToString();
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace recon

/// Propagates a non-OK status to the caller.
#define RECON_RETURN_IF_ERROR(expr)             \
  do {                                          \
    ::recon::Status _status = (expr);           \
    if (!_status.ok()) return _status;          \
  } while (false)

#endif  // RECON_UTIL_STATUS_H_
