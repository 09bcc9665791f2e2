// Status and Result<T>: lightweight error propagation in the Arrow/RocksDB
// idiom. Fallible operations return Status (or Result<T> when they produce a
// value); hot paths avoid exceptions entirely.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace rl4oasd {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
};

/// Returns a human-readable name for a status code ("OK", "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation. An OK status carries no allocation; error
/// statuses carry a code and message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_unique<Rep>(Rep{code, std::move(msg)});
    }
  }

  Status(const Status& other) { *this = other; }
  Status& operator=(const Status& other) {
    if (other.rep_) {
      rep_ = std::make_unique<Rep>(*other.rep_);
    } else {
      rep_.reset();
    }
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->msg : kEmpty;
  }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string msg;
  };
  std::unique_ptr<Rep> rep_;  // null == OK
};

/// Either a value of type T or an error Status. Access to the value when the
/// result holds an error is a programming bug (asserted in debug builds).
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : var_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(var_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(var_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(var_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(var_));
  }

  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(var_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> var_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define RL4_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::rl4oasd::Status _st = (expr);        \
    if (!_st.ok()) return _st;             \
  } while (0)

/// Assigns the value of a Result expression to `lhs`, or propagates its error.
#define RL4_ASSIGN_OR_RETURN(lhs, expr)            \
  RL4_ASSIGN_OR_RETURN_IMPL(                       \
      RL4_CONCAT_(_result_, __LINE__), lhs, expr)

#define RL4_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define RL4_CONCAT_(a, b) RL4_CONCAT_IMPL_(a, b)
#define RL4_CONCAT_IMPL_(a, b) a##b

}  // namespace rl4oasd
