#include "common/status.h"

namespace rl4oasd {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kInternal:
      return "Internal error";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeToString(code());
  s += ": ";
  s += message();
  return s;
}

}  // namespace rl4oasd
