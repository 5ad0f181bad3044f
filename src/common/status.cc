#include "common/status.h"

namespace hyder {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kTimedOut:
      return "TimedOut";
    case StatusCode::kSnapshotTooOld:
      return "SnapshotTooOld";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kTruncated:
      return "Truncated";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace hyder
