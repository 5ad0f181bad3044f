#include "common/abort_info.h"

namespace hyder {

const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kAbortWriteWrite:
      return "write_write";
    case AbortCause::kAbortReadWrite:
      return "read_write";
    case AbortCause::kAbortPhantom:
      return "phantom";
    case AbortCause::kAbortGraft:
      return "graft";
    case AbortCause::kAbortGroupFateSharing:
      return "group_fate_sharing";
    case AbortCause::kAbortPremeldKill:
      return "premeld_kill";
    case AbortCause::kAbortBusy:
      return "busy";
  }
  return "unknown";
}

const char* AbortCauseLabel(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kAbortWriteWrite:
      return "write-write";
    case AbortCause::kAbortReadWrite:
      return "read-write";
    case AbortCause::kAbortPhantom:
      return "phantom";
    case AbortCause::kAbortGraft:
      return "graft (concurrent delete)";
    case AbortCause::kAbortGroupFateSharing:
      return "group fate-sharing";
    case AbortCause::kAbortPremeldKill:
      return "premeld kill";
    case AbortCause::kAbortBusy:
      return "admission busy";
  }
  return "unknown";
}

const char* AbortStageName(AbortStage stage) {
  switch (stage) {
    case AbortStage::kNone:
      return "none";
    case AbortStage::kPremeld:
      return "premeld";
    case AbortStage::kGroupMeld:
      return "group_meld";
    case AbortStage::kFinalMeld:
      return "final_meld";
    case AbortStage::kAdmission:
      return "admission";
  }
  return "unknown";
}

std::string AbortInfo::ToString() const {
  if (!aborted()) return "";
  std::string s;
  // Indirect causes name themselves first, then the underlying conflict.
  const bool indirect = cause == AbortCause::kAbortPremeldKill ||
                        cause == AbortCause::kAbortGroupFateSharing;
  if (indirect) {
    s += AbortCauseLabel(cause);
    if (conflict != AbortCause::kNone && conflict != cause) {
      s += ": ";
      s += AbortCauseLabel(conflict);
    }
  } else {
    s += AbortCauseLabel(conflict != AbortCause::kNone ? conflict : cause);
  }
  switch (key_kind) {
    case AbortKeyKind::kUserKey:
      s += " on key " + std::to_string(key);
      break;
    case AbortKeyKind::kNone:
      break;
  }
  if (stage != AbortStage::kNone || blamed_seq != 0) {
    s += " (stage ";
    s += AbortStageName(stage);
    if (blamed_seq != 0) s += ", zone<=" + std::to_string(blamed_seq);
    s += ")";
  }
  return s;
}

}  // namespace hyder
