#ifndef HYDER2_TXN_INTENTION_BUILDER_H_
#define HYDER2_TXN_INTENTION_BUILDER_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tree/tree_ops.h"
#include "txn/intention.h"

namespace hyder {

/// Accumulates one optimistically-executing transaction's effects against an
/// immutable snapshot (§1 steps 1–2): reads and writes operate on a private
/// copy-on-write overlay of the snapshot tree, producing exactly the node
/// set the intention must contain — written nodes with their root paths,
/// and, under serializable isolation, the readset annotations.
class IntentionBuilder {
 public:
  /// `workspace_tag` must be unique among live transactions on this server
  /// (use kWorkspaceTagBit | counter). `snapshot_seq`/`snapshot_root`
  /// identify the input state; `resolver` materializes lazy edges.
  IntentionBuilder(uint64_t workspace_tag, uint64_t snapshot_seq,
                   Ref snapshot_root, IsolationLevel isolation,
                   NodeResolver* resolver);

  // Movable (the context points at the member stats block, so moves must
  // re-anchor it); not copyable — a workspace tag must stay unique.
  IntentionBuilder(IntentionBuilder&& other) noexcept { *this = std::move(other); }
  IntentionBuilder& operator=(IntentionBuilder&& other) noexcept {
    if (this != &other) {
      ctx_ = other.ctx_;
      snapshot_seq_ = other.snapshot_seq_;
      isolation_ = other.isolation_;
      root_ = std::move(other.root_);
      tombstones_ = std::move(other.tombstones_);
      stats_ = other.stats_;
      has_writes_ = other.has_writes_;
      ctx_.stats = &stats_;
    }
    return *this;
  }
  IntentionBuilder(const IntentionBuilder&) = delete;
  IntentionBuilder& operator=(const IntentionBuilder&) = delete;

  /// Writes `key`. Reads-own-writes is honored by later operations.
  Status Put(Key key, std::string value);

  /// Reads `key`, annotating the readset under serializable isolation.
  Result<std::optional<std::string>> Get(Key key);

  /// Deletes `key`; records a tombstone when present. Returns presence.
  Result<bool> Delete(Key key);

  /// Inclusive range scan with phantom-guard annotations under serializable
  /// isolation.
  Result<std::vector<std::pair<Key, std::string>>> Scan(Key lo, Key hi);

  /// True once the transaction has written or deleted anything. Read-only
  /// transactions are never logged or melded (§1).
  bool has_writes() const { return has_writes_; }

  uint64_t snapshot_seq() const { return snapshot_seq_; }
  IsolationLevel isolation() const { return isolation_; }
  const Ref& root() const { return root_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }
  const TreeOpStats& stats() const { return stats_; }
  uint64_t workspace_tag() const { return ctx_.owner; }

 private:
  CowContext ctx_;
  uint64_t snapshot_seq_;
  IsolationLevel isolation_;
  Ref root_;
  std::vector<Tombstone> tombstones_;
  TreeOpStats stats_;
  bool has_writes_ = false;
};

}  // namespace hyder

#endif  // HYDER2_TXN_INTENTION_BUILDER_H_
