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
///
/// A read-only transaction commits locally and never ships its readset
/// (§1), so serializable reads are annotated only once the transaction
/// writes. Until then each Get and Scan runs on the snapshot and records
/// its key or range; `AnnotateDeferredReads` (run by the first Put or
/// Delete, and by SerializeIntention) replays them, in order, as annotated
/// reads on the still-unchanged snapshot root. That builds the workspace
/// eager annotation would have built, so a read-only transaction copies no
/// node and every intention keeps its bytes. Reads after the first write
/// annotate eagerly.
class IntentionBuilder {
 public:
  /// `workspace_tag` must be unique among live transactions on this server
  /// (use kWorkspaceTagBit | counter). `snapshot_seq`/`snapshot_root`
  /// identify the input state; `resolver` materializes lazy edges.
  IntentionBuilder(uint64_t workspace_tag, uint64_t snapshot_seq,
                   Ref snapshot_root, IsolationLevel isolation,
                   NodeResolver* resolver);

  // Movable, not copyable: a workspace tag must stay unique.
  IntentionBuilder(IntentionBuilder&&) noexcept = default;
  IntentionBuilder& operator=(IntentionBuilder&&) noexcept = default;

  /// Writes `key`. Reads-own-writes is honored by later operations.
  Status Put(Key key, std::string value);

  /// Reads `key`, annotating the readset under serializable isolation.
  Result<std::optional<std::string>> Get(Key key);

  /// Deletes `key`; records a tombstone when present. Returns presence.
  Result<bool> Delete(Key key);

  /// Inclusive range scan with phantom-guard annotations under serializable
  /// isolation.
  Result<std::vector<std::pair<Key, std::string>>> Scan(Key lo, Key hi);

  /// Annotates the serializable reads deferred so far (see the class
  /// comment); later reads annotate eagerly. A no-op once done and under
  /// snapshot isolation. On failure nothing changes.
  Status AnnotateDeferredReads();

  /// True once the transaction has written or deleted anything. Read-only
  /// transactions are never logged or melded (§1).
  bool has_writes() const { return has_writes_; }

  uint64_t snapshot_seq() const { return snapshot_seq_; }
  IsolationLevel isolation() const { return isolation_; }
  const Ref& root() const { return root_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }
  uint64_t workspace_tag() const { return ctx_.owner; }

 private:
  /// A serializable read run before the first write: Get(lo), or
  /// Scan(lo, hi) when `scan`.
  struct DeferredRead {
    Key lo;
    Key hi;
    bool scan;
  };

  /// True while serializable reads are deferred (before the first write).
  /// Snapshot-isolation reads are never annotated: they are not validated,
  /// so their paths never enter the intention (§6.4.4).
  bool defers_reads() const {
    return isolation_ == IsolationLevel::kSerializable &&
           !ctx_.annotate_reads;
  }

  CowContext ctx_;
  uint64_t snapshot_seq_;
  IsolationLevel isolation_;
  Ref root_;
  std::vector<Tombstone> tombstones_;
  std::vector<DeferredRead> deferred_reads_;
  bool has_writes_ = false;
};

}  // namespace hyder

#endif  // HYDER2_TXN_INTENTION_BUILDER_H_
