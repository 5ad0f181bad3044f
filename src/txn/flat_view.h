#ifndef HYDER2_TXN_FLAT_VIEW_H_
#define HYDER2_TXN_FLAT_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "tree/node.h"
#include "txn/intention.h"

namespace hyder {

/// In-place view of an intention payload.
///
/// The payload carries the post-order node records plus a trailing fixed32
/// offset table, so any record is addressable by index without walking its
/// predecessors (see DESIGN.md "Intention wire format"). The view
/// validates the whole payload once in `Parse` — header, tombstones,
/// offset monotonicity, every record's field bounds — and from then on
/// materializes nodes on demand: `NodeAt(i)` decodes record `i` into a pool
/// node the first time it is asked for and CAS-publishes it, so every
/// caller of this view observes one Node per version id (a second view
/// of the same payload decodes its own). Child edges of a
/// materialized node come out *lazy*, carrying their
/// `VersionId::Logged(seq, child)` identity, which is the zero-copy
/// property: walking the conflict zone of an intention materializes only
/// the nodes the walk actually visits, and an intention killed by premeld
/// typically materializes its root and little else instead of
/// `node_count` pool nodes.
///
/// Thread-safety: all const methods are safe under concurrent callers
/// (decode thread, premeld workers, final meld, executors). `NodeAt` takes
/// no locks and calls no resolver, so it is safe to invoke while holding a
/// resolver shard lock.
class FlatIntentionView {
 public:
  ~FlatIntentionView();

  FlatIntentionView(const FlatIntentionView&) = delete;
  FlatIntentionView& operator=(const FlatIntentionView&) = delete;

  /// Validates and adopts a complete payload (including the format
  /// prefix). `seq` is the log-assigned intention sequence; node `i`
  /// receives `VersionId::Logged(seq, i)`. Corrupt input yields a typed
  /// DataLoss/Corruption status, never a view whose NodeAt can fail; that
  /// includes an isolation byte naming no IsolationLevel.
  static Result<std::shared_ptr<FlatIntentionView>> Parse(std::string payload,
                                                          uint64_t seq);

  uint64_t seq() const { return seq_; }
  uint64_t snapshot_seq() const { return snapshot_seq_; }
  IsolationLevel isolation() const { return isolation_; }
  uint32_t node_count() const { return node_count_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }
  size_t payload_bytes() const { return payload_.size(); }

  /// The canonical materialization of node `index` (post-order). Null only
  /// for an out-of-range index. Never fails: Parse validated every record.
  NodePtr NodeAt(uint32_t index) const;

  /// The intention root (last post-order record); null for an empty
  /// (delete-only) intention.
  NodePtr Root() const;

  /// Number of records materialized into pool nodes so far (monotonic).
  /// The premeld-churn counters compare this against node_count() for
  /// killed intentions to measure the allocations lazy decode avoided.
  uint64_t materialized() const {
    // relaxed: a statistics read; the node pointers themselves are
    // published through the acquire loads in NodeAt, not this counter.
    return materialized_.load(std::memory_order_relaxed);
  }

 private:
  FlatIntentionView() = default;

  Status ParseBody();
  /// Byte extent [start, end) of record `index` inside the node region.
  void RecordExtent(uint32_t index, const char** start, const char** end) const;
  NodePtr DecodeRecord(uint32_t index) const;
  bool SubtreeHasWrites(uint32_t index) const {
    return (subtree_writes_[index >> 6] >> (index & 63)) & 1u;
  }

  std::string payload_;
  uint64_t seq_ = 0;
  uint64_t snapshot_seq_ = 0;
  IsolationLevel isolation_ = IsolationLevel::kSerializable;
  uint32_t node_count_ = 0;
  std::vector<Tombstone> tombstones_;
  /// Node region and offset table, pointing into payload_ (stable: the
  /// string is never touched after ParseBody).
  const char* region_ = nullptr;
  size_t region_len_ = 0;
  const char* offsets_ = nullptr;  ///< node_count_ fixed32 entries.
  /// Bit i: some node in record i's intention subtree is altered — the
  /// node's kFlagSubtreeHasWrites, precomputed here because lazy
  /// materialization visits parents before children.
  std::vector<uint64_t> subtree_writes_;
  /// slots_[i] holds one strong reference to record i's node once
  /// materialized (released in the destructor).
  mutable std::unique_ptr<std::atomic<Node*>[]> slots_;
  mutable std::atomic<uint64_t> materialized_{0};
};

}  // namespace hyder

#endif  // HYDER2_TXN_FLAT_VIEW_H_
