#ifndef HYDER2_TXN_INTENTION_H_
#define HYDER2_TXN_INTENTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/abort_info.h"
#include "tree/node.h"

namespace hyder {

class FlatIntentionView;

/// Isolation level a transaction executed under (§2, §6.4.4).
///
/// * `kSerializable` — readsets are logged and validated by meld.
/// * `kSnapshot`     — only write-write conflicts are checked; readsets are
///   not included in intentions, which shrinks them ~4x for read-mostly
///   transactions (§6.4.4).
/// Read-only transactions never produce intentions at all: they commit
/// locally against their snapshot (§1).
enum class IsolationLevel : uint8_t {
  kSerializable = 0,
  kSnapshot = 1,
};

/// An explicit delete record carried by an intention. The tree structure
/// alone cannot distinguish "key deleted by T" from "key outside T's
/// footprint", so deletions are logged as (key, observed content version)
/// pairs; meld checks them for write-write conflicts and applies them
/// structurally.
struct Tombstone {
  Key key;
  VersionId base_cv;  ///< Content version the delete observed (null if the
                      ///< transaction deleted its own insert).
  VersionId ssv;      ///< Structure version of the deleted node in the
                      ///< snapshot (null for own-insert deletes). Lets a
                      ///< later re-insert of the same key within the same
                      ///< transaction restore its provenance.
};

/// Owner-tag namespace: which context created a node. Deserialized
/// intention nodes are tagged with the intention's log sequence number;
/// meld-run outputs get the sequence number with a discriminator bit so
/// tags stay unique *and* deterministic across servers (§3.4). Executor
/// workspaces use a local-only bit: their nodes are discarded after
/// serialization and never melded directly.
constexpr uint64_t kPremeldTagBit = 1ull << 62;
constexpr uint64_t kGroupTagBit = 1ull << 61;
constexpr uint64_t kWorkspaceTagBit = 1ull << 60;

/// A transaction's intention as it flows through the meld pipeline: the
/// state the transaction produced, rooted at `root`, plus the snapshot it
/// executed against. Also the representation of premeld and group-meld
/// outputs — the paper's key observation (§3.3) is that a meld output *is*
/// a transaction <S_in, S_out> and can be fed back through the operator.
struct Intention {
  /// Log-order sequence number (1-based), assigned deterministically by the
  /// assembler as intentions complete in the block order of the shared log.
  uint64_t seq = 0;
  /// For group intentions: the sequence of the earliest member; equal to
  /// `seq` otherwise.
  uint64_t seq_first = 0;
  /// Executor-assigned globally unique transaction id.
  uint64_t txn_id = 0;
  /// The state (by intention sequence) this transaction read. For premeld
  /// outputs this is advanced to the premeld input state (§3.1).
  uint64_t snapshot_seq = 0;
  IsolationLevel isolation = IsolationLevel::kSerializable;
  Ref root;
  std::vector<Tombstone> tombstones;
  /// Owner tags whose nodes count as "inside" this intention for the meld
  /// traversal. A freshly deserialized intention has one tag (its seq);
  /// premeld/group outputs accumulate more.
  std::vector<uint64_t> inside;
  uint32_t node_count = 0;
  /// Number of log blocks the serialized intention spanned (Fig. 12 counts
  /// conflict zones in blocks; one intention averages ~2 blocks in §6).
  uint32_t block_count = 1;

  /// Set by premeld when it already detected a conflict: final meld can
  /// skip the intention entirely (§3.1).
  bool known_aborted = false;
  /// Typed provenance of that premeld kill (common/abort_info.h): carried
  /// with the intention so the eventual MeldDecision reports the underlying
  /// conflict, not just "premeld conflict". Meaningful only when
  /// `known_aborted` is set.
  AbortInfo abort_info;

  /// The (seq, txn_id) pairs this intention decides. One entry normally;
  /// two for a group intention. The pipeline uses this to notify executors
  /// and to publish per-sequence states.
  std::vector<std::pair<uint64_t, uint64_t>> members;

  /// Payload views backing this intention's member sequences: one entry
  /// for a freshly decoded intention, the union of both members' entries
  /// for a group output, empty for an intention built in memory. A decode
  /// materializes only the root into the node pool; every other node stays
  /// a lazy intra-intention edge until the meld walk (or a state reader)
  /// touches it, resolved canonically through the view — see `ResolveFlat`
  /// and txn/flat_view.h.
  std::vector<std::pair<uint64_t, std::shared_ptr<FlatIntentionView>>> flats;

  bool Inside(const Node& n) const {
    for (uint64_t tag : inside) {
      if (n.owner() == tag) return true;
    }
    return false;
  }

  /// Materializes `vn` from this intention's flat views (null when `vn` is
  /// not logged or belongs to none of them). Every call for the same id
  /// yields the same Node object.
  NodePtr ResolveFlat(VersionId vn) const;
};

using IntentionPtr = std::shared_ptr<Intention>;

}  // namespace hyder

#endif  // HYDER2_TXN_INTENTION_H_
