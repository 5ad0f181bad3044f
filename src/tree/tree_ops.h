#ifndef HYDER2_TREE_TREE_OPS_H_
#define HYDER2_TREE_TREE_OPS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tree/node.h"

namespace hyder {

/// Work counters for copy-on-write tree operations.
struct TreeOpStats {
  uint64_t nodes_visited = 0;
  uint64_t nodes_created = 0;
};

/// Deterministic allocator of ephemeral node identities (§3.4).
///
/// Every meld context (final meld thread, each premeld thread, the group
/// meld thread) owns one allocator; node identities are the two-part
/// (thread id, per-thread sequence) pairs that make ephemeral node identity
/// reproducible across servers as long as every server runs the same thread
/// configuration and melds the same inputs — which the premeld scheduling
/// rule guarantees. The optional `registrar` callback feeds the server's
/// ephemeral-node registry so later intentions can reference these nodes.
class EphemeralAllocator {
 public:
  explicit EphemeralAllocator(uint32_t thread_id, uint64_t start_seq = 0)
      : thread_id_(thread_id), next_(start_seq) {}

  /// Stamps `n` with the next ephemeral id and registers it.
  void Assign(const NodePtr& n) {
    n->set_vn(VersionId::Ephemeral(thread_id_, next_++));
    if (registrar) registrar(n);
  }

  uint32_t thread_id() const { return thread_id_; }
  uint64_t next_seq() const { return next_; }

  /// Repositions the counter. Checkpoint bootstrap uses this to continue the
  /// id sequence of the incarnation that wrote the checkpoint: ephemeral ids
  /// are part of the physical state (§3.4), so a restored server must mint
  /// the exact ids a full log replay would.
  void set_next_seq(uint64_t next) { next_ = next; }

  std::function<void(const NodePtr&)> registrar;

 private:
  uint32_t thread_id_;
  uint64_t next_;
};

/// Execution context for copy-on-write tree operations.
///
/// All mutating operations follow Hyder's copy-on-write discipline (§2,
/// Fig. 3): a node is never modified in place unless it is already owned by
/// this context (`node.owner == owner`), i.e. it was created by the same
/// in-flight transaction or meld run and is not yet visible to anyone else.
/// Foreign nodes are cloned; the clone records the provenance metadata
/// (`ssv` = source's vn, `base_cv` = source's content version) that the meld
/// algorithm later uses for conflict detection.
struct CowContext {
  /// Owner tag stamped on nodes created here.
  uint64_t owner = 0;
  /// Resolves lazy references; may be null for fully materialized trees.
  NodeResolver* resolver = nullptr;
  /// When true (serializable isolation, once the transaction writes; see
  /// IntentionBuilder), reads copy their search path into the result tree
  /// and annotate it (kFlagRead / kFlagSubtreeRead) so that the readset
  /// travels in the intention (§2: "its intention also contains the nodes
  /// in its readset").
  bool annotate_reads = false;
  /// Optional work counters.
  TreeOpStats* stats = nullptr;
  /// When set, CloneForWrite copies provenance (ssv/base_cv/cv) and
  /// transaction flags verbatim for nodes whose owner tag appears in this
  /// list, instead of re-deriving them from the source node. Meld-internal
  /// restructuring (tombstone application) uses this so the *intention's*
  /// readset metadata survives into meld outputs (§3.3) while base-state
  /// nodes on the same path are rebased normally (their stale flags must
  /// not leak into the output and cause false conflicts downstream).
  const std::vector<uint64_t>* preserve_owners = nullptr;
  /// When set, nodes created by this context receive deterministic
  /// ephemeral version ids at creation (meld contexts). When null, created
  /// nodes keep a null provisional vn (executor workspaces; their ids are
  /// assigned at deserialization).
  EphemeralAllocator* vn_alloc = nullptr;
};

/// Clones `n` for mutation under `ctx` unless it is already owned by `ctx`.
/// The clone shares both child edges and records provenance metadata.
Result<NodePtr> CloneForWrite(const CowContext& ctx, const NodePtr& n);

/// Inserts or updates `key` (upsert), returning the new root. `*existed`
/// (optional) reports whether the key was already present. The resulting
/// tree satisfies the red-black invariants if the input did.
Result<Ref> TreeInsert(const CowContext& ctx, const Ref& root, Key key,
                       std::string_view payload, bool* existed);

/// Removes `key`, returning the new root. `*removed` reports presence;
/// `*removed_base_cv` (optional) receives the content version the delete
/// observed, which the intention's tombstone carries for write-write
/// conflict detection.
Result<Ref> TreeRemove(const CowContext& ctx, const Ref& root, Key key,
                       bool* removed, VersionId* removed_base_cv,
                       VersionId* removed_ssv = nullptr);

/// Point lookup. When `ctx.annotate_reads`, the search path is copied into
/// the returned root and the target is marked kFlagRead; a miss marks the
/// fall-off node kFlagSubtreeRead so that a concurrent insert of `key`
/// (a phantom) is detected. Without annotation the root passes through
/// unchanged.
Result<Ref> TreeLookup(const CowContext& ctx, const Ref& root, Key key,
                       std::optional<std::string>* payload);

/// Inclusive range scan. Appends (key, payload) pairs to `out` in key
/// order. When `ctx.annotate_reads`, boundary nodes are copied and marked
/// kFlagRead and each maximal subtree fully contained in [lo, hi] is copied
/// at its root only and marked kFlagSubtreeRead — the phantom-avoidance
/// metadata (Appendix A): any structural change under such a subtree
/// conflicts with the scan.
Result<Ref> TreeRangeScan(const CowContext& ctx, const Ref& root, Key lo,
                          Key hi,
                          std::vector<std::pair<Key, std::string>>* out);

}  // namespace hyder

#endif  // HYDER2_TREE_TREE_OPS_H_
