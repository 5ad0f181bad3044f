#ifndef HYDER2_TREE_VALIDATE_H_
#define HYDER2_TREE_VALIDATE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tree/node.h"

namespace hyder {

/// Structural facts about a tree, produced by `ValidateTree`.
struct TreeCheck {
  uint64_t node_count = 0;
  uint32_t height = 0;
  int black_height = 0;  ///< -1 when the black-height invariant is violated.
  bool bst_ok = false;
  bool rb_ok = false;  ///< Red-black invariants: root black, no red-red,
                       ///< equal black heights.
  /// Edges found lazy (before this walk resolved them) that name an
  /// ephemeral node. Ephemeral nodes are never logged, so such an edge
  /// holds nothing up: once the registry sweeps its target, the edge
  /// answers SnapshotTooOld. Melded states keep this at 0.
  uint64_t lazy_ephemeral_edges = 0;
};

/// Walks the whole tree checking key ordering and the red-black invariants.
/// Resolves lazy edges through `resolver` (may be null for materialized
/// trees). Intended for tests; cost is O(n).
Result<TreeCheck> ValidateTree(NodeResolver* resolver, const Ref& root);

/// In-order dump of (key, payload) pairs.
Status TreeCollect(NodeResolver* resolver, const Ref& root,
                   std::vector<std::pair<Key, std::string>>* out);

/// Counts nodes reachable from `root`.
Result<uint64_t> TreeCount(NodeResolver* resolver, const Ref& root);

/// Renders the tree as an indented multi-line string (debugging aid).
Result<std::string> TreeToString(NodeResolver* resolver, const Ref& root);

/// Physical equality of two (sub)trees, each resolved through its own
/// resolver: identical version ids, keys, payloads, colors and shape — the
/// §3.4 determinism requirement across servers and engines. On `false`,
/// `*diff` names the first mismatch.
Result<bool> PhysicallyEqual(NodeResolver* ra, const Ref& a, NodeResolver* rb,
                             const Ref& b, std::string* diff);

}  // namespace hyder

#endif  // HYDER2_TREE_VALIDATE_H_
