#ifndef HYDER2_TREE_BTREE_SIZER_H_
#define HYDER2_TREE_BTREE_SIZER_H_

#include <cstdint>
#include <vector>

#include "tree/node.h"

namespace hyder {

/// Ablation support for the paper's index-structure choice (§2, §5):
/// "since it operates on main memory structures and is serialized to a
/// sequential log (rather than written out in fixed-size pages), a binary
/// tree consumes less storage per record than a B-tree. So we use binary
/// trees." — copy-on-write must rewrite every node on the root path, and a
/// B-tree node carries F keys (and, at the leaves, F payloads), so each
/// copied level costs ~F times more bytes than a binary node.
///
/// This class models a bulk-loaded B-tree over a dense key space and
/// computes the serialized size of the COW intention a transaction's write
/// set would produce. It is a sizing model, not a full B-tree runtime: the
/// meld algorithm itself stays binary, exactly as in the paper.
class CowBtreeSizer {
 public:
  /// `fanout` = maximum entries per node; nodes are bulk-loaded ~85% full.
  CowBtreeSizer(uint64_t db_size, int fanout, size_t key_bytes,
                size_t payload_bytes);

  /// Serialized bytes of the intention produced by a transaction that
  /// updates `write_keys` (union of root-to-leaf path copies).
  uint64_t IntentionBytes(const std::vector<Key>& write_keys) const;

  /// The binary-tree equivalent for the same writes (path copies in a
  /// balanced binary tree with per-node metadata as in txn/codec.cc).
  /// `payload_by_reference` models the production encoding for large
  /// payloads, where an unaltered path copy carries only the content
  /// version (a reference into the log) instead of the payload bytes —
  /// without it, a deep path of large inline payloads would dominate the
  /// intention, which is incompatible with the paper's ~2 blocks per
  /// intention at 1KB payloads (§6.4.1 discussion of Fig. 12).
  uint64_t BinaryIntentionBytes(const std::vector<Key>& write_keys,
                                bool payload_by_reference = true) const;

  int height() const { return height_; }
  uint64_t leaf_count() const { return leaves_; }
  uint64_t entries_per_leaf() const { return entries_per_leaf_; }

 private:
  uint64_t db_size_;
  int fanout_;
  size_t key_bytes_;
  size_t payload_bytes_;
  int height_ = 1;                  ///< Levels including the leaf level.
  uint64_t leaves_ = 1;
  std::vector<uint64_t> level_width_;  ///< Nodes per level, root first.
  uint64_t entries_per_leaf_;
};

}  // namespace hyder

#endif  // HYDER2_TREE_BTREE_SIZER_H_
