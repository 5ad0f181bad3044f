#include "tree/btree_sizer.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace hyder {

CowBtreeSizer::CowBtreeSizer(uint64_t db_size, int fanout, size_t key_bytes,
                             size_t payload_bytes)
    : db_size_(db_size),
      fanout_(fanout),
      key_bytes_(key_bytes),
      payload_bytes_(payload_bytes) {
  // Bulk load at ~85% occupancy, the usual B-tree steady state.
  entries_per_leaf_ = std::max<uint64_t>(2, uint64_t(fanout * 0.85));
  leaves_ = (db_size_ + entries_per_leaf_ - 1) / entries_per_leaf_;
  // Interior levels.
  std::vector<uint64_t> widths = {leaves_};
  while (widths.back() > 1) {
    widths.push_back((widths.back() + entries_per_leaf_ - 1) /
                     entries_per_leaf_);
  }
  height_ = static_cast<int>(widths.size());
  level_width_.assign(widths.rbegin(), widths.rend());  // Root first.
}

uint64_t CowBtreeSizer::IntentionBytes(
    const std::vector<Key>& write_keys) const {
  // Serialized node sizes: an interior node carries ~entries keys plus
  // child references; a leaf carries keys plus payloads. Copy-on-write
  // copies each distinct node on each written key's root path once.
  const uint64_t interior_node_bytes =
      entries_per_leaf_ * (key_bytes_ + 8 /* child ref */);
  const uint64_t leaf_node_bytes =
      entries_per_leaf_ * (key_bytes_ + payload_bytes_);

  uint64_t bytes = 0;
  // Distinct nodes touched per level: map each key to its node index at
  // that level and dedupe.
  std::set<std::pair<int, uint64_t>> touched;
  for (Key k : write_keys) {
    const uint64_t pos = k % db_size_;
    uint64_t node = pos / entries_per_leaf_;  // Leaf index.
    for (int level = height_ - 1; level >= 0; --level) {
      touched.emplace(level, node);
      node /= entries_per_leaf_;
    }
  }
  for (const auto& [level, node] : touched) {
    bytes += (level == height_ - 1) ? leaf_node_bytes : interior_node_bytes;
  }
  return bytes;
}

uint64_t CowBtreeSizer::BinaryIntentionBytes(
    const std::vector<Key>& write_keys, bool payload_by_reference) const {
  // Balanced binary tree: path length log2(n); written paths share their
  // top levels, so count distinct (level, prefix) pairs like the B-tree
  // model. Per-node serialized cost mirrors txn/codec.cc: flags + key +
  // provenance (ssv, base_cv as varints ~6B each) + payload + child refs.
  const int depth = std::max(1, int(std::ceil(std::log2(double(db_size_)))));
  // flags + key + provenance varints + child refs, plus either the payload
  // bytes (inline) or an 8-byte content-version reference.
  const uint64_t meta_bytes = 1 + key_bytes_ + 12 + 10;
  const uint64_t path_node_bytes =
      meta_bytes + (payload_by_reference ? 8 : payload_bytes_);
  std::set<std::pair<int, uint64_t>> touched;
  for (Key k : write_keys) {
    uint64_t pos = k % db_size_;
    // Treat the balanced tree as an implicit binary trie over the position.
    for (int level = depth; level >= 0; --level) {
      touched.emplace(level, pos >> (depth - level));
    }
  }
  uint64_t bytes = touched.size() * path_node_bytes;
  if (payload_by_reference) {
    // Written nodes do carry their new payloads.
    bytes += write_keys.size() * payload_bytes_;
  }
  return bytes;
}

}  // namespace hyder
