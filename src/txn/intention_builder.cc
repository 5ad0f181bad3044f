#include "txn/intention_builder.h"

namespace hyder {

IntentionBuilder::IntentionBuilder(uint64_t workspace_tag,
                                   uint64_t snapshot_seq, Ref snapshot_root,
                                   IsolationLevel isolation,
                                   NodeResolver* resolver)
    : snapshot_seq_(snapshot_seq),
      isolation_(isolation),
      root_(std::move(snapshot_root)) {
  ctx_.owner = workspace_tag;
  ctx_.resolver = resolver;
}

Status IntentionBuilder::AnnotateDeferredReads() {
  if (!defers_reads()) return Status::OK();
  // The root is still the snapshot's: unannotated reads return it
  // unchanged. Replay into a local root so a failed read leaves the
  // builder as it was.
  CowContext annotate = ctx_;
  annotate.annotate_reads = true;
  Ref root = root_;
  std::optional<std::string> payload;
  std::vector<std::pair<Key, std::string>> rows;
  for (const DeferredRead& r : deferred_reads_) {
    if (r.scan) {
      rows.clear();
      HYDER_ASSIGN_OR_RETURN(root,
                             TreeRangeScan(annotate, root, r.lo, r.hi, &rows));
    } else {
      HYDER_ASSIGN_OR_RETURN(root, TreeLookup(annotate, root, r.lo, &payload));
    }
  }
  root_ = std::move(root);
  ctx_.annotate_reads = true;
  deferred_reads_.clear();
  return Status::OK();
}

Status IntentionBuilder::Put(Key key, std::string value) {
  HYDER_RETURN_IF_ERROR(AnnotateDeferredReads());
  HYDER_ASSIGN_OR_RETURN(root_,
                         TreeInsert(ctx_, root_, key, std::move(value),
                                    /*existed=*/nullptr));
  has_writes_ = true;
  // Re-inserting a key this transaction previously deleted: drop the
  // tombstone and restore the original provenance on the fresh node, so
  // the write is validated against the content the transaction actually
  // observed instead of being treated as a blind insert.
  for (size_t i = 0; i < tombstones_.size(); ++i) {
    if (tombstones_[i].key != key) continue;
    NodePtr n = root_.node;
    while (n && n->key() != key) {
      HYDER_ASSIGN_OR_RETURN(n, n->child(key > n->key()).Get(ctx_.resolver));
    }
    if (n && n->owner() == ctx_.owner) {
      n->set_ssv(tombstones_[i].ssv);
      n->set_base_cv(tombstones_[i].base_cv);
    }
    tombstones_.erase(tombstones_.begin() + i);
    break;
  }
  return Status::OK();
}

Result<std::optional<std::string>> IntentionBuilder::Get(Key key) {
  std::optional<std::string> payload;
  HYDER_ASSIGN_OR_RETURN(root_, TreeLookup(ctx_, root_, key, &payload));
  if (defers_reads()) deferred_reads_.push_back(DeferredRead{key, key, false});
  return payload;
}

Result<bool> IntentionBuilder::Delete(Key key) {
  HYDER_RETURN_IF_ERROR(AnnotateDeferredReads());
  bool removed = false;
  VersionId base_cv;
  VersionId ssv;
  HYDER_ASSIGN_OR_RETURN(
      root_, TreeRemove(ctx_, root_, key, &removed, &base_cv, &ssv));
  if (removed) {
    has_writes_ = true;
    // A tombstone for a key this same transaction previously wrote refers
    // to the content version it originally observed, which TreeRemove
    // reports via the clone's base_cv.
    tombstones_.push_back(Tombstone{key, base_cv, ssv});
  }
  return removed;
}

Result<std::vector<std::pair<Key, std::string>>> IntentionBuilder::Scan(
    Key lo, Key hi) {
  std::vector<std::pair<Key, std::string>> out;
  HYDER_ASSIGN_OR_RETURN(root_, TreeRangeScan(ctx_, root_, lo, hi, &out));
  if (defers_reads()) deferred_reads_.push_back(DeferredRead{lo, hi, true});
  return out;
}

}  // namespace hyder
