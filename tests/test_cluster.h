#ifndef HYDER2_TESTS_TEST_CLUSTER_H_
#define HYDER2_TESTS_TEST_CLUSTER_H_

// Test-only miniature Hyder server: a keep-everything node registry, the
// intention assembler, and a sequential meld pipeline. Tests drive multiple
// independent TestServer instances with the same block stream to validate
// decisions, content, and cross-server physical determinism. The production
// server (src/server) replaces the registry with the block-cache resolver.

#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_counter.h"
#include "common/thread_annotations.h"

#include "meld/pipeline.h"
#include "txn/codec.h"
#include "txn/flat_view.h"
#include "txn/intention_builder.h"

namespace hyder {

/// Keep-everything resolver: every deserialized logged node and every
/// ephemeral node stays resolvable for the process lifetime. Thread-safe:
/// premeld workers resolve while the meld thread registers.
class MapRegistry : public NodeResolver {
 public:
  Result<NodePtr> Resolve(VersionId vn) override {
    MutexLock lock(mu_);
    BumpResolverLockCount();
    auto it = nodes_.find(vn);
    if (it != nodes_.end()) return it->second;
    if (NodePtr n = FromFlatLocked(vn); n != nullptr) return n;
    return Status::SnapshotTooOld("node " + vn.ToString() +
                                  " not in registry");
  }

  NodePtr TryResolveCached(VersionId vn) override {
    MutexLock lock(mu_);
    BumpResolverLockCount();
    auto it = nodes_.find(vn);
    if (it != nodes_.end()) return it->second;
    return FromFlatLocked(vn);
  }

  void Register(const NodePtr& n) {
    MutexLock lock(mu_);
    BumpResolverLockCount();
    nodes_[n->vn()] = n;
  }

  /// Registers a freshly deserialized intention's views: its nodes
  /// materialize through them on first resolve, preserving keep-everything
  /// semantics lazily.
  void RegisterIntention(const IntentionPtr& intent) {
    MutexLock lock(mu_);
    BumpResolverLockCount();
    for (const auto& [seq, view] : intent->flats) flats_[seq] = view;
  }

  size_t size() const {
    MutexLock lock(mu_);
    return nodes_.size();
  }

 private:
  /// Lazy fallback for logged ids covered by a registered flat view.
  /// FlatIntentionView::NodeAt is lock-free, so calling it under mu_ is
  /// safe and keeps the one-node-per-vn canonical identity.
  NodePtr FromFlatLocked(VersionId vn) REQUIRES(mu_) {
    if (!vn.IsLogged()) return nullptr;
    auto it = flats_.find(vn.intention_seq());
    if (it == flats_.end()) return nullptr;
    if (vn.node_index() >= it->second->node_count()) return nullptr;
    return it->second->NodeAt(vn.node_index());
  }

  mutable Mutex mu_;
  std::unordered_map<VersionId, NodePtr> nodes_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<FlatIntentionView>> flats_
      GUARDED_BY(mu_);
};

/// One logical server: feeds log blocks through assembly, deserialization
/// and the meld pipeline.
class TestServer {
 public:
  explicit TestServer(const PipelineConfig& config = PipelineConfig{})
      : pipeline_(config, DatabaseState{0, Ref::Null()}, &registry_,
                  [this](const NodePtr& n) { registry_.Register(n); }) {}

  /// Feeds the block at the next log position.
  Result<std::vector<MeldDecision>> FeedBlock(const std::string& block) {
    HYDER_ASSIGN_OR_RETURN(auto fed, assembler_.AddBlock(block));
    auto& done = fed.completed;
    if (!done.has_value()) return std::vector<MeldDecision>{};
    HYDER_ASSIGN_OR_RETURN(
        IntentionPtr intent,
        DeserializeIntention(done->payload, done->seq, done->block_count,
                             &registry_, done->txn_id));
    registry_.RegisterIntention(intent);
    last_deserialized_ = intent;
    return pipeline_.Process(intent);
  }

  Result<std::vector<MeldDecision>> FeedBlocks(
      const std::vector<std::string>& blocks) {
    std::vector<MeldDecision> all;
    for (const std::string& b : blocks) {
      HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> d, FeedBlock(b));
      all.insert(all.end(), d.begin(), d.end());
    }
    return all;
  }

  Result<std::vector<MeldDecision>> Flush() { return pipeline_.Flush(); }

  DatabaseState Latest() { return pipeline_.states().Latest(); }
  Result<DatabaseState> StateAt(uint64_t seq) {
    return pipeline_.states().Get(seq);
  }
  MapRegistry& registry() { return registry_; }
  SequentialPipeline& pipeline() { return pipeline_; }
  const IntentionPtr& last_deserialized() const { return last_deserialized_; }

 private:
  MapRegistry registry_;
  IntentionAssembler assembler_;
  SequentialPipeline pipeline_;
  IntentionPtr last_deserialized_;
};

/// Physical equality of two database states: identical node identities,
/// content, colors and structure — the §3.4 determinism requirement.
inline bool StatesPhysicallyEqual(NodeResolver* ra, const Ref& a,
                                  NodeResolver* rb, const Ref& b,
                                  std::string* diff) {
  NodePtr na = a.node, nb = b.node;
  if (!na && !a.vn.IsNull()) {
    auto r = ra->Resolve(a.vn);
    if (!r.ok()) {
      *diff = "resolve A: " + r.status().ToString();
      return false;
    }
    na = *r;
  }
  if (!nb && !b.vn.IsNull()) {
    auto r = rb->Resolve(b.vn);
    if (!r.ok()) {
      *diff = "resolve B: " + r.status().ToString();
      return false;
    }
    nb = *r;
  }
  if (!na || !nb) {
    if (static_cast<bool>(na) != static_cast<bool>(nb)) {
      *diff = "null mismatch";
      return false;
    }
    return true;
  }
  if (na->is_wide() != nb->is_wide()) {
    *diff = "layout mismatch at " + na->vn().ToString();
    return false;
  }
  if (na->is_wide()) {
    const WideExt& ea = *na->wide();
    const WideExt& eb = *nb->wide();
    if (na->vn() != nb->vn() || ea.count() != eb.count()) {
      *diff = "page mismatch: vns " + na->vn().ToString() + "/" +
              nb->vn().ToString();
      return false;
    }
    for (int i = 0; i < ea.count(); ++i) {
      if (ea.slot(i).key != eb.slot(i).key ||
          ea.slot(i).payload() != eb.slot(i).payload() ||
          ea.slot(i).meta.cv != eb.slot(i).meta.cv) {
        *diff = "slot mismatch at keys " + std::to_string(ea.slot(i).key) +
                "/" + std::to_string(eb.slot(i).key) + " in page " +
                na->vn().ToString();
        return false;
      }
    }
    for (int i = 0; i <= ea.count(); ++i) {
      if (!StatesPhysicallyEqual(ra, ea.child(i).GetLocal(), rb,
                                 eb.child(i).GetLocal(), diff)) {
        return false;
      }
    }
    return true;
  }
  if (na->vn() != nb->vn() || na->key() != nb->key() ||
      na->payload() != nb->payload() || na->color() != nb->color()) {
    *diff = "node mismatch at keys " + std::to_string(na->key()) + "/" +
            std::to_string(nb->key()) + " vns " + na->vn().ToString() + "/" +
            nb->vn().ToString();
    return false;
  }
  return StatesPhysicallyEqual(ra, na->left().GetLocal(), rb,
                               nb->left().GetLocal(), diff) &&
         StatesPhysicallyEqual(ra, na->right().GetLocal(), rb,
                               nb->right().GetLocal(), diff);
}

}  // namespace hyder

#endif  // HYDER2_TESTS_TEST_CLUSTER_H_
