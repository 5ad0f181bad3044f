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
    HYDER_ASSIGN_OR_RETURN(auto fed, assembler_.AddBlock(next_pos_++, block));
    auto& done = fed.completed;
    if (!done.has_value()) return std::vector<MeldDecision>{};
    HYDER_ASSIGN_OR_RETURN(IntentionPtr intent,
                           pipeline_.Decode(*done, pipeline_.mutable_stats()));
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
  uint64_t next_pos_ = 1;  ///< Log position of the next fed block.
  SequentialPipeline pipeline_;
  IntentionPtr last_deserialized_;
};

}  // namespace hyder

#endif  // HYDER2_TESTS_TEST_CLUSTER_H_
