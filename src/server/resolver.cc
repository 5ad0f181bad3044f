#include "server/resolver.h"

#include <algorithm>

#include "common/lock_counter.h"
#include "txn/codec.h"
#include "txn/flat_view.h"

namespace hyder {

namespace {
/// Lock stripes of the intention cache + directory (keyed by intention
/// sequence). The threaded driver's premeld workers and melding thread
/// resolve concurrently; striping keeps them off one mutex.
constexpr size_t kIntentionShards = 8;
/// Ephemeral registry lanes with a window of their own: thread ids 0..15
/// cover final meld, group meld and up to 14 premeld workers. Higher ids
/// share the one overflow lane after them.
constexpr uint32_t kWindowedLanes = 16;
bool HasWindow(VersionId vn) { return vn.thread_id() < kWindowedLanes; }
/// A sweep moves the survivors of the window's longest prefix that is at
/// most 1/kSlotsPerLive live to the spill table, so a lane's window never
/// holds more than kSlotsPerLive slots per live entry, however long a few
/// old nodes survive.
constexpr size_t kSlotsPerLive = 16;

/// A MutexLock that also charges the acquisition to the thread-local
/// resolver-lock counter (see common/lock_counter.h): the pipeline's
/// `fm_resolver_locks` stat is the per-stage delta of this counter.
class SCOPED_CAPABILITY CountedLock {
 public:
  explicit CountedLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
    BumpResolverLockCount();
  }
  ~CountedLock() RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};
}  // namespace

ServerResolver::ServerResolver(SharedLog* log, ResolverOptions options)
    : log_(log), options_(options) {
  // Each shard must be able to hold at least one intention, or a single
  // resolve could evict the entry it just materialized.
  const size_t capacity = std::max<size_t>(1, options_.intention_cache_capacity);
  const size_t shard_count = std::min(kIntentionShards, capacity);
  shards_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    // Split the capacity exactly (base + one extra for the first
    // `capacity % shard_count` shards) so the global bound
    // `cached_intentions() <= intention_cache_capacity` stays precise.
    shard->capacity =
        capacity / shard_count + (s < capacity % shard_count ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
  lanes_.reserve(kWindowedLanes + 1);
  for (uint32_t l = 0; l <= kWindowedLanes; ++l) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

ServerResolver::Lane& ServerResolver::LaneFor(VersionId vn) const {
  return *lanes_[HasWindow(vn) ? vn.thread_id() : kWindowedLanes];
}

const NodePtr* ServerResolver::Lane::Find(VersionId vn) const {
  const uint64_t seq = vn.sequence();
  if (HasWindow(vn) && seq >= base) {
    if (seq - base >= window.size()) return nullptr;
    const NodePtr& slot = window[seq - base];
    return slot ? &slot : nullptr;
  }
  auto it = spill.find(vn.raw());
  return it == spill.end() ? nullptr : &it->second;
}

void ServerResolver::Lane::Register(const NodePtr& n) {
  counters.registrations++;
  const VersionId vn = n->vn();
  const uint64_t seq = vn.sequence();
  if (!HasWindow(vn) || seq < base) {
    if (spill.insert_or_assign(vn.raw(), n).second) live++;
    return;
  }
  const uint64_t end = base + window.size();
  if (seq < end) {
    NodePtr& slot = window[seq - base];
    if (!slot) live++;
    slot = n;
    return;
  }
  if (seq > end) {
    // A jump: a counter restored forward, or bootstrap's post-order. The
    // window restarts at `seq`; what it held moves to the spill table in
    // ascending order, so each entry appends there.
    for (size_t i = 0; i < window.size(); ++i) {
      if (!window[i]) continue;
      spill.emplace_hint(spill.end(),
                         VersionId::Ephemeral(vn.thread_id(), base + i).raw(),
                         std::move(window[i]));
    }
    window.clear();
    base = seq;
  }
  window.push_back(n);
  live++;
}

size_t ServerResolver::Lane::Sweep() {
  // RefCount == 1 means only the registry still holds the node: it is
  // unreachable from every retained state, live intention and cache, so
  // nothing can ever reference it again except a transaction whose
  // snapshot has itself been retired (which is answered with
  // SnapshotTooOld, the same as in the real system).
  //
  // One pass, oldest entry first. A node mostly holds older nodes, so
  // dropping a dead parent leaves its dead children for the next sweep:
  // each sweep frees one level of a dead cascade. That delay is
  // load-bearing. The criterion is sound only while no retained state
  // reaches an ephemeral node through a lazy logged edge, and Melder::Link
  // can leave such edges behind (ROADMAP direction 1); sweeping until
  // nothing drops frees whole cascades and makes
  // `HYDER_BENCH_SCALE=10 pipeline_throughput` read a swept node.
  size_t dropped = 0;
  for (auto it = spill.begin(); it != spill.end();) {
    counters.sweep_visited++;
    if (it->second->RefCount() == 1) {
      it = spill.erase(it);
      dropped++;
    } else {
      ++it;
    }
  }
  size_t kept = 0;
  size_t cut = 0;  // Longest prefix at most 1/kSlotsPerLive live.
  for (size_t i = 0; i < window.size(); ++i) {
    NodePtr& slot = window[i];
    if (slot) {
      counters.sweep_visited++;
      if (slot->RefCount() == 1) {
        slot.Reset();
        dropped++;
      } else {
        kept++;
      }
    }
    if (kept * kSlotsPerLive <= i + 1) cut = i + 1;
  }
  for (size_t i = 0; i < cut; ++i) {
    NodePtr& slot = window[i];
    if (!slot) continue;
    const uint32_t thread_id = slot->vn().thread_id();
    spill.emplace_hint(spill.end(),
                       VersionId::Ephemeral(thread_id, base + i).raw(),
                       std::move(slot));
  }
  window.erase(window.begin(), window.begin() + std::ptrdiff_t(cut));
  base += cut;
  counters.sweep_dropped += dropped;
  live -= dropped;
  return dropped;
}

Result<NodePtr> ServerResolver::Resolve(VersionId vn) {
  if (vn.IsNull()) {
    return Status::InvalidArgument("cannot resolve a null version id");
  }
  if (vn.IsEphemeral()) {
    Lane& lane = LaneFor(vn);
    CountedLock lock(lane.mu);
    lane.counters.lookups++;
    if (const NodePtr* n = lane.Find(vn)) return *n;
    lane.counters.retired_lookups++;
    return Status::SnapshotTooOld("ephemeral node " + vn.ToString() +
                                  " has been retired");
  }
  return ResolveLogged(vn);
}

NodePtr ServerResolver::LookupPinned(VersionId vn) const {
  CountedLock lock(pinned_mu_);
  auto it = pinned_nodes_.find(vn);
  return it == pinned_nodes_.end() ? nullptr : it->second;
}

Result<NodePtr> ServerResolver::ResolveLogged(VersionId vn) {
  const uint64_t seq = vn.intention_seq();
  Shard& shard = ShardFor(seq);
  const auto out_of_range = [&vn] {
    return Status::Corruption("node index " +
                              std::to_string(vn.node_index()) +
                              " out of range in intention " +
                              std::to_string(vn.intention_seq()));
  };
  Status miss = Status::OK();
  std::vector<uint64_t> positions;
  bool have_dir = false;
  {
    CountedLock lock(shard.mu);
    auto it = shard.intentions.find(seq);
    if (it != shard.intentions.end()) {
      TouchLocked(shard, seq);
      NodePtr n = it->second.view->NodeAt(vn.node_index());
      if (n == nullptr) return out_of_range();
      return n;
    }
    auto d = shard.directory.find(seq);
    if (d == shard.directory.end()) {
      miss = Status::NotFound("no directory entry for intention " +
                              std::to_string(seq));
    } else {
      // Copy the entry so the fetch + decode can run without the lock.
      positions = d->second;
      have_dir = true;
    }
  }
  if (have_dir) {
    auto decoded = RefetchIntention(seq, positions);
    if (decoded.ok()) {
      CountedLock lock(shard.mu);
      auto [it, inserted] = shard.intentions.try_emplace(seq);
      if (inserted) {
        it->second.view = std::move(*decoded);
        shard.lru.push_front(seq);
        it->second.lru_pos = shard.lru.begin();
        // Eviction never removes the most recently used entry, so `it`
        // survives (erase invalidates only the erased iterators).
        EvictLocked(shard);
      } else {
        // A concurrent resolve refetched the same sequence while the lock
        // was down; first insert wins and this decode is discarded.
        TouchLocked(shard, seq);
      }
      NodePtr n = it->second.view->NodeAt(vn.node_index());
      if (n == nullptr) return out_of_range();
      return n;
    }
    miss = decoded.status();
  }
  // Only the two shapes truncation legitimately produces fall through to
  // the pinned base: the directory entry was retired with the prefix
  // (NotFound) or the log positions themselves were reclaimed
  // (Truncated). Anything else — Corruption, DataLoss, I/O — surfaces.
  if (!miss.IsNotFound() && !miss.IsTruncated()) return miss;
  if (NodePtr pinned = LookupPinned(vn); pinned != nullptr) return pinned;
  return miss;
}

Result<std::shared_ptr<FlatIntentionView>> ServerResolver::RefetchIntention(
    uint64_t seq, const std::vector<uint64_t>& positions) {
  // Refetch from the log: the paper's "random access to the log" path
  // (§1) taken when data is not in this server's partial cached copy.
  // Relaxed: stats only; cache mutations are ordered by the shard lock.
  refetches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> chunks(positions.size());
  for (uint64_t pos : positions) {
    // DataLoss and the like surface: the refetch has no other copy to fall
    // back on.
    HYDER_ASSIGN_OR_RETURN(std::string block, log_->Read(pos));
    HYDER_ASSIGN_OR_RETURN(BlockHeader h, DecodeBlockHeader(block));
    if (h.index >= chunks.size()) {
      return Status::Corruption("block index out of range on refetch");
    }
    chunks[h.index] = block.substr(kBlockHeaderSize, h.chunk_len);
  }
  std::string payload;
  for (std::string& c : chunks) payload.append(c);
  // The cache holds the view; nodes appear only if something actually
  // dereferences them.
  return FlatIntentionView::Parse(std::move(payload), seq);
}

void ServerResolver::TouchLocked(Shard& shard, uint64_t seq) {
  auto it = shard.intentions.find(seq);
  shard.lru.erase(it->second.lru_pos);
  shard.lru.push_front(seq);
  it->second.lru_pos = shard.lru.begin();
}

void ServerResolver::EvictLocked(Shard& shard) {
  while (shard.intentions.size() > shard.capacity) {
    uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.intentions.erase(victim);
  }
}

void ServerResolver::RecordIntentionBlocks(uint64_t seq,
                                           std::vector<uint64_t> positions) {
  Shard& shard = ShardFor(seq);
  CountedLock lock(shard.mu);
  shard.directory[seq] = std::move(positions);
}

void ServerResolver::CacheIntention(uint64_t seq,
                                    std::shared_ptr<FlatIntentionView> view) {
  Shard& shard = ShardFor(seq);
  CountedLock lock(shard.mu);
  if (shard.intentions.count(seq) != 0) return;
  CachedIntention entry;
  entry.view = std::move(view);
  shard.lru.push_front(seq);
  entry.lru_pos = shard.lru.begin();
  shard.intentions.emplace(seq, std::move(entry));
  EvictLocked(shard);
}

void ServerResolver::ReplacePinnedBase(
    uint64_t state_seq, std::unordered_map<VersionId, NodePtr> nodes) {
  // Swap under the lock, destroy the displaced map outside it: dropping a
  // pin can release the last reference to millions of nodes.
  std::unordered_map<VersionId, NodePtr> displaced;
  {
    CountedLock lock(pinned_mu_);
    displaced.swap(pinned_nodes_);
    pinned_nodes_ = std::move(nodes);
    pinned_state_seq_ = state_seq;
  }
}

uint64_t ServerResolver::pinned_state_seq() const {
  CountedLock lock(pinned_mu_);
  return pinned_state_seq_;
}

size_t ServerResolver::pinned_node_count() const {
  CountedLock lock(pinned_mu_);
  return pinned_nodes_.size();
}

void ServerResolver::RegisterEphemeral(const NodePtr& n) {
  Lane& lane = LaneFor(n->vn());
  CountedLock lock(lane.mu);
  lane.Register(n);
}

size_t ServerResolver::SweepEphemerals() {
  size_t dropped = 0;
  for (auto& lane : lanes_) {
    CountedLock lock(lane->mu);
    dropped += lane->Sweep();
  }
  return dropped;
}

std::vector<ServerResolver::DirectoryExport> ServerResolver::ExportDirectory()
    const {
  std::vector<DirectoryExport> out;
  for (const auto& shard : shards_) {
    CountedLock lock(shard->mu);
    out.reserve(out.size() + shard->directory.size());
    for (const auto& [seq, positions] : shard->directory) {
      out.push_back(DirectoryExport{seq, positions});
    }
  }
  // Gathered shard by shard (never holding two shard locks), then sorted so
  // the checkpoint payload is byte-deterministic regardless of shard count.
  // The snapshot is not atomic across shards, which matches the original
  // single-mutex contract: checkpoints run against a quiesced cut.
  std::sort(out.begin(), out.end(),
            [](const DirectoryExport& a, const DirectoryExport& b) {
              return a.seq < b.seq;
            });
  return out;
}

void ServerResolver::ImportDirectory(
    const std::vector<DirectoryExport>& entries) {
  for (const DirectoryExport& e : entries) {
    Shard& shard = ShardFor(e.seq);
    CountedLock lock(shard.mu);
    shard.directory[e.seq] = e.positions;
  }
}

size_t ServerResolver::DropDirectoryBelow(uint64_t low_water) {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    CountedLock lock(shard->mu);
    dropped += std::erase_if(shard->directory, [low_water](const auto& entry) {
      return std::all_of(entry.second.begin(), entry.second.end(),
                         [low_water](uint64_t pos) { return pos < low_water; });
    });
  }
  return dropped;
}

size_t ServerResolver::cached_intentions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    CountedLock lock(shard->mu);
    total += shard->intentions.size();
  }
  return total;
}

size_t ServerResolver::ephemeral_count() const {
  size_t total = 0;
  for (const auto& lane : lanes_) {
    CountedLock lock(lane->mu);
    total += lane->live;
  }
  return total;
}

void ServerResolver::EmitMetrics(const std::string& prefix,
                                 const MetricEmit& emit) const {
  const std::string dot = prefix.empty() ? "" : prefix + ".";
  LaneCounters sum;
  size_t live = 0;
  size_t slots = 0;
  for (const auto& lane : lanes_) {
    CountedLock lock(lane->mu);
    sum.registrations += lane->counters.registrations;
    sum.lookups += lane->counters.lookups;
    sum.retired_lookups += lane->counters.retired_lookups;
    sum.sweep_visited += lane->counters.sweep_visited;
    sum.sweep_dropped += lane->counters.sweep_dropped;
    live += lane->live;
    slots += lane->window.size() + lane->spill.size();
  }
  emit(dot + "cached_intentions", double(cached_intentions()));
  emit(dot + "ephemeral_count", double(live));
  // Window slots (swept holes included) plus spill entries: what the
  // registry's memory grows with, next to the live count.
  emit(dot + "ephemeral_slots", double(slots));
  emit(dot + "ephemeral_registrations", double(sum.registrations));
  emit(dot + "ephemeral_lookups", double(sum.lookups));
  emit(dot + "ephemeral_retired_lookups", double(sum.retired_lookups));
  emit(dot + "ephemeral_sweep_visited", double(sum.sweep_visited));
  emit(dot + "ephemeral_sweep_dropped", double(sum.sweep_dropped));
  emit(dot + "refetches", double(refetches()));
  emit(dot + "pinned_state_seq", double(pinned_state_seq()));
  emit(dot + "pinned_nodes", double(pinned_node_count()));
}

}  // namespace hyder
