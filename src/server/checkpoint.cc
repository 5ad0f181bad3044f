#include "server/checkpoint.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/varint.h"
#include "txn/codec.h"

namespace hyder {

namespace {

constexpr uint32_t kCheckpointMagic = 0xC4C4C4C4;

/// Tree record flags byte. Every other bit is reserved: a record that sets
/// one is Corruption.
enum CheckpointRecordFlags : uint8_t {
  kCheckpointRed = 1u << 0,
  kCheckpointLeftPresent = 1u << 1,
  kCheckpointRightPresent = 1u << 2,
};

/// Post-order serialization of a fully materialized state tree. Children
/// are encoded as post-order indices (like the intention codec); the flags
/// byte carries color and child presence.
Status SerializeState(NodeResolver* resolver, const NodePtr& n,
                      std::unordered_map<const Node*, uint32_t>& index,
                      std::string* out, uint64_t* count) {
  if (!n) return Status::OK();
  HYDER_ASSIGN_OR_RETURN(NodePtr left, n->left().Get(resolver));
  HYDER_RETURN_IF_ERROR(SerializeState(resolver, left, index, out, count));
  HYDER_ASSIGN_OR_RETURN(NodePtr right, n->right().Get(resolver));
  HYDER_RETURN_IF_ERROR(SerializeState(resolver, right, index, out, count));

  uint8_t flags = 0;
  if (n->color() == Color::kRed) flags |= kCheckpointRed;
  if (left) flags |= kCheckpointLeftPresent;
  if (right) flags |= kCheckpointRightPresent;
  out->push_back(static_cast<char>(flags));
  PutVarint64(out, n->key());
  PutVarint64(out, n->vn().raw());
  PutVarint64(out, n->cv().raw());
  PutVarint64(out, n->payload().size());
  out->append(n->payload());
  if (left) PutVarint64(out, index.at(left.get()));
  if (right) PutVarint64(out, index.at(right.get()));
  index[n.get()] = static_cast<uint32_t>(index.size());
  ++*count;
  return Status::OK();
}

Result<Ref> DeserializeState(const char*& p, const char* limit,
                             uint64_t node_count, ServerResolver* resolver,
                             std::unordered_map<VersionId, NodePtr>* pinned) {
  std::vector<NodePtr> nodes;
  nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    if (p >= limit) return Status::Corruption("truncated checkpoint node");
    const uint8_t flags = static_cast<uint8_t>(*p++);
    if (flags & ~(kCheckpointRed | kCheckpointLeftPresent |
                  kCheckpointRightPresent)) {
      return Status::Corruption("unknown checkpoint record flags");
    }
    uint64_t key = 0, vn = 0, cv = 0, len = 0;
    if ((p = GetVarint64(p, limit, &key)) == nullptr ||
        (p = GetVarint64(p, limit, &vn)) == nullptr ||
        (p = GetVarint64(p, limit, &cv)) == nullptr ||
        (p = GetVarint64(p, limit, &len)) == nullptr) {
      return Status::Corruption("truncated checkpoint node fields");
    }
    if (len > size_t(limit - p)) {
      return Status::Corruption("truncated checkpoint payload");
    }
    NodePtr n = MakeNode(key, std::string_view(p, len));
    p += len;
    n->set_vn(VersionId::FromRaw(vn));
    n->set_cv(VersionId::FromRaw(cv));
    n->set_color((flags & kCheckpointRed) ? Color::kRed : Color::kBlack);
    for (int side = 0; side < 2; ++side) {
      if (!(flags & (side == 0 ? kCheckpointLeftPresent
                               : kCheckpointRightPresent))) {
        continue;
      }
      uint64_t child = 0;
      if ((p = GetVarint64(p, limit, &child)) == nullptr || child >= i) {
        return Status::Corruption("bad checkpoint child index");
      }
      (side == 0 ? n->left() : n->right()).Rewire(Ref::To(nodes[child]));
    }
    // Ephemeral identities must stay resolvable for intentions that
    // reference them (§3.4); register into the bootstrapping resolver.
    if (n->vn().IsEphemeral()) resolver->RegisterEphemeral(n);
    // The checkpoint state doubles as the resolution floor: when the log
    // prefix below it is truncated, lazy references into that prefix
    // resolve from this map (ReplacePinnedBase) instead of refetching.
    if (!n->vn().IsNull()) (*pinned)[n->vn()] = n;
    nodes.push_back(std::move(n));
  }
  if (nodes.empty()) return Ref::Null();
  return Ref::To(nodes.back());
}

}  // namespace

Result<CheckpointInfo> WriteCheckpoint(HyderServer& server) {
  if (server.assembler().pending() != 0) {
    return Status::Busy(
        "cannot checkpoint with partially assembled intentions in flight; "
        "poll to quiescence first");
  }
  if (server.next_read_position() < server.log()->Tail()) {
    return Status::Busy("unprocessed log blocks remain; poll first");
  }
  if (server.pipeline().has_pending_group()) {
    // The captured state would predate the buffered intention while
    // resume_position lies past its blocks: a bootstrapping server would
    // skip it entirely and assign shifted meld sequences from then on.
    return Status::Busy(
        "a group-meld pair member is buffered undecided; submit more work "
        "to pair it before checkpointing");
  }
  DatabaseState state = server.LatestState();

  std::string payload;
  PutFixed32(&payload, kCheckpointMagic);
  PutVarint64(&payload, state.seq);
  PutVarint64(&payload, server.next_read_position());
  // Directory for lazy-reference refetches of pre-checkpoint intentions.
  auto directory = server.resolver().ExportDirectory();
  PutVarint64(&payload, directory.size());
  for (const auto& entry : directory) {
    PutVarint64(&payload, entry.seq);
    PutVarint64(&payload, entry.positions.size());
    for (uint64_t pos : entry.positions) PutVarint64(&payload, pos);
  }
  // The tree itself.
  std::string tree;
  uint64_t node_count = 0;
  std::unordered_map<const Node*, uint32_t> index;
  NodePtr root = state.root.node;
  if (!root && !state.root.vn.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(root,
                           server.resolver().Resolve(state.root.vn));
  }
  HYDER_RETURN_IF_ERROR(SerializeState(&server.resolver(), root, index,
                                       &tree, &node_count));
  PutVarint64(&payload, node_count);
  payload.append(tree);
  // Ephemeral allocator counters: ephemeral version ids are physical state
  // (later intentions' ssv name them), so a bootstrapped server must resume
  // minting exactly where this incarnation left off. The quiescence checks
  // above guarantee the counters correspond to state.seq.
  const std::vector<uint64_t> counters = server.pipeline().EphemeralCounters();
  PutVarint64(&payload, counters.size());
  for (uint64_t c : counters) PutVarint64(&payload, c);
  // Per-origin txn-id records (IntentionAssembler::OriginRecord). The
  // writer is at the tail with no partial assembly (the checks above), so
  // each `floor` covers every block header in the log, truncated prefix
  // included, and each `last` names the one intention of its origin whose
  // retried copy can still land after resume_position.
  const auto& origins = server.assembler().origins();
  PutVarint64(&payload, origins.size());
  for (const auto& [origin, record] : origins) {
    PutVarint64(&payload, origin);
    PutVarint64(&payload, record.floor);
    PutVarint64(&payload, record.last);
  }

  const std::vector<std::string> blocks = ChopIntoBlocks(
      kCheckpointTxnBit | state.seq, payload, server.log()->block_size());
  CheckpointInfo info;
  info.state_seq = state.seq;
  info.resume_position = server.next_read_position();
  info.block_count = blocks.size();
  info.node_count = node_count;
  for (size_t i = 0; i < blocks.size(); ++i) {
    // Duplicate copies from retried appends are harmless: scanners count
    // checkpoint blocks per index, not per copy.
    HYDER_ASSIGN_OR_RETURN(uint64_t pos, server.log()->Append(blocks[i]));
    if (i == 0) info.first_block = pos;
  }
  return info;
}

Result<std::optional<CheckpointInfo>> FindLatestCheckpoint(SharedLog& log) {
  struct Candidate {
    CheckpointInfo info;
    std::unordered_set<uint32_t> have;  ///< Distinct block indices seen.
  };
  std::unordered_map<uint64_t, Candidate> partial;
  std::vector<CheckpointInfo> complete;
  // Start at the low-water mark: positions below it are reclaimed, so a
  // checkpoint older than the truncation point can never be assembled —
  // the fallback order is structurally incapable of selecting one.
  for (uint64_t pos = log.LowWaterMark(); pos < log.Tail(); ++pos) {
    Result<std::string> block = log.Read(pos);
    if (!block.ok()) {
      if (block.status().IsUnavailable()) return block.status();
      // Permanently unreadable position (e.g. checksum mismatch). If it held
      // a checkpoint block, that checkpoint simply never completes and an
      // older intact one is chosen instead.
      continue;
    }
    auto header = DecodeBlockHeader(*block);
    if (!header.ok()) continue;
    if (!(header->txn_id & kCheckpointTxnBit)) continue;
    const uint64_t id = header->txn_id;
    Candidate& cand = partial[id];
    if (cand.have.empty()) {
      cand.info.state_seq = header->txn_id & ~kCheckpointTxnBit;
      cand.info.block_count = header->total;
    }
    if (header->index == 0 && !cand.have.count(0)) cand.info.first_block = pos;
    // Count distinct indices, not copies: a retried append may land the same
    // checkpoint block twice.
    if (cand.have.insert(header->index).second &&
        cand.have.size() == header->total) {
      complete.push_back(cand.info);
    }
  }
  // Newest first; a candidate whose header no longer parses (decayed after
  // the write, or a torn first block) is skipped for the next-newest.
  std::sort(complete.begin(), complete.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.state_seq > b.state_seq;
            });
  for (CheckpointInfo& best : complete) {
    // Belt and braces for a truncation racing this scan: a candidate whose
    // first block slipped below the (monotone) mark is no longer viable.
    if (best.first_block < log.LowWaterMark()) continue;
    Result<std::string> first = log.Read(best.first_block);
    if (!first.ok()) {
      if (first.status().IsUnavailable()) return first.status();
      continue;
    }
    auto h = DecodeBlockHeader(*first);
    if (!h.ok()) continue;
    const char* p = first->data() + kBlockHeaderSize;
    const char* limit = p + h->chunk_len;
    if (h->chunk_len < 4 || DecodeFixed32(p) != kCheckpointMagic) continue;
    p += 4;
    uint64_t seq = 0, resume = 0;
    if ((p = GetVarint64(p, limit, &seq)) == nullptr ||
        (p = GetVarint64(p, limit, &resume)) == nullptr) {
      continue;
    }
    best.state_seq = seq;
    best.resume_position = resume;
    return std::optional<CheckpointInfo>{best};
  }
  return std::optional<CheckpointInfo>{};
}

Result<std::unique_ptr<HyderServer>> BootstrapFromCheckpoint(
    SharedLog* log, const CheckpointInfo& info, ServerOptions options) {
  // Reassemble the checkpoint payload, collecting chunks by block index so
  // duplicate copies (retried appends) and out-of-order interleavings cannot
  // scramble it.
  std::vector<std::string> chunks(info.block_count);
  std::vector<bool> have(info.block_count, false);
  uint32_t collected = 0;
  for (uint64_t pos = info.first_block;
       pos < log->Tail() && collected < info.block_count; ++pos) {
    Result<std::string> block = log->Read(pos);
    if (!block.ok()) {
      if (block.status().IsUnavailable()) return block.status();
      continue;  // Unreadable position; hope a duplicate copy exists.
    }
    auto header = DecodeBlockHeader(*block);
    if (!header.ok()) continue;
    if (header->txn_id != (kCheckpointTxnBit | info.state_seq)) continue;
    if (header->index >= info.block_count || have[header->index]) continue;
    chunks[header->index] = block->substr(kBlockHeaderSize, header->chunk_len);
    have[header->index] = true;
    collected++;
  }
  if (collected != info.block_count) {
    return Status::Corruption("incomplete checkpoint in the log");
  }
  std::string payload;
  for (std::string& chunk : chunks) payload.append(chunk);
  const char* p = payload.data();
  const char* limit = payload.data() + payload.size();
  if (payload.size() < 4 || DecodeFixed32(p) != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  p += 4;
  uint64_t seq = 0, resume = 0, dir_count = 0;
  if ((p = GetVarint64(p, limit, &seq)) == nullptr ||
      (p = GetVarint64(p, limit, &resume)) == nullptr ||
      (p = GetVarint64(p, limit, &dir_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint header");
  }
  std::vector<ServerResolver::DirectoryExport> directory;
  directory.reserve(dir_count);
  for (uint64_t i = 0; i < dir_count; ++i) {
    ServerResolver::DirectoryExport entry;
    uint64_t npos = 0;
    if ((p = GetVarint64(p, limit, &entry.seq)) == nullptr ||
        (p = GetVarint64(p, limit, &npos)) == nullptr) {
      return Status::Corruption("truncated checkpoint directory");
    }
    for (uint64_t j = 0; j < npos; ++j) {
      uint64_t pos = 0;
      if ((p = GetVarint64(p, limit, &pos)) == nullptr) {
        return Status::Corruption("truncated checkpoint directory entry");
      }
      entry.positions.push_back(pos);
    }
    directory.push_back(std::move(entry));
  }
  uint64_t node_count = 0;
  if ((p = GetVarint64(p, limit, &node_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint node count");
  }

  auto server = std::make_unique<HyderServer>(
      log, options, DatabaseState{seq, Ref::Null()}, resume);
  std::unordered_map<VersionId, NodePtr> pinned;
  HYDER_ASSIGN_OR_RETURN(
      Ref root,
      DeserializeState(p, limit, node_count, &server->resolver(), &pinned));
  uint64_t counter_count = 0;
  if ((p = GetVarint64(p, limit, &counter_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint allocator counters");
  }
  std::vector<uint64_t> counters;
  for (uint64_t i = 0; i < counter_count; ++i) {
    uint64_t c = 0;
    if ((p = GetVarint64(p, limit, &c)) == nullptr) {
      return Status::Corruption("truncated checkpoint allocator counter");
    }
    counters.push_back(c);
  }
  uint64_t origin_count = 0;
  if ((p = GetVarint64(p, limit, &origin_count)) == nullptr) {
    return Status::Corruption("truncated checkpoint origins");
  }
  std::map<uint64_t, IntentionAssembler::OriginRecord> origins;
  for (uint64_t i = 0; i < origin_count; ++i) {
    uint64_t origin = 0;
    IntentionAssembler::OriginRecord record;
    if ((p = GetVarint64(p, limit, &origin)) == nullptr ||
        (p = GetVarint64(p, limit, &record.floor)) == nullptr ||
        (p = GetVarint64(p, limit, &record.last)) == nullptr) {
      return Status::Corruption("truncated checkpoint origin record");
    }
    origins[origin] = record;
  }
  if (p != limit) {
    return Status::Corruption("trailing bytes after checkpoint");
  }
  server->pipeline().RestoreEphemeralCounters(counters);
  server->assembler().SeedOrigins(origins);
  server->resolver().ImportDirectory(directory);
  // The reconstructed state is this server's resolution floor: directory
  // refetches that hit a truncated prefix fall back to it (the checkpoint
  // is, by the truncation protocol, at least as new as any low-water mark).
  server->resolver().ReplacePinnedBase(seq, std::move(pinned));
  // Install the reconstructed root as the initial state.
  HYDER_RETURN_IF_ERROR(
      server->pipeline().states().ReplaceInitial(DatabaseState{seq, root}));
  return server;
}

}  // namespace hyder
