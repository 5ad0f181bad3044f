#include "txn/flat_view.h"

#include "common/varint.h"
#include "txn/wire_format.h"

namespace hyder {

FlatIntentionView::~FlatIntentionView() {
  if (slots_ == nullptr) return;
  for (uint32_t i = 0; i < node_count_; ++i) {
    // relaxed: the destructor runs with exclusive access; any concurrent
    // materialization happened-before the last reference was dropped.
    NodeUnref(slots_[i].load(std::memory_order_relaxed));
  }
}

Result<std::shared_ptr<FlatIntentionView>> FlatIntentionView::Parse(
    std::string payload, uint64_t seq) {
  std::shared_ptr<FlatIntentionView> view(new FlatIntentionView());
  view->payload_ = std::move(payload);
  view->seq_ = seq;
  HYDER_RETURN_IF_ERROR(view->ParseBody());
  return view;
}

/// One full validation pass over the adopted payload. Everything NodeAt
/// later relies on — field bounds, offset monotonicity, child indices —
/// is checked here, so materialization is infallible offset arithmetic.
/// Damage inside a record is Corruption; damage to the framing itself
/// (prefix, region length, offset table) is DataLoss: structurally the
/// bytes cannot be an intention.
Status FlatIntentionView::ParseBody() {
  const char* p = payload_.data();
  const char* limit = p + payload_.size();
  if (payload_.size() < kWireFlatPrefixBytes ||
      static_cast<uint8_t>(p[0]) != kWireFlatMagic0 ||
      static_cast<uint8_t>(p[1]) != kWireFlatMagic1) {
    return Status::DataLoss("flat intention magic mismatch");
  }
  if (static_cast<uint8_t>(p[2]) != kWireFlatVersion) {
    return Status::DataLoss("unsupported flat intention version");
  }
  p += kWireFlatPrefixBytes;

  if ((p = GetVarint64(p, limit, &snapshot_seq_)) == nullptr) {
    return Status::Corruption("truncated intention header");
  }
  if (p >= limit) return Status::Corruption("truncated isolation byte");
  const uint8_t iso_byte = static_cast<uint8_t>(*p++);
  if (iso_byte != uint8_t(IsolationLevel::kSerializable) &&
      iso_byte != uint8_t(IsolationLevel::kSnapshot)) {
    return Status::Corruption("unknown isolation level");
  }
  isolation_ = static_cast<IsolationLevel>(iso_byte);
  uint64_t tomb_count = 0;
  if ((p = GetVarint64(p, limit, &tomb_count)) == nullptr) {
    return Status::Corruption("truncated tombstone count");
  }
  for (uint64_t i = 0; i < tomb_count; ++i) {
    Tombstone t;
    uint64_t key = 0, cv = 0, ssv = 0;
    if ((p = GetVarint64(p, limit, &key)) == nullptr ||
        (p = GetVarint64(p, limit, &cv)) == nullptr ||
        (p = GetVarint64(p, limit, &ssv)) == nullptr) {
      return Status::Corruption("truncated tombstone");
    }
    t.key = key;
    t.base_cv = VersionId::FromRaw(cv);
    t.ssv = VersionId::FromRaw(ssv);
    tombstones_.push_back(t);
  }
  uint64_t node_count = 0;
  if ((p = GetVarint64(p, limit, &node_count)) == nullptr) {
    return Status::Corruption("truncated node count");
  }
  if (node_count >= (1u << VersionId::kIndexBits)) {
    return Status::Corruption("intention too large for the version id space");
  }
  node_count_ = static_cast<uint32_t>(node_count);
  uint64_t region_len = 0;
  if ((p = GetVarint64(p, limit, &region_len)) == nullptr) {
    return Status::DataLoss("truncated flat node-region length");
  }
  // The rest of the payload is exactly the node region plus the offset
  // table — one equality covers both truncation and trailing garbage.
  const uint64_t table_len = 4 * node_count;
  if (uint64_t(limit - p) != region_len + table_len) {
    return Status::DataLoss("flat intention length mismatch");
  }
  region_ = p;
  region_len_ = static_cast<size_t>(region_len);
  offsets_ = p + region_len_;
  if (node_count_ == 0 && region_len_ != 0) {
    return Status::DataLoss("flat intention node bytes without records");
  }

  uint32_t prev = 0;
  for (uint32_t i = 0; i < node_count_; ++i) {
    const uint32_t off = DecodeFixed32(offsets_ + 4 * size_t(i));
    if (i == 0 ? off != 0 : off <= prev) {
      return Status::DataLoss("flat offset table not strictly increasing");
    }
    if (off >= region_len_) {
      return Status::DataLoss("flat offset out of range");
    }
    prev = off;
  }

  // Per-record validation pass, also building the subtree-writes bitset
  // (bit i = record i altered, or any internal child's bit set).
  subtree_writes_.assign((size_t(node_count_) + 63) / 64, 0);
  for (uint32_t i = 0; i < node_count_; ++i) {
    const char* rp = nullptr;
    const char* rend = nullptr;
    RecordExtent(i, &rp, &rend);
    bool writes = false;
    uint64_t key = 0, ssv = 0, base_cv = 0, payload_len = 0;
    if (rp >= rend) return Status::Corruption("truncated node record");
    const uint8_t flags = static_cast<uint8_t>(*rp++);
    if ((rp = GetVarint64(rp, rend, &key)) == nullptr ||
        (rp = GetVarint64(rp, rend, &ssv)) == nullptr ||
        (rp = GetVarint64(rp, rend, &base_cv)) == nullptr ||
        (rp = GetVarint64(rp, rend, &payload_len)) == nullptr) {
      return Status::Corruption("truncated node fields");
    }
    if (payload_len > size_t(rend - rp)) {
      return Status::Corruption("truncated node payload");
    }
    rp += payload_len;
    if (flags & kWireAltered) writes = true;
    for (int side = 0; side < 2; ++side) {
      const bool present =
          flags & (side == 0 ? kWireLeftPresent : kWireRightPresent);
      if (!present) continue;
      const bool internal =
          flags & (side == 0 ? kWireLeftInternal : kWireRightInternal);
      uint64_t ev = 0;
      if ((rp = GetVarint64(rp, rend, &ev)) == nullptr) {
        return Status::Corruption("truncated child reference");
      }
      if (internal) {
        if (ev >= i) {
          return Status::Corruption("child index violates post-order");
        }
        if (SubtreeHasWrites(static_cast<uint32_t>(ev))) writes = true;
      } else if (VersionId::FromRaw(ev).IsNull()) {
        return Status::Corruption("null external child reference");
      }
    }
    if (rp != rend) {
      return Status::DataLoss("flat record does not fill its offset extent");
    }
    if (writes) subtree_writes_[i >> 6] |= uint64_t(1) << (i & 63);
  }

  if (node_count_ > 0) {
    slots_ = std::make_unique<std::atomic<Node*>[]>(node_count_);
  }
  return Status::OK();
}

void FlatIntentionView::RecordExtent(uint32_t index, const char** start,
                                     const char** end) const {
  *start = region_ + DecodeFixed32(offsets_ + 4 * size_t(index));
  *end = index + 1 < node_count_
             ? region_ + DecodeFixed32(offsets_ + 4 * (size_t(index) + 1))
             : region_ + region_len_;
}

/// Materializes record `index`. Child edges — internal and
/// external alike — come out lazy: an internal child carries
/// Logged(seq, child_index), the id the child materializes under, so
/// reference identity (and hence every meld decision) does not depend on
/// what has been materialized.
NodePtr FlatIntentionView::DecodeRecord(uint32_t index) const {
  const char* p = nullptr;
  const char* end = nullptr;
  RecordExtent(index, &p, &end);
  const uint8_t flags = static_cast<uint8_t>(*p++);
  uint64_t key = 0, ssv = 0, base_cv = 0, payload_len = 0;
  p = GetVarint64(p, end, &key);
  p = GetVarint64(p, end, &ssv);
  p = GetVarint64(p, end, &base_cv);
  p = GetVarint64(p, end, &payload_len);
  NodePtr n = MakeNode(key, std::string_view(p, payload_len));
  p += payload_len;
  n->set_vn(VersionId::Logged(seq_, index));
  n->set_owner(seq_);
  n->set_ssv(VersionId::FromRaw(ssv));
  n->set_base_cv(VersionId::FromRaw(base_cv));
  n->set_color((flags & kWireRed) ? Color::kRed : Color::kBlack);
  uint8_t nf = 0;
  if (flags & kWireAltered) nf |= kFlagAltered;
  if (flags & kWireRead) nf |= kFlagRead;
  if (flags & kWireSubtreeRead) nf |= kFlagSubtreeRead;
  if (SubtreeHasWrites(index)) nf |= kFlagSubtreeHasWrites;
  n->set_flags(nf);
  n->set_cv(n->altered() ? n->vn() : n->base_cv());
  for (int side = 0; side < 2; ++side) {
    const bool present =
        flags & (side == 0 ? kWireLeftPresent : kWireRightPresent);
    if (!present) continue;
    const bool internal =
        flags & (side == 0 ? kWireLeftInternal : kWireRightInternal);
    uint64_t ev = 0;
    p = GetVarint64(p, end, &ev);
    ChildSlot& slot = side == 0 ? n->left() : n->right();
    slot.Rewire(Ref::Lazy(internal
                              ? VersionId::Logged(seq_,
                                                  static_cast<uint32_t>(ev))
                              : VersionId::FromRaw(ev)));
  }
  return n;
}

NodePtr FlatIntentionView::NodeAt(uint32_t index) const {
  if (index >= node_count_) return nullptr;
  if (Node* hit = slots_[index].load(std::memory_order_acquire)) {
    return NodePtr::Share(hit);
  }
  NodePtr built = DecodeRecord(index);
  Node* raw = built.get();
  Node* expected = nullptr;
  NodeRef(raw);  // The slot's own strong reference.
  if (slots_[index].compare_exchange_strong(expected, raw,
                                            std::memory_order_acq_rel)) {
    // relaxed: a statistics counter; publication ordering for the node is
    // carried by the acq_rel CAS on the slot, not by this increment.
    materialized_.fetch_add(1, std::memory_order_relaxed);
    return built;
  }
  // Lost the publication race: discard our build, adopt the winner's.
  NodeUnref(raw);
  return NodePtr::Share(expected);
}

NodePtr FlatIntentionView::Root() const {
  return node_count_ == 0 ? NodePtr() : NodeAt(node_count_ - 1);
}

NodePtr Intention::ResolveFlat(VersionId vn) const {
  if (!vn.IsLogged()) return nullptr;
  for (const auto& [member_seq, view] : flats) {
    if (member_seq == vn.intention_seq()) return view->NodeAt(vn.node_index());
  }
  return nullptr;
}

}  // namespace hyder
