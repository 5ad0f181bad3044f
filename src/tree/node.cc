#include "tree/node.h"

#include <cstring>
#include <new>
#include <vector>

#include "tree/node_pool.h"

namespace hyder {

// DESIGN.md "Memory management" documents these sizes: the pool's slot
// stride and the per-slot cost of a wide extent.
static_assert(sizeof(Node) == 144, "Node slot size changed");
static_assert(sizeof(WideSlot) == 80, "WideSlot size changed");

NodePtr MakeNode(Key key, std::string_view payload) {
  return NodePtr::Adopt(new (AllocateNodeSlot()) Node(key, payload));
}

NodePtr MakeWideNode(int fanout) {
  return NodePtr::Adopt(new (AllocateNodeSlot()) Node(CreateWideExt(fanout)));
}

void NodeUnref(Node* n) {
  if (n == nullptr) return;
  if (n->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Destroy iteratively: dropping a large state must not recurse to the
  // tree height times the cascade depth.
  std::vector<Node*> dead;
  dead.push_back(n);
  while (!dead.empty()) {
    Node* d = dead.back();
    dead.pop_back();
    const int children = d->child_count();
    for (int i = 0; i < children; ++i) {
      ChildSlot& slot = d->child_at(i);
      Node* c = slot.node_.exchange(nullptr, std::memory_order_acq_rel);
      if (c != nullptr &&
          c->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        dead.push_back(c);
      }
    }
    d->~Node();
    ReleaseNodeSlot(d);
  }
}

// --- Payload store ----------------------------------------------------------

void PayloadStore::Set(std::string_view p) {
  const uint32_t size = static_cast<uint32_t>(p.size());
  if (size <= kNodeInlinePayloadCap) {
    char* old_heap = heap_cap_ != 0 ? buf_.heap : nullptr;
    // Copy before freeing: `p` may alias the old heap buffer.
    if (size != 0) std::memmove(buf_.inline_buf, p.data(), size);
    if (old_heap != nullptr) {
      delete[] old_heap;
      CountPayloadHeapFree();
      heap_cap_ = 0;
    }
  } else if (heap_cap_ >= size) {
    std::memmove(buf_.heap, p.data(), size);
  } else {
    char* buf = new char[size];
    CountPayloadHeapAlloc();
    std::memcpy(buf, p.data(), size);
    FreeHeap();
    buf_.heap = buf;
    heap_cap_ = size;
  }
  size_ = size;
}

void PayloadStore::StealFrom(PayloadStore& o) {
  FreeHeap();
  buf_ = o.buf_;
  size_ = o.size_;
  heap_cap_ = o.heap_cap_;
  o.size_ = 0;
  o.heap_cap_ = 0;
}

void PayloadStore::FreeHeap() {
  if (heap_cap_ != 0) {
    delete[] buf_.heap;
    CountPayloadHeapFree();
    heap_cap_ = 0;
  }
}

// --- Wide extension ---------------------------------------------------------

void WideSlot::MoveFrom(WideSlot& o) {
  key = o.key;
  meta = o.meta;
  payload_.StealFrom(o.payload_);
}

void WideSlot::CopyFrom(const WideSlot& o) {
  key = o.key;
  meta = o.meta;
  set_payload(o.payload());
}

void WideSlot::Clear() {
  set_payload({});
  key = 0;
  meta = WideSlotMeta{};
}

void WideExt::OpenSlot(int pos) {
  for (int j = count_; j > pos; --j) slots_[j].MoveFrom(slots_[j - 1]);
  for (int j = count_ + 1; j > pos + 1; --j) {
    children_[j].Reset(children_[j - 1].GetLocal());
    gap_read_[j] = gap_read_[j - 1];
  }
  children_[pos + 1].Reset(Ref::Null());
  gap_read_[pos + 1] = 0;
  slots_[pos].Clear();
  ++count_;
}

void WideExt::CloseSlot(int pos, int child_pos) {
  const uint8_t merged = gap_read_[pos] | gap_read_[pos + 1];
  for (int j = pos; j < count_ - 1; ++j) slots_[j].MoveFrom(slots_[j + 1]);
  for (int j = child_pos; j < count_; ++j) {
    children_[j].Reset(children_[j + 1].GetLocal());
    gap_read_[j] = gap_read_[j + 1];
  }
  children_[count_].Reset(Ref::Null());
  gap_read_[count_] = 0;
  slots_[count_ - 1].Clear();
  gap_read_[pos] = merged;
  --count_;
}

size_t WideExtentBytes(int cap) {
  return sizeof(WideExt) + sizeof(WideSlot) * static_cast<size_t>(cap) +
         sizeof(ChildSlot) * static_cast<size_t>(cap + 1) +
         static_cast<size_t>(cap + 1);
}

WideExt* CreateWideExt(int fanout) {
  void* block = AllocateWideExtent(fanout);
  auto* ext = new (block) WideExt();
  ext->cap_ = static_cast<uint16_t>(fanout);
  char* p = static_cast<char*>(block) + sizeof(WideExt);
  ext->slots_ = reinterpret_cast<WideSlot*>(p);
  for (int i = 0; i < fanout; ++i) new (&ext->slots_[i]) WideSlot();
  p += sizeof(WideSlot) * static_cast<size_t>(fanout);
  ext->children_ = reinterpret_cast<ChildSlot*>(p);
  for (int i = 0; i <= fanout; ++i) new (&ext->children_[i]) ChildSlot();
  p += sizeof(ChildSlot) * static_cast<size_t>(fanout + 1);
  ext->gap_read_ = reinterpret_cast<uint8_t*>(p);
  std::memset(ext->gap_read_, 0, static_cast<size_t>(fanout + 1));
  return ext;
}

void DestroyWideExt(WideExt* ext) {
  // NodeUnref already detached materialized children (iterative teardown),
  // but extents can also die before publication with edges still wired.
  for (int i = 0; i < ext->cap_; ++i) ext->slots_[i].~WideSlot();
  for (int i = 0; i <= ext->cap_; ++i) ext->children_[i].~ChildSlot();
  const int fanout = ext->cap_;
  ext->~WideExt();
  ReleaseWideExtent(ext, fanout);
}

Result<NodePtr> ChildSlot::Get(NodeResolver* resolver) const {
  Node* n = node_.load(std::memory_order_acquire);
  if (n != nullptr) return NodePtr::Share(n);
  if (vn_.IsNull()) return NodePtr();
  if (resolver == nullptr) {
    return Status::Internal("lazy reference " + vn_.ToString() +
                            " with no resolver");
  }
  HYDER_ASSIGN_OR_RETURN(NodePtr fetched, resolver->Resolve(vn_));
  if (!fetched) {
    return Status::Corruption("resolver returned null for " + vn_.ToString());
  }
  // Memoize. If another thread won the race, drop our fetch and use theirs.
  Node* expected = nullptr;
  Node* raw = fetched.get();
  NodeRef(raw);  // The slot's strong reference.
  if (node_.compare_exchange_strong(expected, raw,
                                    std::memory_order_acq_rel)) {
    return fetched;
  }
  NodeUnref(raw);  // Lost the race; release the slot's would-be reference.
  return NodePtr::Share(expected);
}

}  // namespace hyder
