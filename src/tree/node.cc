#include "tree/node.h"

#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

#include "tree/node_pool.h"

namespace hyder {

// DESIGN.md "Memory management" documents this size: the pool's slot
// stride.
static_assert(sizeof(Node) == 128, "Node slot size changed");

NodePtr MakeNode(Key key, std::string_view payload) {
  // DESIGN.md "Node layout & concurrency contract": a descent step reads
  // the key and one child slot, so they lead the node, ahead of the
  // version ids. (Checked here because MakeNode may name private fields.)
  static_assert(offsetof(Node, key_) < offsetof(Node, left_) &&
                    offsetof(Node, left_) < offsetof(Node, right_) &&
                    offsetof(Node, right_) < offsetof(Node, vn_),
                "Node field order changed: key_, left_, right_ must precede "
                "the version ids");
  return NodePtr::Adopt(new (AllocateNodeSlot()) Node(key, payload));
}

void DestroyNode(Node* n) {
  // Destroy iteratively: dropping a large state must not recurse to the
  // tree height times the cascade depth. The worklist is a stack array
  // that spills to the heap only when full; a depth-first teardown holds
  // about one pending sibling per tree level, so balanced trees never
  // spill, and the common case (one node, or a short path) allocates
  // nothing. `spill` holds the newest entries whenever it is non-empty, so
  // the two together pop in LIFO order.
  constexpr size_t kInline = 64;
  Node* dead[kInline];
  size_t top = 0;
  std::vector<Node*> spill;
  dead[top++] = n;
  while (top > 0) {
    Node* d;
    if (!spill.empty()) {
      d = spill.back();
      spill.pop_back();
    } else {
      d = dead[--top];
    }
    for (ChildSlot* slot : {&d->left_, &d->right_}) {
      // relaxed: `d` is exclusive. Its count reached zero through an
      // acq_rel decrement, which every earlier holder's release (and any
      // memoization CAS into its slots) happened-before, and no reference
      // is left through which another thread could reach it.
      Node* c = slot->node_.load(std::memory_order_relaxed);
      slot->node_.store(nullptr, std::memory_order_relaxed);
      if (c != nullptr &&
          c->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (top < kInline) {
          dead[top++] = c;
        } else {
          spill.push_back(c);
        }
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

void PayloadStore::FreeHeap() {
  if (heap_cap_ != 0) {
    delete[] buf_.heap;
    CountPayloadHeapFree();
    heap_cap_ = 0;
  }
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
  // If another thread won the race, our fetch is dropped for theirs.
  return NodePtr::Share(Memoize(std::move(fetched)));
}

}  // namespace hyder
