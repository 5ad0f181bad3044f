#ifndef HYDER2_TREE_NODE_H_
#define HYDER2_TREE_NODE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "tree/node_pool.h"
#include "tree/version_id.h"

namespace hyder {

/// Keys are fixed-width integers, as in the paper's YCSB-style evaluation
/// (4-byte keys, §6.1); we use 64 bits to allow large key spaces.
using Key = uint64_t;

/// Per-node transaction metadata flags (§2, Appendix A).
enum NodeFlags : uint8_t {
  /// The transaction wrote this node's payload ("Altered").
  kFlagAltered = 1u << 0,
  /// The transaction read this node's payload under an isolation level that
  /// validates reads ("DependsOn").
  kFlagRead = 1u << 1,
  /// The transaction depends on the *entire subtree* under this node being
  /// structurally unchanged. Set by range scans on maximal subtrees fully
  /// contained in the scanned interval; this is the phantom-avoidance
  /// metadata Appendix A alludes to.
  kFlagSubtreeRead = 1u << 2,
  /// In-memory only (computed at deserialization, propagated through meld
  /// outputs): some node in this subtree was altered/inserted by the
  /// transaction. Lets the meld graft fast-path apply the paper's §3.3
  /// distinction — read-only matching subtrees return the *base* side when
  /// the output is a state ([8]'s original line 7) and the *intention* side
  /// when the output feeds another meld (the §3.3 modification).
  kFlagSubtreeHasWrites = 1u << 3,
};

enum class Color : uint8_t { kRed = 0, kBlack = 1 };

class Node;

/// Increments the reference count. `n` may be null.
inline void NodeRef(Node* n);
/// Decrements the reference count, destroying the node (and unreferencing
/// its children, iteratively) when it reaches zero. `n` may be null.
inline void NodeUnref(Node* n);
/// NodeUnref's out-of-line tail: destroys `n`, whose count just reached
/// zero, and every descendant that only it held (tree/node.cc).
void DestroyNode(Node* n);

/// Intrusive refcounted smart pointer to an immutable tree node.
///
/// Hyder's database states are persistent trees that share structure across
/// versions; nodes are freed when the last state or intention referencing
/// them is released. Reference counts are atomic because executor threads
/// traverse snapshots while the meld pipeline publishes new states.
class NodePtr {
 public:
  NodePtr() = default;
  NodePtr(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  /// Adopts an existing reference (does NOT increment). Use `NodePtr::Share`
  /// to copy-and-increment from a raw pointer.
  static NodePtr Adopt(Node* n) { return NodePtr(n); }
  static NodePtr Share(Node* n) {
    NodeRef(n);
    return NodePtr(n);
  }

  NodePtr(const NodePtr& o) : n_(o.n_) { NodeRef(n_); }
  NodePtr(NodePtr&& o) noexcept : n_(o.n_) { o.n_ = nullptr; }
  NodePtr& operator=(const NodePtr& o) {
    if (this != &o) {
      NodeRef(o.n_);
      NodeUnref(n_);
      n_ = o.n_;
    }
    return *this;
  }
  NodePtr& operator=(NodePtr&& o) noexcept {
    if (this != &o) {
      NodeUnref(n_);
      n_ = o.n_;
      o.n_ = nullptr;
    }
    return *this;
  }
  ~NodePtr() { NodeUnref(n_); }

  Node* get() const { return n_; }
  Node* operator->() const { return n_; }
  Node& operator*() const { return *n_; }
  explicit operator bool() const { return n_ != nullptr; }

  /// Releases ownership without decrementing.
  Node* Release() {
    Node* n = n_;
    n_ = nullptr;
    return n;
  }

  void Reset() {
    NodeUnref(n_);
    n_ = nullptr;
  }

  friend bool operator==(const NodePtr& a, const NodePtr& b) {
    return a.n_ == b.n_;
  }
  friend bool operator==(const NodePtr& a, std::nullptr_t) {
    return a.n_ == nullptr;
  }

 private:
  explicit NodePtr(Node* n) : n_(n) {}
  Node* n_ = nullptr;
};

/// A child-edge value: the identity of the target plus, when materialized,
/// a strong pointer to it.
///
/// States:
///  * null edge:      `!node && vn.IsNull()`
///  * materialized:   `node != nullptr` (vn may be null for provisional
///                    nodes the executor has built but not yet logged)
///  * lazy:           `!node && vn.IsLogged()` — the paper's "node pointer
///                    left as a log position; if dereferenced later, fetched
///                    from the log" (§5.2). Ephemeral targets are never left
///                    lazy because ephemeral nodes cannot be refetched.
struct Ref {
  NodePtr node;
  VersionId vn;

  Ref() = default;
  Ref(NodePtr n, VersionId v) : node(std::move(n)), vn(v) {}
  static Ref Null() { return Ref(); }
  static Ref Lazy(VersionId v) { return Ref(nullptr, v); }
  /// A materialized reference to `n` (shares ownership).
  static Ref To(const NodePtr& n);

  bool IsNull() const { return !node && vn.IsNull(); }
  bool IsLazy() const { return !node && !vn.IsNull(); }
};

/// Resolves lazy references. Implemented by the server layer on top of the
/// block cache and the ephemeral-node registry.
class NodeResolver {
 public:
  virtual ~NodeResolver() = default;

  /// Returns the materialized node for `vn`. Fails with:
  ///  * `SnapshotTooOld` — `vn` is ephemeral and retired from the registry;
  ///  * `NotFound` / `Corruption` — log-level failures.
  virtual Result<NodePtr> Resolve(VersionId vn) = 0;
};

/// A child slot inside a node. Holds a strong reference when materialized.
///
/// After a node is published (logged or melded into a state), the only legal
/// mutation is the lazy→materialized memoization, which is a CAS and safe
/// under concurrent readers. Before publication (executor- or meld-private
/// nodes), `Rewire` may change the edge freely.
class ChildSlot {
 public:
  ChildSlot() = default;
  // relaxed: the destructor runs with exclusive access; any concurrent
  // lazy->materialized CAS happened-before the last reference was dropped.
  ~ChildSlot() { NodeUnref(node_.load(std::memory_order_relaxed)); }

  ChildSlot(const ChildSlot&) = delete;
  ChildSlot& operator=(const ChildSlot&) = delete;

  /// Snapshot of the edge without fetching (may be lazy).
  Ref GetLocal() const {
    Node* n = node_.load(std::memory_order_acquire);
    if (n != nullptr) return Ref(NodePtr::Share(n), vn_);
    return Ref(nullptr, vn_);
  }

  /// Materialized target (null NodePtr if the edge is null). Fetches through
  /// `resolver` and memoizes on first use.
  Result<NodePtr> Get(NodeResolver* resolver) const;

  /// The materialized target without taking a reference (null when the
  /// edge is lazy or null). The pointer stays valid while the caller holds
  /// this slot's node: a published slot is never cleared, only memoized.
  Node* Peek() const { return node_.load(std::memory_order_acquire); }

  /// Publishes `n` as the materialized target of a still-lazy edge — the
  /// same CAS `Get` performs after resolving, split out so final meld can
  /// link edges it already has nodes for without a resolver round trip.
  /// Legal on published nodes. The caller guarantees `n` is a node with
  /// this slot's vn. Adopts the caller's reference; on a lost race `n` is
  /// dropped. Returns the node the slot holds afterwards (`n` or the
  /// winner's), with no reference taken, as for `Peek`.
  Node* Memoize(NodePtr n) const {
    Node* expected = nullptr;
    Node* raw = n.get();
    if (raw == nullptr) return Peek();
    if (node_.compare_exchange_strong(expected, raw,
                                      std::memory_order_acq_rel)) {
      n.Release();  // The slot now owns the caller's reference.
      return raw;
    }
    return expected;
  }

  /// Rewires the edge. Only for private (unpublished) nodes: no other
  /// thread can reach this slot, so no `Memoize` can race the store, and
  /// whatever later publishes the node (a state table's lock, a hand-off
  /// queue, a memoization CAS on a published parent) orders it for readers.
  /// hyder-check's `cow-discipline` rule confines callers to the files that
  /// own private nodes.
  void Rewire(Ref r) {
    // relaxed: the slot is private to the calling thread (see above).
    Node* old = node_.load(std::memory_order_relaxed);
    node_.store(r.node.Release(), std::memory_order_relaxed);
    NodeUnref(old);
    vn_ = r.vn;
  }

  VersionId vn() const { return vn_; }
  bool IsNullEdge() const {
    return vn_.IsNull() && node_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  friend void DestroyNode(Node*);

  mutable std::atomic<Node*> node_{nullptr};
  VersionId vn_{};
};

/// The payload bytes of a Node: stored inline when at most
/// `kNodeInlinePayloadCap` bytes, in a heap buffer otherwise (counted in
/// ArenaStats). The invariant is that the payload lives inline exactly
/// when it fits the inline cap, so `view()` branches on the size alone.
class PayloadStore {
 public:
  PayloadStore() = default;
  ~PayloadStore() { FreeHeap(); }

  PayloadStore(const PayloadStore&) = delete;
  PayloadStore& operator=(const PayloadStore&) = delete;

  /// Invalidated by `Set`.
  std::string_view view() const {
    return size_ <= kNodeInlinePayloadCap
               ? std::string_view(buf_.inline_buf, size_)
               : std::string_view(buf_.heap, size_);
  }
  /// Copies `p` in, reusing an existing heap buffer when it is large
  /// enough. `p` may alias the current bytes.
  void Set(std::string_view p);

 private:
  void FreeHeap();

  union Buffer {
    char inline_buf[kNodeInlinePayloadCap];
    char* heap;
  } buf_;
  uint32_t size_ = 0;
  uint32_t heap_cap_ = 0;  ///< Capacity of `buf_.heap`; 0 when inline.
};

/// One immutable version of one key's node in the multi-versioned tree.
///
/// Concurrency contract (DESIGN.md "Node layout & concurrency contract"):
/// a node is mutated in place only while private — by the context whose
/// owner tag it carries (see `CloneForWrite`) or by the code building it;
/// a published node changes only through the memoization CAS of its
/// child slots, so readers need no validation.
///
/// Metadata semantics (see DESIGN.md "The meld operator"):
///  * `vn`      — this version's identity.
///  * `ssv`     — id of the same-key node in the base state this version was
///                derived from ("source structure version"); null if the key
///                was inserted by the producing transaction.
///  * `base_cv` — content version of that base node: the logged id of the
///                node that created the payload the transaction observed or
///                overwrote (the paper's SCV). Null for inserts.
///  * `cv`      — content version of *this* node: the logged id that created
///                the current payload. Equals `base_cv` when not altered.
///                Content versions are always logged ids, making content
///                conflict checks independent of meld-thread configuration.
class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Key key() const { return key_; }

  /// The payload bytes (see PayloadStore); invalidated by `set_payload`.
  std::string_view payload() const { return payload_.view(); }
  void set_payload(std::string_view p) { payload_.Set(p); }

  /// Changes the key. Only legal during the two-children deletion
  /// relocation, on a private (unpublished) clone whose metadata is being
  /// replaced wholesale by the successor's.
  void set_key_for_relocation(Key k) { key_ = k; }

  VersionId vn() const { return vn_; }
  VersionId ssv() const { return ssv_; }
  VersionId base_cv() const { return base_cv_; }
  VersionId cv() const { return cv_; }
  void set_vn(VersionId v) { vn_ = v; }
  void set_ssv(VersionId v) { ssv_ = v; }
  void set_base_cv(VersionId v) { base_cv_ = v; }
  void set_cv(VersionId v) { cv_ = v; }

  uint64_t owner() const { return owner_; }
  void set_owner(uint64_t o) { owner_ = o; }

  Color color() const { return color_; }
  void set_color(Color c) { color_ = c; }

  uint8_t flags() const { return flags_; }
  void set_flags(uint8_t f) { flags_ = f; }
  bool altered() const { return flags_ & kFlagAltered; }
  bool read_dependent() const { return flags_ & kFlagRead; }
  bool subtree_read() const { return flags_ & kFlagSubtreeRead; }
  bool subtree_has_writes() const { return flags_ & kFlagSubtreeHasWrites; }

  ChildSlot& left() { return left_; }
  ChildSlot& right() { return right_; }
  const ChildSlot& left() const { return left_; }
  const ChildSlot& right() const { return right_; }
  ChildSlot& child(bool right_side) { return right_side ? right_ : left_; }
  const ChildSlot& child(bool right_side) const {
    return right_side ? right_ : left_;
  }

  uint32_t RefCount() const { return refs_.load(std::memory_order_acquire); }

 private:
  /// Nodes live only in pool slots: MakeNode constructs one and
  /// DestroyNode destroys it when NodeUnref drops the last reference
  /// (tree/node.cc). Any other `new Node`, stack Node or `delete` fails to
  /// compile.
  friend NodePtr MakeNode(Key key, std::string_view payload);
  friend void NodeRef(Node*);
  friend void NodeUnref(Node*);
  friend void DestroyNode(Node*);

  Node(Key key, std::string_view payload) : key_(key) { payload_.Set(payload); }
  ~Node() = default;

  // A descent step compares the key and then loads one child slot, so the
  // key sits beside both slots in the node's first 48 bytes (DESIGN.md
  // "Node layout & concurrency contract"; node.cc checks the order).
  std::atomic<uint32_t> refs_{1};
  Color color_ = Color::kRed;
  uint8_t flags_ = 0;
  Key key_;
  ChildSlot left_;
  ChildSlot right_;
  VersionId vn_{};
  VersionId ssv_{};
  VersionId base_cv_{};
  VersionId cv_{};
  uint64_t owner_ = 0;
  PayloadStore payload_;
};

inline void NodeRef(Node* n) {
  // relaxed: a new reference is always created from an existing one, so
  // the count can only be raced upward; NodeUnref's release/acquire pair
  // orders destruction.
  if (n != nullptr) n->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline void NodeUnref(Node* n) {
  // Inline so that dropping a reference that is not the last one (nearly
  // every NodePtr destructor on a descent) costs no call.
  if (n != nullptr && n->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    DestroyNode(n);
  }
}

inline Ref Ref::To(const NodePtr& n) {
  return Ref(n, n ? n->vn() : VersionId());
}

/// Total count of live Node objects (for leak tests). An arena stat; see
/// `NodeArenaStats` for the full breakdown.
uint64_t LiveNodeCount();

/// Allocates a node from the slab pool, tracked by `LiveNodeCount`. All
/// node creation in the library goes through this helper.
NodePtr MakeNode(Key key, std::string_view payload);

}  // namespace hyder

#endif  // HYDER2_TREE_NODE_H_
