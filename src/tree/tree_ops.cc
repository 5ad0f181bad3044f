#include "tree/tree_ops.h"

#include <cassert>

namespace hyder {

namespace {

/// One step of a root-to-node descent: the (cloned, private) node plus the
/// direction taken from it to reach the next entry.
struct PathEntry {
  NodePtr node;
  bool right;
};

Result<NodePtr> ResolveRefValue(const Ref& r, NodeResolver* resolver) {
  if (r.node) return r.node;
  if (r.vn.IsNull()) return NodePtr();
  if (resolver == nullptr) {
    return Status::Internal("lazy root reference with no resolver");
  }
  return resolver->Resolve(r.vn);
}

void BumpVisited(const CowContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->nodes_visited;
}
void BumpCreated(const CowContext& ctx) {
  if (ctx.stats != nullptr) ++ctx.stats->nodes_created;
}

/// Links `n` into the slot the descent would have placed it: the last path
/// entry's taken-direction child, or the tree root when the path is empty.
void Attach(const std::vector<PathEntry>& path, const NodePtr& n,
            Ref* newroot) {
  if (path.empty()) {
    *newroot = Ref::To(n);
  } else {
    path.back().node->child(path.back().right).Rewire(Ref::To(n));
  }
}

/// Attach for a descent step that read `cur` from the last path entry's
/// slot and made `c = CloneForWrite(cur)`: when `c` is `cur` (already
/// private) it already sits in that slot, so only the root needs linking.
void AttachIfCloned(const std::vector<PathEntry>& path, const NodePtr& cur,
                    const NodePtr& c, Ref* newroot) {
  if (c.get() != cur.get() || path.empty()) Attach(path, c, newroot);
}

/// Replaces the node at path position `idx` with `n` in its parent's slot
/// (or as the root when idx == 0).
void AttachAt(const std::vector<PathEntry>& path, size_t idx,
              const NodePtr& n, Ref* newroot) {
  if (idx == 0) {
    *newroot = Ref::To(n);
  } else {
    path[idx - 1].node->child(path[idx - 1].right).Rewire(Ref::To(n));
  }
}

/// Like AttachAt but accepts an arbitrary (possibly null or lazy) edge.
void AttachRefAt(const std::vector<PathEntry>& path, size_t idx, Ref r,
                 Ref* newroot) {
  if (idx == 0) {
    *newroot = std::move(r);
  } else {
    path[idx - 1].node->child(path[idx - 1].right).Rewire(std::move(r));
  }
}

/// Restores the red-black root invariant after rebalancing. The root is
/// always a private clone here, so the recolor is safe.
void BlackenRoot(const Ref& root) {
  if (root.node && root.node->color() != Color::kBlack) {
    root.node->set_color(Color::kBlack);
  }
}

Status InsertFixup(const CowContext& ctx, std::vector<PathEntry>& path,
                   Ref* newroot) {
  size_t i = path.size() - 1;  // Index of the (red) node that may violate.
  while (i >= 2) {
    NodePtr z = path[i].node;
    NodePtr p = path[i - 1].node;
    if (p->color() == Color::kBlack) break;
    NodePtr g = path[i - 2].node;
    const bool p_side = path[i - 2].right;  // Direction g -> p.
    const bool z_side = path[i - 1].right;  // Direction p -> z.
    HYDER_ASSIGN_OR_RETURN(NodePtr u, g->child(!p_side).Get(ctx.resolver));
    if (u && u->color() == Color::kRed) {
      // Red uncle: recolor and move the violation two levels up. The uncle
      // must be cloned because recoloring is a mutation.
      p->set_color(Color::kBlack);
      HYDER_ASSIGN_OR_RETURN(NodePtr uc, CloneForWrite(ctx, u));
      uc->set_color(Color::kBlack);
      g->child(!p_side).Rewire(Ref::To(uc));
      g->set_color(Color::kRed);
      i -= 2;
      continue;
    }
    if (z_side != p_side) {
      // Inner (zig-zag): rotate p so the chain g -> z -> p is outer.
      p->child(z_side).Rewire(z->child(p_side).GetLocal());
      z->child(p_side).Rewire(Ref::To(p));
      g->child(p_side).Rewire(Ref::To(z));
      // Outer rotation around g with z as the middle node.
      g->child(p_side).Rewire(z->child(!p_side).GetLocal());
      z->child(!p_side).Rewire(Ref::To(g));
      z->set_color(Color::kBlack);
      g->set_color(Color::kRed);
      AttachAt(path, i - 2, z, newroot);
    } else {
      // Outer (zig-zig): single rotation around g.
      g->child(p_side).Rewire(p->child(!p_side).GetLocal());
      p->child(!p_side).Rewire(Ref::To(g));
      p->set_color(Color::kBlack);
      g->set_color(Color::kRed);
      AttachAt(path, i - 2, p, newroot);
    }
    break;
  }
  BlackenRoot(*newroot);
  return Status::OK();
}

/// Repairs the "double black" deficit sitting at the `x_side` child of
/// `path.back()`. Standard CLRS cases, expressed over private clones.
Status DeleteFixup(const CowContext& ctx, std::vector<PathEntry>& path,
                   bool x_side, Ref* newroot) {
  // Trees produced by meld mix subtrees from different balanced trees and
  // may violate the red-black color invariants; the classic repair could
  // then cycle. Bound the loop: on overrun we keep a valid (possibly less
  // balanced) BST, deterministically.
  int budget = static_cast<int>(path.size()) * 4 + 64;
  while (budget-- > 0) {
    NodePtr p = path.back().node;
    HYDER_ASSIGN_OR_RETURN(NodePtr s0, p->child(!x_side).Get(ctx.resolver));
    if (!s0) {
      // Impossible in a color-valid tree, but meld-produced trees may
      // violate the invariants: accept the residual imbalance.
      break;
    }
    HYDER_ASSIGN_OR_RETURN(NodePtr s, CloneForWrite(ctx, s0));
    p->child(!x_side).Rewire(Ref::To(s));
    if (s->color() == Color::kRed) {
      // Case A: red sibling. Rotate p toward the deficit so the new sibling
      // is black, then retry.
      p->child(!x_side).Rewire(s->child(x_side).GetLocal());
      s->child(x_side).Rewire(Ref::To(p));
      s->set_color(Color::kBlack);
      p->set_color(Color::kRed);
      AttachAt(path, path.size() - 1, s, newroot);
      path.back() = PathEntry{s, x_side};
      path.push_back(PathEntry{p, x_side});
      continue;
    }
    HYDER_ASSIGN_OR_RETURN(NodePtr sn, s->child(x_side).Get(ctx.resolver));
    HYDER_ASSIGN_OR_RETURN(NodePtr sf, s->child(!x_side).Get(ctx.resolver));
    const bool near_red = sn && sn->color() == Color::kRed;
    bool far_red = sf && sf->color() == Color::kRed;
    if (!near_red && !far_red) {
      // Case B: both of the sibling's children are black. Recolor the
      // sibling red; either absorb the deficit at a red parent or push it up.
      s->set_color(Color::kRed);
      if (p->color() == Color::kRed) {
        p->set_color(Color::kBlack);
        break;
      }
      path.pop_back();
      if (path.empty()) break;  // Deficit reached the root: absorbed.
      x_side = path.back().right;
      continue;
    }
    if (!far_red) {
      // Case C: near child red, far child black. Rotate the sibling away
      // from the deficit so the far child becomes red.
      HYDER_ASSIGN_OR_RETURN(NodePtr snc, CloneForWrite(ctx, sn));
      s->child(x_side).Rewire(snc->child(!x_side).GetLocal());
      snc->child(!x_side).Rewire(Ref::To(s));
      snc->set_color(Color::kBlack);
      s->set_color(Color::kRed);
      p->child(!x_side).Rewire(Ref::To(snc));
      s = snc;
      HYDER_ASSIGN_OR_RETURN(sf, s->child(!x_side).Get(ctx.resolver));
    }
    // Case D: far child red. Rotate p toward the deficit; done.
    HYDER_ASSIGN_OR_RETURN(NodePtr sfc, CloneForWrite(ctx, sf));
    s->child(!x_side).Rewire(Ref::To(sfc));
    p->child(!x_side).Rewire(s->child(x_side).GetLocal());
    s->child(x_side).Rewire(Ref::To(p));
    s->set_color(p->color());
    p->set_color(Color::kBlack);
    sfc->set_color(Color::kBlack);
    AttachAt(path, path.size() - 1, s, newroot);
    break;
  }
  BlackenRoot(*newroot);
  return Status::OK();
}

}  // namespace

Result<NodePtr> CloneForWrite(const CowContext& ctx, const NodePtr& n) {
  if (!n) return NodePtr();
  assert(ctx.owner != 0 && "CowContext.owner must be non-zero");
  if (n->owner() == ctx.owner) return n;  // Already private to this context.
  NodePtr m = MakeNode(n->key(), n->payload());
  m->set_color(n->color());
  m->set_owner(ctx.owner);
  bool preserve = false;
  if (ctx.preserve_owners != nullptr) {
    for (uint64_t tag : *ctx.preserve_owners) {
      if (n->owner() == tag) {
        preserve = true;
        break;
      }
    }
  }
  if (preserve) {
    m->set_ssv(n->ssv());
    m->set_base_cv(n->base_cv());
    m->set_cv(n->cv());
    m->set_flags(n->flags());
  } else {
    m->set_ssv(n->vn());
    m->set_base_cv(n->cv());
    m->set_cv(n->cv());
    m->set_flags(0);
  }
  m->left().Rewire(n->left().GetLocal());
  m->right().Rewire(n->right().GetLocal());
  if (ctx.vn_alloc != nullptr) ctx.vn_alloc->Assign(m);
  BumpCreated(ctx);
  return m;
}

Result<Ref> TreeInsert(const CowContext& ctx, const Ref& root, Key key,
                       std::string_view payload, bool* existed) {
  std::vector<PathEntry> path;
  Ref newroot = Ref::Null();
  HYDER_ASSIGN_OR_RETURN(NodePtr cur, ResolveRefValue(root, ctx.resolver));
  bool found = false;
  while (cur) {
    BumpVisited(ctx);
    HYDER_ASSIGN_OR_RETURN(NodePtr c, CloneForWrite(ctx, cur));
    AttachIfCloned(path, cur, c, &newroot);
    if (key == c->key()) {
      c->set_payload(std::move(payload));
      c->set_flags(c->flags() | kFlagAltered);
      c->set_cv(VersionId());  // Provisional; becomes the node's own logged
                               // vn when the intention is deserialized.
      found = true;
      path.push_back(PathEntry{c, false});
      break;
    }
    const bool dir = key > c->key();
    path.push_back(PathEntry{c, dir});
    HYDER_ASSIGN_OR_RETURN(cur, c->child(dir).Get(ctx.resolver));
  }
  if (existed != nullptr) *existed = found;
  if (!found) {
    NodePtr fresh = MakeNode(key, std::move(payload));
    fresh->set_owner(ctx.owner);
    fresh->set_flags(kFlagAltered);
    fresh->set_color(Color::kRed);
    if (ctx.vn_alloc != nullptr) ctx.vn_alloc->Assign(fresh);
    BumpCreated(ctx);
    Attach(path, fresh, &newroot);
    path.push_back(PathEntry{fresh, false});
    HYDER_RETURN_IF_ERROR(InsertFixup(ctx, path, &newroot));
  }
  return newroot;
}

Result<Ref> TreeRemove(const CowContext& ctx, const Ref& root, Key key,
                       bool* removed, VersionId* removed_base_cv,
                       VersionId* removed_ssv) {
  // Probe first so a miss leaves the tree untouched (no path copies for a
  // no-op delete).
  {
    HYDER_ASSIGN_OR_RETURN(NodePtr probe, ResolveRefValue(root, ctx.resolver));
    bool present = false;
    while (probe) {
      BumpVisited(ctx);
      if (probe->key() == key) {
        present = true;
        break;
      }
      HYDER_ASSIGN_OR_RETURN(
          probe, probe->child(key > probe->key()).Get(ctx.resolver));
    }
    if (!present) {
      if (removed != nullptr) *removed = false;
      return root;
    }
  }
  if (removed != nullptr) *removed = true;

  std::vector<PathEntry> path;
  Ref newroot = Ref::Null();
  HYDER_ASSIGN_OR_RETURN(NodePtr cur, ResolveRefValue(root, ctx.resolver));
  NodePtr z;
  while (true) {
    HYDER_ASSIGN_OR_RETURN(NodePtr c, CloneForWrite(ctx, cur));
    Attach(path, c, &newroot);
    if (key == c->key()) {
      z = c;
      path.push_back(PathEntry{c, false});
      break;
    }
    const bool dir = key > c->key();
    path.push_back(PathEntry{c, dir});
    HYDER_ASSIGN_OR_RETURN(cur, c->child(dir).Get(ctx.resolver));
  }
  if (removed_base_cv != nullptr) *removed_base_cv = z->base_cv();
  if (removed_ssv != nullptr) *removed_ssv = z->ssv();

  if (!z->left().IsNullEdge() && !z->right().IsNullEdge()) {
    // Two children: clone down to the successor and relocate its identity
    // into z's position; the successor's old node becomes the splice target.
    size_t iz = path.size() - 1;
    path[iz].right = true;
    HYDER_ASSIGN_OR_RETURN(cur, z->right().Get(ctx.resolver));
    NodePtr y;
    while (true) {
      HYDER_ASSIGN_OR_RETURN(NodePtr c, CloneForWrite(ctx, cur));
      Attach(path, c, &newroot);
      HYDER_ASSIGN_OR_RETURN(NodePtr l, c->left().Get(ctx.resolver));
      if (!l) {
        y = c;
        path.push_back(PathEntry{c, false});
        break;
      }
      path.push_back(PathEntry{c, false});
      cur = l;
    }
    // Relocate y's key, payload and transaction metadata into z. z keeps its
    // color and children; the relocated version keeps its provenance so the
    // successor key's conflict history is preserved.
    z->set_payload(y->payload());
    z->set_ssv(y->ssv());
    z->set_base_cv(y->base_cv());
    z->set_cv(y->cv());
    z->set_flags(y->flags());
    z->set_key_for_relocation(y->key());
  }

  // Splice out the node at the end of the path (≤ 1 child).
  NodePtr t = path.back().node;
  Ref childref =
      !t->left().IsNullEdge() ? t->left().GetLocal() : t->right().GetLocal();
  const size_t it = path.size() - 1;
  const bool was_black = t->color() == Color::kBlack;
  AttachRefAt(path, it, childref, &newroot);
  path.pop_back();

  if (!was_black) {
    BlackenRoot(newroot);
    return newroot;
  }
  // Removing a black node unbalances black heights. A red child absorbs it;
  // otherwise run the full double-black repair.
  if (!childref.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(NodePtr c, ResolveRefValue(childref, ctx.resolver));
    if (c->color() == Color::kRed) {
      HYDER_ASSIGN_OR_RETURN(NodePtr cc, CloneForWrite(ctx, c));
      cc->set_color(Color::kBlack);
      if (path.empty()) {
        newroot = Ref::To(cc);
      } else {
        AttachAt(path, path.size(), cc, &newroot);
      }
      BlackenRoot(newroot);
      return newroot;
    }
  }
  if (path.empty()) {
    BlackenRoot(newroot);
    return newroot;  // Removed the root; the whole tree lost one black level.
  }
  const bool x_side = path.back().right;
  HYDER_RETURN_IF_ERROR(DeleteFixup(ctx, path, x_side, &newroot));
  return newroot;
}

Result<Ref> TreeLookup(const CowContext& ctx, const Ref& root, Key key,
                       std::optional<std::string>* payload) {
  *payload = std::nullopt;
  if (!ctx.annotate_reads) {
    // The caller's root owns the tree for the whole walk, and a slot of a
    // node it reaches is never cleared, only memoized, so the descent
    // borrows each node instead of counting a reference to it. Only a lazy
    // root, which no slot holds, is owned here; `Get` at a lazy edge
    // memoizes into the slot, which then owns the fetched node.
    NodePtr lazy_root;
    const Node* cur = root.node.get();
    if (cur == nullptr) {
      HYDER_ASSIGN_OR_RETURN(lazy_root, ResolveRefValue(root, ctx.resolver));
      cur = lazy_root.get();
    }
    while (cur != nullptr) {
      BumpVisited(ctx);
      if (key == cur->key()) {
        *payload = cur->payload();
        return root;
      }
      const ChildSlot& slot = cur->child(key > cur->key());
      cur = slot.Peek();
      if (cur == nullptr && !slot.vn().IsNull()) {
        HYDER_ASSIGN_OR_RETURN(NodePtr fetched, slot.Get(ctx.resolver));
        cur = fetched.get();
      }
    }
    return root;
  }
  // Serializable: the search path is copied into the intention; the target
  // carries kFlagRead, and on a miss the fall-off node carries
  // kFlagSubtreeRead so a concurrent insert of `key` is detected as a
  // phantom. (Reads against a completely empty tree have no node to
  // annotate; that corner is inherently covered only once the transaction
  // also writes, because its insert then roots the whole tree.)
  Ref newroot = root;
  HYDER_ASSIGN_OR_RETURN(NodePtr cur, ResolveRefValue(root, ctx.resolver));
  if (!cur) return newroot;
  // The copied path hangs from `newroot`, which owns every node on it, so
  // only the current parent is kept, borrowed, with the side taken from it.
  Node* parent = nullptr;
  bool dir = false;
  while (true) {
    BumpVisited(ctx);
    HYDER_ASSIGN_OR_RETURN(NodePtr c, CloneForWrite(ctx, cur));
    if (parent == nullptr) {
      newroot = Ref::To(c);
    } else if (c.get() != cur.get()) {
      // A node already private to `ctx` sits in its parent's slot.
      parent->child(dir).Rewire(Ref::To(c));
    }
    if (key == c->key()) {
      c->set_flags(c->flags() | kFlagRead);
      *payload = c->payload();
      return newroot;
    }
    dir = key > c->key();
    HYDER_ASSIGN_OR_RETURN(NodePtr nxt, c->child(dir).Get(ctx.resolver));
    if (!nxt) {
      c->set_flags(c->flags() | kFlagSubtreeRead);
      return newroot;
    }
    parent = c.get();
    cur = std::move(nxt);
  }
}

namespace {

/// In-order collection of an entire (shared) subtree.
Status CollectAll(NodeResolver* resolver, const NodePtr& n,
                  std::vector<std::pair<Key, std::string>>* out) {
  if (!n) return Status::OK();
  HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(resolver));
  HYDER_RETURN_IF_ERROR(CollectAll(resolver, l, out));
  out->emplace_back(n->key(), n->payload());
  HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(resolver));
  return CollectAll(resolver, r, out);
}

/// Recursive scan worker over the subtree rooted at `n` (non-null).
/// `lb`/`ub` are the exclusive key bounds implied by the ancestors. Child
/// edges resolve through `ChildSlot::Get`, so a repeated scan resolves
/// nothing. Returns the annotated copy of `n` when `ctx.annotate_reads`,
/// else null.
Result<NodePtr> ScanRec(const CowContext& ctx, const NodePtr& n, Key lo,
                        Key hi, std::optional<Key> lb, std::optional<Key> ub,
                        std::vector<std::pair<Key, std::string>>* out) {
  BumpVisited(ctx);

  if (ctx.annotate_reads) {
    const bool low_ok = (lo == 0) || (lb.has_value() && *lb >= lo - 1);
    const bool high_ok =
        (hi == ~Key{0}) || (ub.has_value() && *ub <= hi + 1);
    if (low_ok && high_ok) {
      // Maximal fully-contained subtree: annotate only its root with the
      // structural read flag and collect values from the shared children.
      HYDER_ASSIGN_OR_RETURN(NodePtr c, CloneForWrite(ctx, n));
      c->set_flags(c->flags() | kFlagSubtreeRead | kFlagRead);
      HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(ctx.resolver));
      HYDER_RETURN_IF_ERROR(CollectAll(ctx.resolver, l, out));
      out->emplace_back(n->key(), n->payload());
      HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(ctx.resolver));
      HYDER_RETURN_IF_ERROR(CollectAll(ctx.resolver, r, out));
      return c;
    }
  }

  NodePtr c;
  if (ctx.annotate_reads) {
    HYDER_ASSIGN_OR_RETURN(c, CloneForWrite(ctx, n));
  }
  // Left.
  if (lo < n->key()) {
    HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(ctx.resolver));
    if (!l) {
      // A null gap that intersects the scanned range: a concurrent insert
      // here would be a phantom, and it creates a new version of *this*
      // node, so depend on this node's structure.
      if (c) c->set_flags(c->flags() | kFlagSubtreeRead);
    } else {
      HYDER_ASSIGN_OR_RETURN(NodePtr cl,
                             ScanRec(ctx, l, lo, hi, lb, n->key(), out));
      if (c) c->left().Rewire(Ref::To(cl));
    }
  }
  // Self.
  if (n->key() >= lo && n->key() <= hi) {
    out->emplace_back(n->key(), n->payload());
    if (c) c->set_flags(c->flags() | kFlagRead);
  }
  // Right.
  if (hi > n->key()) {
    HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(ctx.resolver));
    if (!r) {
      if (c) c->set_flags(c->flags() | kFlagSubtreeRead);
    } else {
      HYDER_ASSIGN_OR_RETURN(NodePtr cr,
                             ScanRec(ctx, r, lo, hi, n->key(), ub, out));
      if (c) c->right().Rewire(Ref::To(cr));
    }
  }
  return c;
}

}  // namespace

Result<Ref> TreeRangeScan(const CowContext& ctx, const Ref& root, Key lo,
                          Key hi,
                          std::vector<std::pair<Key, std::string>>* out) {
  if (lo > hi) return root;
  HYDER_ASSIGN_OR_RETURN(NodePtr n, ResolveRefValue(root, ctx.resolver));
  if (!n) return root;
  HYDER_ASSIGN_OR_RETURN(
      NodePtr c, ScanRec(ctx, n, lo, hi, std::nullopt, std::nullopt, out));
  return c ? Ref::To(c) : root;
}

}  // namespace hyder
