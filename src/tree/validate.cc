#include "tree/validate.h"

#include <algorithm>
#include <optional>

namespace hyder {

namespace {

struct WalkState {
  NodeResolver* resolver;
  TreeCheck check;
  std::optional<Key> last_key;
  bool order_violation = false;
};

/// Returns the subtree's black height, or -1 on any red-black violation.
Result<int> Walk(WalkState& st, const NodePtr& n, uint32_t depth,
                 bool parent_red) {
  if (!n) return 1;  // Null leaves are black.
  st.check.node_count++;
  st.check.height = std::max(st.check.height, depth);
  const bool red = n->color() == Color::kRed;
  bool violated = parent_red && red;
  for (bool right : {false, true}) {
    const ChildSlot& slot = n->child(right);
    if (slot.Peek() == nullptr && slot.vn().IsEphemeral()) {
      st.check.lazy_ephemeral_edges++;
    }
  }

  HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(st.resolver));
  if (l && l->key() >= n->key()) st.order_violation = true;
  HYDER_ASSIGN_OR_RETURN(int bh_left, Walk(st, l, depth + 1, red));

  if (st.last_key.has_value() && *st.last_key >= n->key()) {
    st.order_violation = true;
  }
  st.last_key = n->key();

  HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(st.resolver));
  if (r && r->key() <= n->key()) st.order_violation = true;
  HYDER_ASSIGN_OR_RETURN(int bh_right, Walk(st, r, depth + 1, red));

  if (violated || bh_left < 0 || bh_right < 0 || bh_left != bh_right) {
    return -1;
  }
  return bh_left + (red ? 0 : 1);
}

}  // namespace

Result<TreeCheck> ValidateTree(NodeResolver* resolver, const Ref& root) {
  WalkState st{resolver, TreeCheck{}, std::nullopt, false};
  NodePtr r = root.node;
  if (!r && !root.vn.IsNull()) {
    if (resolver == nullptr) {
      return Status::Internal("lazy root with no resolver");
    }
    HYDER_ASSIGN_OR_RETURN(r, resolver->Resolve(root.vn));
  }
  const bool root_black = !r || r->color() == Color::kBlack;
  HYDER_ASSIGN_OR_RETURN(int bh, Walk(st, r, 1, false));
  st.check.bst_ok = !st.order_violation;
  st.check.black_height = bh;
  st.check.rb_ok = root_black && bh >= 0;
  return st.check;
}

namespace {
Status CollectRec(NodeResolver* resolver, const NodePtr& n,
                  std::vector<std::pair<Key, std::string>>* out) {
  if (!n) return Status::OK();
  HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(resolver));
  HYDER_RETURN_IF_ERROR(CollectRec(resolver, l, out));
  out->emplace_back(n->key(), n->payload());
  HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(resolver));
  return CollectRec(resolver, r, out);
}
}  // namespace

Status TreeCollect(NodeResolver* resolver, const Ref& root,
                   std::vector<std::pair<Key, std::string>>* out) {
  NodePtr r = root.node;
  if (!r && !root.vn.IsNull()) {
    if (resolver == nullptr) {
      return Status::Internal("lazy root with no resolver");
    }
    HYDER_ASSIGN_OR_RETURN(r, resolver->Resolve(root.vn));
  }
  return CollectRec(resolver, r, out);
}

Result<uint64_t> TreeCount(NodeResolver* resolver, const Ref& root) {
  HYDER_ASSIGN_OR_RETURN(TreeCheck check, ValidateTree(resolver, root));
  return check.node_count;
}

namespace {
Status ToStringRec(NodeResolver* resolver, const NodePtr& n, int indent,
                   std::string* out) {
  if (!n) return Status::OK();
  HYDER_ASSIGN_OR_RETURN(NodePtr r, n->right().Get(resolver));
  HYDER_RETURN_IF_ERROR(ToStringRec(resolver, r, indent + 2, out));
  out->append(indent, ' ');
  out->append(std::to_string(n->key()));
  out->append(n->color() == Color::kRed ? "(R)" : "(B)");
  out->append(" ");
  out->append(n->vn().ToString());
  out->append("\n");
  HYDER_ASSIGN_OR_RETURN(NodePtr l, n->left().Get(resolver));
  return ToStringRec(resolver, l, indent + 2, out);
}
}  // namespace

Result<std::string> TreeToString(NodeResolver* resolver, const Ref& root) {
  std::string out;
  NodePtr r = root.node;
  if (!r && !root.vn.IsNull()) {
    if (resolver == nullptr) {
      return Status::Internal("lazy root with no resolver");
    }
    HYDER_ASSIGN_OR_RETURN(r, resolver->Resolve(root.vn));
  }
  HYDER_RETURN_IF_ERROR(ToStringRec(resolver, r, 0, &out));
  return out;
}

Result<bool> PhysicallyEqual(NodeResolver* ra, const Ref& a, NodeResolver* rb,
                             const Ref& b, std::string* diff) {
  NodePtr na = a.node;
  if (!na && !a.vn.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(na, ra->Resolve(a.vn));
  }
  NodePtr nb = b.node;
  if (!nb && !b.vn.IsNull()) {
    HYDER_ASSIGN_OR_RETURN(nb, rb->Resolve(b.vn));
  }
  if (!na || !nb) {
    if (static_cast<bool>(na) != static_cast<bool>(nb)) {
      *diff = "null/non-null mismatch";
      return false;
    }
    return true;
  }
  if (na->vn() != nb->vn() || na->key() != nb->key() ||
      na->payload() != nb->payload() || na->color() != nb->color()) {
    *diff = "node mismatch: keys " + std::to_string(na->key()) + "/" +
            std::to_string(nb->key()) + " vns " + na->vn().ToString() + "/" +
            nb->vn().ToString();
    return false;
  }
  HYDER_ASSIGN_OR_RETURN(bool left,
                         PhysicallyEqual(ra, na->left().GetLocal(), rb,
                                         nb->left().GetLocal(), diff));
  if (!left) return false;
  return PhysicallyEqual(ra, na->right().GetLocal(), rb,
                         nb->right().GetLocal(), diff);
}

}  // namespace hyder
