// hyder-check fixture: what cow-discipline accepts outside the
// COW/meld/build allowlists — reading a node, and the one change a
// published node allows, memoizing a lazy child edge through its slot.
// Analyzed by selftest.py; never compiled.
#include <cstdint>

struct Node;
struct NodeResolver;

struct ChildSlot {
  Node* Get(NodeResolver* resolver) const;
  Node* Memoize(Node* n) const;
};

struct Node {
  uint64_t key() const;
  const ChildSlot& child(bool right) const;
};

// A descent step: compare the key, resolve (and memoize) one child.
Node* Descend(const Node* n, uint64_t key, NodeResolver* resolver) {
  return n->child(key > n->key()).Get(resolver);
}

// Final meld's link: publish a node it already holds into a lazy edge.
Node* Link(const Node* n, Node* target) {
  return n->child(false).Memoize(target);
}
