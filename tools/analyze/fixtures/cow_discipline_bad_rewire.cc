// hyder-check fixture: seeded cow-discipline violations of the slot
// vocabulary. `ChildSlot::Rewire` is a plain store, legal only on a
// private node; outside the COW/meld/build allowlists it must be flagged.
// Analyzed by selftest.py; never compiled.
#include <cstdint>

struct Node;

struct Ref {
  Node* node;
  uint64_t vn;
};

struct ChildSlot {
  void Rewire(Ref r);
};

struct Node {
  ChildSlot& left();
  ChildSlot& child(bool right);
};

// Rewiring a published node's edge races a reader memoizing the same
// slot, and both sides are atomics, so no sanitizer reports it.
void SpliceShared(Node* n, Node* target) {
  n->left().Rewire(Ref{target, 0});  // expect: cow-discipline
}

// Through a slot reference the call is the same store.
void DetachShared(Node* n, bool right) {
  ChildSlot& slot = n->child(right);
  slot.Rewire(Ref{nullptr, 0});  // expect: cow-discipline
}
