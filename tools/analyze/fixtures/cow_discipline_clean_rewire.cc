// hyder-check fixture: what cow-discipline accepts in the slot
// vocabulary outside the COW/meld/build allowlists. A free function that
// happens to be spelled `Rewire` is not a slot call, and neither is a
// declaration; reading an edge is always legal. Analyzed by selftest.py;
// never compiled.
#include <cstdint>

struct Node;

struct ChildSlot {
  Node* Peek() const;
  uint64_t vn() const;
};

struct Node {
  const ChildSlot& child(bool right) const;
};

// A routing-table helper that shares the name: not a member call.
int Rewire(int port);

int Route(int port) { return Rewire(port); }

// Reading a slot: the borrowed target and the edge's identity.
Node* PeekChild(const Node* n, bool right) { return n->child(right).Peek(); }
