// hyder-check fixture: seeded cow-discipline violations. This file is
// outside the COW/meld/build allowlists, so in-place node mutation here
// must be flagged unless an OlcWriteGuard is in scope. Analyzed by
// selftest.py; never compiled.
#include <string>

struct Node {
  void set_payload(const std::string& p);
  void OlcWriteBegin();
  void OlcWriteEnd();
};

// A published node mutated in place, no guard anywhere: readers can see
// the torn write with no way to detect it.
void PatchPublished(Node* n) {
  n->set_payload("x");  // expect: cow-discipline
}

// Hand-rolled write section outside the allowlist: the guard RAII type is
// the only sanctioned spelling.
void HandRolledWriteSection(Node* n) {
  n->OlcWriteBegin();  // expect: cow-discipline
  n->set_payload("y");  // expect: cow-discipline
  n->OlcWriteEnd();  // expect: cow-discipline
}
