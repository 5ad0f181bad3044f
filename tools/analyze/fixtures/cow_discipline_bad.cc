// hyder-check fixture: seeded cow-discipline violations. This file is
// outside the COW/meld/build allowlists, so in-place node mutation here
// must be flagged. Analyzed by selftest.py; never compiled.
#include <cstdint>
#include <string>

struct Node {
  void set_payload(const std::string& p);
  void set_flags(uint8_t f);
};

// A published node mutated in place: readers can see the torn write with
// no way to detect it.
void PatchPublished(Node* n) {
  n->set_payload("x");  // expect: cow-discipline
}

// Transaction metadata is node content too: a flag set in place on a
// shared node leaks into every state that holds it.
void FlagPublished(Node* n) {
  n->set_flags(1);  // expect: cow-discipline
}
