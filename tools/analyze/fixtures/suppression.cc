// hyder-check fixture: every violation below carries a suppression in one
// of the documented forms, so the driver must report zero findings for
// this file. selftest.py runs the full driver on it (suppressions are a
// driver feature, not a rule feature); never compiled.
//
// File-wide form:
// hyder-check: allow-file(cow-discipline): fixture exercises other rules
#include <atomic>
#include <cstdint>
#include <string>

std::atomic<uint64_t> g_counter{0};

struct Node {
  void set_payload(const std::string& p);
};

// Covered by the allow-file(cow-discipline) above.
void PatchInPlaceFileWide(Node* n) {
  n->set_payload("x");
}

uint64_t PrecedingLineForm() {
  // hyder-check: allow(ordering-rationale): fixture — preceding-line form
  return g_counter.load(std::memory_order_relaxed);
}

uint64_t SameLineForm() {
  return g_counter.load(std::memory_order_relaxed);  // hyder-check: allow(ordering-rationale): same-line form
}
