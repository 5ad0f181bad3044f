// hyder-check fixture: seeded lock-inventory violations — locks the meld
// hot path does not list. Analyzed by selftest.py; never compiled.
// fixture-path: src/meld/state_table.h
class StateTable {
  // The two listed members.
  mutable Mutex mu_;
  CondVar published_;
  // Unlisted: a stats lock and a drain signal next to them.
  Mutex stats_mu_;  // expect: lock-inventory
  CondVar drained_;  // expect: lock-inventory
  // A listed name declared twice counts twice.
  Mutex mu_;  // expect: lock-inventory
};

// Not only members: a function-local or global lock is a lock too.
void Drain() {
  static Mutex drain_mu;  // expect: lock-inventory
}
