// hyder-check fixture: the inventory covers src/meld and src/server only.
// Analyzed by selftest.py; never compiled.
// fixture-path: src/common/queue.h
class BoundedQueue {
  Mutex mu_;
  CondVar not_empty_;
};
