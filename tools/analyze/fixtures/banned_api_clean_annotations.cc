// hyder-check fixture: the annotated wrappers are the one place the raw
// std primitives may appear. Analyzed by selftest.py; never compiled.
// fixture-path: src/common/thread_annotations.h
class Mutex {
  std::mutex mu_;
};

class CondVar {
  void Wait(Mutex& mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
  }
  std::condition_variable cv_;
};
