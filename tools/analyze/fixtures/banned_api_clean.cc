// hyder-check fixture: idioms banned-api must accept in the one library
// file that spawns threads. Analyzed by selftest.py; never compiled.
// fixture-path: src/meld/threaded_pipeline.cc

// The annotated wrappers, not std::mutex / std::lock_guard; a string
// literal is not a call: "printf(" and "std::cout".
class Pipeline {
  void Start() { threads_.emplace_back([] {}); }
  void Fail(const char* what) {
    MutexLock lock(mu_);
    snprintf(error_, sizeof(error_), "failed: %s", what);
    std::this_thread::yield();
  }

  Mutex mu_;
  CondVar done_;
  char error_[64] GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
};
