// hyder-check fixture: the resolver's listed locks — one per shard struct,
// one per registry lane struct, plus the pin lock — and lock *uses*, which
// are not declarations. Analyzed by selftest.py; never compiled.
// fixture-path: src/server/resolver.h
class ServerResolver {
  struct Shard {
    mutable Mutex mu;
  };
  struct alignas(64) Lane {
    mutable Mutex mu;
  };
  void Pin(Mutex& mu) REQUIRES(mu);
  void Touch() { MutexLock lock(pinned_mu_); }

  mutable Mutex pinned_mu_;
};
