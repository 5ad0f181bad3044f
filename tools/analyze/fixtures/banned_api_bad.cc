// hyder-check fixture: seeded banned-api violations in library code.
// Analyzed by selftest.py; never compiled.
// fixture-path: src/server/banned_api_bad.cc

// Raw std primitives: invisible to -Wthread-safety.
class Registry {
  std::mutex mu_;  // expect: banned-api
  std::condition_variable cv_;  // expect: banned-api
  mutable std::shared_mutex rw_;  // expect: banned-api
};

void Locked(std::recursive_mutex& mu) {  // expect: banned-api
  std::lock_guard<std::recursive_mutex> a(mu);  // expect: banned-api
  std::unique_lock<std::recursive_mutex> b(mu);  // expect: banned-api
  std::scoped_lock c(mu);  // expect: banned-api
}

// Ad-hoc threads outside meld/threaded_pipeline.
void Spawn() {
  std::thread t([] {});  // expect: banned-api
  std::jthread j([] {});  // expect: banned-api
}

// Stream dumps in the library, every spelling.
void Dump(int hits) {
  printf("hits=%d\n", hits);  // expect: banned-api
  std::printf("hits=%d\n", hits);  // expect: banned-api
  fprintf(stderr, "hits=%d\n", hits);  // expect: banned-api
  std::cout << hits;  // expect: banned-api
  std::cerr << hits;  // expect: banned-api
}
