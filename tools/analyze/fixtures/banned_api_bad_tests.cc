// hyder-check fixture: under tests/ only the raw sync primitives are
// banned; tests spawn their own threads and own their streams. Analyzed by
// selftest.py; never compiled.
// fixture-path: tests/banned_api_bad_tests.cc
std::mutex g_mu;  // expect: banned-api

void Hammer() {
  std::thread t([] { printf("worker\n"); });
  t.join();
}
