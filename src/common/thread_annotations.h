#ifndef HYDER2_COMMON_THREAD_ANNOTATIONS_H_
#define HYDER2_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis (TSA) support, plus the annotated mutex the
// whole library uses.
//
// Hyder II's correctness rests on the meld pipeline being a deterministic
// function of (intention, state) pairs (§3.4): every server melds the shared
// log with the same thread layout and must produce bit-identical states. A
// single data race in the pipeline, the bounded queues or the node arena
// silently breaks that guarantee, so lock discipline here is *statically
// enforced*, not just tested:
//
//  * every mutex-protected member is declared `GUARDED_BY(mu_)`;
//  * helpers that assume the lock is held are declared `REQUIRES(mu_)`,
//    which clang verifies at every call site (the `...Locked` suffix is a
//    naming convention only; no tool checks it);
//  * builds with clang add `-Werror=thread-safety` (see CMakeLists.txt), so
//    touching guarded state without the lock fails the build.
//
// On compilers without the attributes (GCC) the macros expand to nothing and
// the wrappers behave exactly like std::mutex / std::lock_guard /
// std::condition_variable; ThreadSanitizer (-DENABLE_TSAN=ON) provides the
// dynamic complement there.
//
// The macro vocabulary mirrors the one clang documents (and Abseil/LevelDB
// ship), so the annotations read as standard TSA.

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define HYDER_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define HYDER_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define CAPABILITY(x) HYDER_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define SCOPED_CAPABILITY HYDER_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data member `x` may only be read or written while holding the given
/// mutex.
#define GUARDED_BY(x) HYDER_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member: the *pointee* is protected by the given mutex.
#define PT_GUARDED_BY(x) HYDER_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define ACQUIRED_BEFORE(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function may only be called with the given mutex(es) held; it does
/// not acquire or release them.
#define REQUIRES(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the given mutex(es).
#define ACQUIRE(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The function acquires the mutex when it returns the given value.
#define TRY_ACQUIRE(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The function must be called *without* the given mutex(es) held (it will
/// acquire them itself).
#define EXCLUDES(...) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability.
#define ASSERT_CAPABILITY(x) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the given mutex.
#define RETURN_CAPABILITY(x) \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Opts a function out of analysis (use sparingly; justify in a comment).
#define NO_THREAD_SAFETY_ANALYSIS \
  HYDER_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace hyder {

/// The library's mutex: std::mutex with TSA capability annotations.
///
/// All mutexes in src/, tests/, bench/ and examples/ must be of this type
/// (hyder-check's banned-api rule rejects the raw std primitives outside
/// this file) so their guarded data can be declared `GUARDED_BY` and the
/// analysis can prove lock discipline. Lock via `MutexLock`; direct
/// Lock/Unlock is for the rare non-scoped pattern.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// For asserting in code paths where the analysis cannot see the lock
  /// (e.g. across a callback boundary). No runtime effect.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over `Mutex` (the std::lock_guard idiom, annotated).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with `Mutex`.
///
/// `Wait` must be called with the mutex held; it atomically releases the
/// mutex while blocked and reacquires it before returning — from the
/// analysis's point of view the lock is held throughout, which is exactly
/// the invariant the caller's predicate loop relies on.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Callers loop on their predicate: `while (!pred) cv_.Wait(mu_);`. A
  /// predicate-lambda overload would hide the guarded reads from the
  /// analysis; the explicit loop keeps them in the annotated scope.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // The caller still holds the mutex.
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hyder

#endif  // HYDER2_COMMON_THREAD_ANNOTATIONS_H_
