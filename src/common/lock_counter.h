#ifndef HYDER2_COMMON_LOCK_COUNTER_H_
#define HYDER2_COMMON_LOCK_COUNTER_H_

#include <cstdint>

namespace hyder {

/// Thread-local count of resolver-internal lock acquisitions.
///
/// Every NodeResolver implementation bumps this counter once per internal
/// mutex acquisition (shard locks, ephemeral-registry lane locks, the
/// test registry's map lock). Because the counter is thread-local, a stage
/// can charge itself exactly the resolver locking it performed — the meld
/// pipeline snapshots the delta across final meld to expose how much shared-
/// structure locking sits on the critical path (PipelineStats::
/// fm_resolver_locks). The paper's premise is that OCC throughput dies on
/// exactly this kind of cross-thread serialization, so the reproduction
/// measures it rather than asserting it.
///
/// The counter is monotonic and free of ordering obligations; it exists
/// purely for measurement and never feeds back into control flow.
inline uint64_t& ResolverLockCounterRef() {
  thread_local uint64_t count = 0;
  return count;
}

/// Called by resolver implementations on each internal lock acquisition.
inline void BumpResolverLockCount() { ++ResolverLockCounterRef(); }

/// Reads the calling thread's cumulative count.
inline uint64_t ResolverLockCount() { return ResolverLockCounterRef(); }

}  // namespace hyder

#endif  // HYDER2_COMMON_LOCK_COUNTER_H_
