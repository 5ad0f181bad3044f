#ifndef HYDER2_MELD_PREMELD_H_
#define HYDER2_MELD_PREMELD_H_

#include "common/metrics.h"
#include "meld/meld.h"
#include "meld/state_table.h"
#include "txn/intention.h"

namespace hyder {

/// Outcome of one premeld invocation.
struct PremeldOutcome {
  /// The intention final meld should process: either the refreshed
  /// substitute (melded against the premeld input state, §3.2), the
  /// original when premeld was skipped, or the original marked
  /// `known_aborted` when premeld already found the conflict.
  IntentionPtr intention;
  /// True when the target state preceded the transaction's snapshot and the
  /// trial meld was pointless (Algorithm 1, line 3).
  bool skipped = false;
  /// When premeld found the conflict (the intention dies here): the wire
  /// node count of the killed intention, and how many of those nodes were
  /// actually materialized into the pool. The second number is typically
  /// far below the first — the churn the zero-copy layout avoids.
  uint64_t killed_nodes = 0;
  uint64_t killed_nodes_materialized = 0;
};

/// Algorithm 1 (PREMELD): trial-melds `intent` against the state produced
/// by intention `PremeldTargetSeq(intent->seq, t, d)`, which it obtains from
/// `states` (blocking until final meld publishes it).
///
/// On success the result is a substitute intention whose snapshot is the
/// premeld input state: most of the conflict zone has been checked and
/// merged already, so final meld only processes the short post-premeld zone
/// (Fig. 5, Fig. 12). The substitute's `inside` set gains the premeld
/// output tag so final meld treats premeld-created ephemeral nodes as part
/// of the intention.
Result<PremeldOutcome> RunPremeld(const IntentionPtr& intent,
                                  StateTable& states, int threads,
                                  int distance, EphemeralAllocator* alloc,
                                  NodeResolver* resolver, MeldWork* work,
                                  bool disable_graft_fastpath = false);

}  // namespace hyder

#endif  // HYDER2_MELD_PREMELD_H_
