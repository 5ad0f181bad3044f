#include "meld/premeld.h"

#include "txn/flat_view.h"

namespace hyder {

namespace {

/// Nodes of `intent` that exist in the pool: whatever its views have
/// materialized so far. An intention built in memory rather than decoded
/// has no views, and all of its nodes exist.
uint64_t MaterializedNodes(const Intention& intent) {
  if (intent.flats.empty()) return intent.node_count;
  uint64_t n = 0;
  for (const auto& [seq, view] : intent.flats) n += view->materialized();
  return n;
}

}  // namespace

Result<PremeldOutcome> RunPremeld(const IntentionPtr& intent,
                                  StateTable& states, int threads,
                                  int distance, EphemeralAllocator* alloc,
                                  NodeResolver* resolver, MeldWork* work,
                                  bool disable_graft_fastpath) {
  PremeldOutcome out;
  const uint64_t m = PremeldTargetSeq(intent->seq, threads, distance);
  if (intent->snapshot_seq >= m) {
    // The premeld input is older than (or equal to) the snapshot: there is
    // no premeld conflict zone to check (Algorithm 1, line 3).
    out.intention = intent;
    out.skipped = true;
    return out;
  }
  HYDER_ASSIGN_OR_RETURN(DatabaseState sm, states.WaitFor(m));

  MeldContext ctx;
  ctx.out_tag = intent->seq | kPremeldTagBit;
  ctx.alloc = alloc;
  ctx.resolver = resolver;
  ctx.work = work;
  ctx.mode = MeldMode::kState;
  ctx.disable_graft_fastpath = disable_graft_fastpath;
  HYDER_ASSIGN_OR_RETURN(MeldResult melded, Meld(ctx, *intent, sm.root));

  if (melded.conflict) {
    auto aborted = std::make_shared<Intention>(*intent);
    aborted->known_aborted = true;
    // Provenance: the decision-level cause is "premeld kill"; the conflict
    // the premeld proved (write-write, phantom, ...) rides in `conflict`.
    // The zone bound is the premeld input state — the newest intention the
    // conflicting writer can be.
    aborted->abort_info = melded.abort;
    aborted->abort_info.cause = AbortCause::kAbortPremeldKill;
    aborted->abort_info.stage = AbortStage::kPremeld;
    aborted->abort_info.blamed_seq = sm.seq;
    out.killed_nodes = intent->node_count;
    out.killed_nodes_materialized = MaterializedNodes(*intent);
    out.intention = std::move(aborted);
    return out;
  }

  auto substitute = std::make_shared<Intention>();
  substitute->seq = intent->seq;
  substitute->seq_first = intent->seq_first;
  substitute->txn_id = intent->txn_id;
  // The substitute "executed against" the premeld input state (§3.3: the
  // output of meld is the transaction <S_m, S_out>).
  substitute->snapshot_seq = sm.seq;
  substitute->isolation = intent->isolation;
  substitute->root = std::move(melded.root);
  // Tombstones carry forward: their conflict checks must also cover the
  // post-premeld zone, and final meld re-applies them idempotently.
  substitute->tombstones = intent->tombstones;
  substitute->inside = intent->inside;
  substitute->inside.push_back(ctx.out_tag);
  substitute->node_count = intent->node_count;
  substitute->members = intent->members;
  substitute->block_count = intent->block_count;
  // Flat views ride along so final meld can still materialize lazy member
  // edges that premeld never touched.
  substitute->flats = intent->flats;
  out.intention = std::move(substitute);
  return out;
}

}  // namespace hyder
