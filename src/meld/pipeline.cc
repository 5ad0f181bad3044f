#include "meld/pipeline.h"

#include "common/lock_counter.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace hyder {

namespace {

/// Charges the meld thread's resolver lock acquisitions to
/// `stats->fm_resolver_locks` across a scope (thread-local counter delta,
/// so concurrent premeld workers' resolver traffic is not misattributed).
class MeldThreadLockDelta {
 public:
  explicit MeldThreadLockDelta(PipelineStats* stats)
      : stats_(stats), start_(ResolverLockCount()) {}
  ~MeldThreadLockDelta() {
    stats_->fm_resolver_locks += ResolverLockCount() - start_;
  }

 private:
  PipelineStats* const stats_;
  const uint64_t start_;
};
/// Ephemeral thread-id assignment: final meld is thread 0, group meld is
/// thread 1, premeld threads are 2..t+1. The slots are fixed (independent
/// of t) so that any two engines running the same (t, d, group)
/// configuration — sequential or multithreaded — generate identical
/// two-part ephemeral identities (§3.4).
constexpr uint32_t kFinalMeldThreadId = 0;
constexpr uint32_t kGroupMeldThreadId = 1;
constexpr uint32_t kPremeldThreadIdBase = 2;
}  // namespace

AbortInfo MakeAdmissionRejectAbort() {
  AbortInfo a;
  a.cause = AbortCause::kAbortBusy;
  a.conflict = AbortCause::kAbortBusy;
  a.stage = AbortStage::kAdmission;
  return a;
}

void SequentialPipeline::NoteAbort(const MeldDecision& d) {
  stats_.RecordAbort(d.abort);
  if (d.abort.key_kind == AbortKeyKind::kUserKey) {
    contention_.Offer(d.abort.key);
  }
  TraceInstant(TraceStage::kAbort, d.seq,
               static_cast<uint32_t>(d.abort.cause));
}

SequentialPipeline::SequentialPipeline(
    const PipelineConfig& config, DatabaseState initial,
    NodeResolver* resolver, std::function<void(const NodePtr&)> registrar)
    : config_(config),
      states_(config.state_retention, initial),
      resolver_(resolver),
      fm_alloc_(kFinalMeldThreadId),
      gm_alloc_(kGroupMeldThreadId) {
  fm_alloc_.registrar = registrar;
  gm_alloc_.registrar = registrar;
  for (int t = 0; t < config_.premeld_threads; ++t) {
    pm_allocs_.push_back(std::make_unique<EphemeralAllocator>(
        kPremeldThreadIdBase + uint32_t(t)));
    pm_allocs_.back()->registrar = registrar;
  }
  // Zero blocks up to initial.seq (no history when bootstrapping from a
  // checkpoint: pre-checkpoint conflict-zone block counts are unknown and
  // irrelevant — premeld targets beyond retention fail with SnapshotTooOld
  // as they would on any server).
  block_prefix_.push_back(0);
  next_seq_ = states_.Latest().seq + 1;
  published_seq_ = states_.Latest().seq;
  // Config echo (see ConfigEcho): each knob is stamped where it is
  // consumed. Retention is consumed right here, at state-table
  // construction.
  ConfigEcho echo;
  echo.state_retention = static_cast<int64_t>(config_.state_retention);
  stats_.config_echo.Observe(echo);
}

uint64_t SequentialPipeline::BlocksUpTo(uint64_t seq) const {
  if (seq >= next_seq_) return block_prefix_.back();
  const uint64_t oldest = next_seq_ - block_prefix_.size();
  return block_prefix_[seq > oldest ? seq - oldest : 0];
}

std::vector<uint64_t> SequentialPipeline::EphemeralCounters() const {
  std::vector<uint64_t> counters;
  counters.reserve(2 + pm_allocs_.size());
  counters.push_back(fm_alloc_.next_seq());
  counters.push_back(gm_alloc_.next_seq());
  for (const auto& a : pm_allocs_) counters.push_back(a->next_seq());
  return counters;
}

void SequentialPipeline::RestoreEphemeralCounters(
    const std::vector<uint64_t>& counters) {
  if (counters.size() > 0) fm_alloc_.set_next_seq(counters[0]);
  if (counters.size() > 1) gm_alloc_.set_next_seq(counters[1]);
  for (size_t t = 0; t + 2 < counters.size() && t < pm_allocs_.size(); ++t) {
    pm_allocs_[t]->set_next_seq(counters[t + 2]);
  }
}

Result<std::vector<MeldDecision>> SequentialPipeline::Process(
    IntentionPtr intent) {
  // Checked ahead of premeld too: at t > 0 premeld of an out-of-order
  // sequence would wait for a state this thread never publishes.
  HYDER_RETURN_IF_ERROR(CheckNextSeq(intent->seq));
  HYDER_ASSIGN_OR_RETURN(intent, Premeld(std::move(intent), &stats_));
  return Meld(std::move(intent));
}

Result<IntentionPtr> SequentialPipeline::Decode(
    const IntentionAssembler::Completed& raw, PipelineStats* stats) const {
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kDecode, raw.seq));
  }
  TraceSpan span(TraceStage::kDecode, raw.seq);
  CpuStopwatch cpu;
  HYDER_ASSIGN_OR_RETURN(
      IntentionPtr intent,
      DeserializeIntention(raw.payload, raw.seq, raw.block_count,
                           raw.txn_id));
  stats->deserialize.cpu_nanos += cpu.ElapsedNanos();
  stats->deserialize.nodes_visited += intent->node_count;
  return intent;
}

Result<IntentionPtr> SequentialPipeline::Premeld(IntentionPtr intent,
                                                 PipelineStats* stats) {
  {
    ConfigEcho echo;
    echo.premeld_threads = config_.premeld_threads;
    echo.premeld_distance = config_.premeld_distance;
    stats->config_echo.Observe(echo);
  }
  if (config_.premeld_threads == 0 || intent->known_aborted) return intent;
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kPremeld, intent->seq));
  }
  const int thread = PremeldThreadFor(intent->seq, config_.premeld_threads);
  TraceSpan span(TraceStage::kPremeld, intent->seq);
  CpuStopwatch cpu;
  MeldWork work;
  HYDER_ASSIGN_OR_RETURN(
      PremeldOutcome out,
      RunPremeld(intent, states_, config_.premeld_threads,
                 config_.premeld_distance, pm_allocs_[thread].get(),
                 resolver_, &work, config_.disable_graft_fastpath));
  work.cpu_nanos = cpu.ElapsedNanos();
  stats->premeld += work;
  if (out.skipped) stats->premeld_skips++;
  if (out.intention->known_aborted) stats->premeld_aborts++;
  stats->premeld_killed_nodes += out.killed_nodes;
  stats->premeld_killed_nodes_materialized += out.killed_nodes_materialized;
  return std::move(out.intention);
}

Status SequentialPipeline::CheckNextSeq(uint64_t seq) const {
  if (seq == next_seq_) return Status::OK();
  return Status::InvalidArgument(
      "pipeline requires consecutive sequences; got " + std::to_string(seq));
}

Status SequentialPipeline::NoteFed(uint64_t txn_id) {
  FedTxns& fed = fed_txns_[TxnOrigin(txn_id)];
  if (txn_id > fed.mark) {
    // Slide the window up to txn_id, clearing the ids it leaves behind.
    if (txn_id - fed.mark >= kFedTxnWindow) {
      fed.seen.reset();
    } else {
      for (uint64_t id = fed.mark + 1; id < txn_id; ++id) {
        fed.seen.reset(id % kFedTxnWindow);
      }
    }
    fed.mark = txn_id;
  } else if (fed.mark - txn_id >= kFedTxnWindow) {
    return Status::OK();
  } else if (fed.seen.test(txn_id % kFedTxnWindow)) {
    return Status::Internal(
        "transaction " + std::to_string(txn_id) +
        " reached the meld pipeline twice — a retried append was not "
        "deduplicated and would commit twice");
  }
  fed.seen.set(txn_id % kFedTxnWindow);
  return Status::OK();
}

Result<std::vector<MeldDecision>> SequentialPipeline::Meld(
    IntentionPtr intent) {
  MeldThreadLockDelta lock_delta(&stats_);
  HYDER_RETURN_IF_ERROR(CheckNextSeq(intent->seq));
  // (Txn id 0 is only used by codec-level tests that feed bare intentions;
  // real servers always stamp a nonzero (server id, local seq) id.)
  if (intent->txn_id != 0) HYDER_RETURN_IF_ERROR(NoteFed(intent->txn_id));
  block_prefix_.push_back(block_prefix_.back() + intent->block_count);
  if (block_prefix_.size() > config_.state_retention) block_prefix_.pop_front();
  ++next_seq_;
  stats_.intentions++;
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kHandoff, intent->seq));
  }
  {
    ConfigEcho echo;
    echo.group_meld = config_.group_meld ? 1 : 0;
    stats_.config_echo.Observe(echo);
  }
  if (!config_.group_meld) return FinalMeld(std::move(intent));
  // --- Group meld stage (§4): pair odd seq with the following even seq. ---
  if (!pending_group_) {
    pending_group_ = std::move(intent);
    return std::vector<MeldDecision>{};
  }
  IntentionPtr first = std::move(pending_group_);
  pending_group_ = nullptr;
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kGroupMeld, intent->seq));
  }
  TraceSpan span(TraceStage::kGroupMeld, intent->seq);
  CpuStopwatch cpu;
  MeldWork work;
  HYDER_ASSIGN_OR_RETURN(
      GroupOutcome out,
      RunGroupMeld(first, intent, &gm_alloc_, resolver_, &work));
  work.cpu_nanos = cpu.ElapsedNanos();
  stats_.group_meld += work;

  std::vector<MeldDecision> decisions;
  if (out.second_aborted) {
    // The later member conflicted with the earlier one inside the pair (or
    // was already premeld-aborted): it aborts now; the earlier one proceeds
    // alone as the group intention.
    decisions.push_back(
        MeldDecision{intent->seq, intent->txn_id, false, out.second_abort});
    NoteAbort(decisions.back());
    stats_.aborted++;
    stats_.group_singletons++;
  }
  if (out.intention == nullptr) {
    // Both members were already known (from premeld) to abort.
    for (const IntentionPtr& member : {first, intent}) {
      for (const auto& [seq, txn] : member->members) {
        decisions.push_back(
            MeldDecision{seq, txn, false, member->abort_info});
        NoteAbort(decisions.back());
        stats_.aborted++;
      }
    }
    PublishUpTo(intent->seq, states_.Latest().root);
    return decisions;
  }
  if (out.intention->members.size() == 1 && !out.second_aborted &&
      out.intention.get() == intent.get() && first->known_aborted) {
    decisions.push_back(
        MeldDecision{first->seq, first->txn_id, false, first->abort_info});
    NoteAbort(decisions.back());
    stats_.aborted++;
  }
  HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> fm,
                         FinalMeld(out.intention));
  // Guarantee states exist for every sequence up to the pair's end even
  // when the group collapsed to its first member.
  PublishUpTo(intent->seq, states_.Latest().root);
  decisions.insert(decisions.end(), fm.begin(), fm.end());
  return decisions;
}

Result<std::vector<MeldDecision>> SequentialPipeline::Flush() {
  MeldThreadLockDelta lock_delta(&stats_);
  if (!pending_group_) return std::vector<MeldDecision>{};
  IntentionPtr last = std::move(pending_group_);
  pending_group_ = nullptr;
  stats_.group_singletons++;
  return FinalMeld(std::move(last));
}

void SequentialPipeline::PublishUpTo(uint64_t seq, const Ref& root) {
  while (published_seq_ < seq) {
    ++published_seq_;
    states_.Publish(DatabaseState{published_seq_, root});
    TraceInstant(TraceStage::kPublish, published_seq_);
  }
}

Result<std::vector<MeldDecision>> SequentialPipeline::FinalMeld(
    IntentionPtr intent) {
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kFinalMeld, intent->seq));
  }
  std::vector<MeldDecision> decisions;
  if (intent->known_aborted) {
    // Premeld already proved the conflict; final meld skips the intention
    // entirely (§3.1) and the state passes through unchanged.
    for (const auto& [seq, txn] : intent->members) {
      decisions.push_back(MeldDecision{seq, txn, false, intent->abort_info});
      NoteAbort(decisions.back());
      stats_.aborted++;
    }
    PublishUpTo(intent->seq, states_.Latest().root);
    return decisions;
  }

  TraceSpan span(TraceStage::kFinalMeld, intent->seq);
  DatabaseState latest = states_.Latest();
  MeldContext ctx;
  ctx.out_tag = intent->seq | kFinalTagBit;
  ctx.alloc = &fm_alloc_;
  ctx.resolver = resolver_;
  MeldWork work;
  ctx.work = &work;
  ctx.mode = MeldMode::kState;
  ctx.output_is_state = true;
  ctx.disable_graft_fastpath = config_.disable_graft_fastpath;
  {
    ConfigEcho echo;
    echo.disable_graft_fastpath = config_.disable_graft_fastpath ? 1 : 0;
    stats_.config_echo.Observe(echo);
  }
  CpuStopwatch cpu;
  HYDER_ASSIGN_OR_RETURN(MeldResult melded,
                         hyder::Meld(ctx, *intent, latest.root));
  work.cpu_nanos = cpu.ElapsedNanos();
  stats_.final_meld += work;
  stats_.final_melds++;
  stats_.conflict_zone_sum +=
      block_prefix_.back() - BlocksUpTo(intent->snapshot_seq);

  const Ref& new_root = melded.conflict ? latest.root : melded.root;
  AbortInfo abort = melded.abort;
  abort.stage = AbortStage::kFinalMeld;
  abort.blamed_seq = latest.seq;
  if (intent->members.size() > 1) {
    // A group intention aborts as a unit (§4 fate sharing): the members'
    // decision-level cause is fate sharing; the conflict the meld actually
    // proved stays in `conflict` (and the key fields still name it).
    abort.cause = AbortCause::kAbortGroupFateSharing;
  }
  for (const auto& [seq, txn] : intent->members) {
    if (melded.conflict) {
      decisions.push_back(MeldDecision{seq, txn, false, abort});
      NoteAbort(decisions.back());
      stats_.aborted++;
    } else {
      decisions.push_back(MeldDecision{seq, txn, true, AbortInfo{}});
      stats_.committed++;
    }
  }
  PublishUpTo(intent->seq, new_root);
  return decisions;
}

}  // namespace hyder
