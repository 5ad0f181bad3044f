#ifndef HYDER2_SERVER_SERVER_H_
#define HYDER2_SERVER_SERVER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/registry.h"
#include "meld/pipeline.h"
#include "server/resolver.h"
#include "txn/codec.h"
#include "txn/intention_builder.h"

namespace hyder {

/// Per-server configuration.
struct ServerOptions {
  int server_id = 0;
  PipelineConfig pipeline;
  ResolverOptions resolver;
  /// Admission control: maximum transactions appended but not yet decided
  /// (§5.2 — "the executer stops processing transactions if the number of
  /// transactions awaiting their outcome exceeds a configurable threshold").
  size_t max_inflight = 1600;
  /// Melds between ephemeral-registry sweeps.
  uint64_t sweep_interval = 1024;
};

/// One optimistically executing transaction (§1, steps 1–2). Obtained from
/// `HyderServer::Begin`; all operations run against the immutable snapshot
/// the server held at Begin time, accumulating effects in a private
/// intention. Hand it back via `Submit`/`Commit` to append it to the log.
class Transaction {
 public:
  Status Put(Key key, std::string value) {
    return builder_.Put(key, std::move(value));
  }
  Result<std::optional<std::string>> Get(Key key) { return builder_.Get(key); }
  Result<bool> Delete(Key key) { return builder_.Delete(key); }
  Result<std::vector<std::pair<Key, std::string>>> Scan(Key lo, Key hi) {
    return builder_.Scan(lo, hi);
  }

  uint64_t txn_id() const { return txn_id_; }
  IsolationLevel isolation() const { return builder_.isolation(); }
  bool has_writes() const { return builder_.has_writes(); }
  uint64_t snapshot_seq() const { return builder_.snapshot_seq(); }

 private:
  friend class HyderServer;
  Transaction(uint64_t txn_id, IntentionBuilder builder)
      : txn_id_(txn_id), builder_(std::move(builder)) {}

  uint64_t txn_id_;
  IntentionBuilder builder_;
};

/// One Hyder II transaction server (§5.2): executes transactions against
/// locally cached snapshots, serializes intentions into blocks on the shared
/// log, and rolls the log forward through the meld pipeline. Every server
/// sharing a log must run the same pipeline configuration (§3.4).
///
/// Thread model: `Poll` drives the deterministic `SequentialPipeline` on
/// the caller's thread, so a server's decisions and per-stage costs come
/// from one thread in log order. The class is not itself thread-safe; use
/// one instance per thread or external locking.
class HyderServer {
 public:
  /// Degraded-mode flag (lagging-server catch-up, DESIGN.md "Log truncation
  /// & catch-up"): a server that is rebuilding from a checkpoint and
  /// replaying the tail reports `kCatchingUp` and refuses new transactions
  /// with `Busy` until it rejoins at the cluster tail.
  enum class ServeState { kServing, kCatchingUp };

  HyderServer(SharedLog* log, ServerOptions options);

  /// Bootstrap constructor (see server/checkpoint.h): starts the pipeline
  /// at `initial` (a reconstructed checkpoint state) and the log cursor at
  /// `start_position`; intention sequences continue from initial.seq + 1.
  HyderServer(SharedLog* log, ServerOptions options, DatabaseState initial,
              uint64_t start_position);

  /// Starts a transaction against the latest locally-known committed state
  /// (serializable unless `isolation` says otherwise).
  Transaction Begin();
  Transaction Begin(IsolationLevel isolation);

  /// Starts a transaction against the historical state after intention
  /// `seq` — time-travel reads over the multi-versioned database. Fails
  /// with SnapshotTooOld once the state has left the retention window.
  /// Write transactions begun this way are valid too: they simply carry a
  /// long conflict zone and abort if anything they touched has changed.
  Result<Transaction> BeginAt(uint64_t seq, IsolationLevel isolation);

  struct Submitted {
    uint64_t txn_id = 0;
    /// Read-only transactions are decided immediately (they commit locally
    /// and never touch the log, §1).
    bool decided = false;
    bool committed = false;
  };

  /// Serializes and appends the transaction's intention. The outcome
  /// becomes available through `Poll`/`Outcome` once this server's meld
  /// passes the intention. Fails with `Busy` when admission control is at
  /// its in-flight limit.
  Result<Submitted> Submit(Transaction&& txn);

  /// Rolls the log forward: reads new blocks, deserializes completed
  /// intentions and runs them through the meld pipeline. Returns all
  /// decisions made (for transactions from every server).
  Result<std::vector<MeldDecision>> Poll(size_t max_intentions = SIZE_MAX);

  /// Convenience for synchronous callers: Submit, then Poll until decided.
  /// With group meld enabled a lone trailing transaction can stay paired-
  /// pending until more traffic arrives; that returns `TimedOut`.
  Result<bool> Commit(Transaction&& txn);

  /// Outcome of a locally submitted transaction, if decided.
  std::optional<bool> Outcome(uint64_t txn_id) const;

  DatabaseState LatestState() { return pipeline_.states().Latest(); }
  size_t inflight() const { return pending_.size(); }
  const PipelineStats& stats() const { return pipeline_.stats(); }
  SequentialPipeline& pipeline() { return pipeline_; }
  ServerResolver& resolver() { return resolver_; }
  const ServerOptions& options() const { return options_; }
  SharedLog* log() { return log_; }
  /// The block reassembler, owner of the per-origin txn-id records that
  /// checkpoints export and bootstrap seeds; its `pending()` is the
  /// checkpoint quiescence check.
  IntentionAssembler& assembler() { return assembler_; }
  /// The next log position this server will read.
  uint64_t next_read_position() const { return next_read_pos_; }
  /// Blocks dropped while tailing: torn/garbage blocks that fail header
  /// decoding (every server skips them identically).
  uint64_t skipped_blocks() const { return skipped_blocks_; }
  /// Retried-append duplicate blocks filtered by the assembler.
  uint64_t duplicate_blocks() const { return duplicate_blocks_; }

  ServeState serve_state() const { return serve_state_; }
  /// Transitions the degradation state machine (catch-up driver only).
  void set_serve_state(ServeState s) { serve_state_ = s; }

  /// Truncation precondition (see server/truncation.h): pins checkpoint
  /// state `state_seq` as this server's resolution floor and retires every
  /// older retained state. The pin is a complete vn -> node map of S,
  /// built by materializing S's tree while the pre-S log prefix is still
  /// readable; after truncation, lazy references below S resolve from the
  /// pin instead of the reclaimed log. Fails with SnapshotTooOld when S
  /// already left the retention window (the caller must pick a newer
  /// checkpoint) and NotFound when S is not yet published here (the caller
  /// must poll this server to the tail first).
  Status PinStateForTruncation(uint64_t state_seq);

 private:
  uint64_t NextTxnId();

  SharedLog* const log_;
  const ServerOptions options_;
  ServerResolver resolver_;
  SequentialPipeline pipeline_;
  IntentionAssembler assembler_;
  /// This server's next local sequence; `NextTxnId` raises it to the
  /// assembler's floor for this origin, so a restarted server never
  /// re-issues an id an earlier incarnation left in the log.
  uint64_t next_txn_ = 1;
  uint64_t next_read_pos_;
  ServeState serve_state_ = ServeState::kServing;
  uint64_t melds_since_sweep_ = 0;
  uint64_t skipped_blocks_ = 0;
  uint64_t duplicate_blocks_ = 0;
  std::unordered_set<uint64_t> pending_;           ///< Local undecided txns.
  std::unordered_map<uint64_t, bool> outcomes_;    ///< Local decided txns.

  /// Per-stage latency histograms (global MetricsRegistry; process
  /// lifetime). append->durable covers Submit's append loop (including
  /// retries); durable->decision covers assembly-complete to meld decision.
  LatencyHistogram* const append_to_durable_us_;
  LatencyHistogram* const durable_to_decision_us_;
  /// Durable->decision latency of *aborted* transactions, split by the
  /// stage that made the abort decision (forensics: a premeld kill decides
  /// much earlier than a final-meld conflict). Index = AbortStage; slot 0
  /// (kNone) is unused.
  LatencyHistogram* abort_decision_us_[kAbortStageCount] = {};
  /// Assembly-completion stamps by intention seq, consumed at decision
  /// time. Bounded: group meld defers at most one undecided sequence.
  std::unordered_map<uint64_t, uint64_t> durable_ts_;

  /// Publishes "server<id>.*" (pipeline stats, resolver gauges, log-tail
  /// counters) to the global registry. Snapshots must run on the thread
  /// driving this server — the class itself is single-threaded. Declared
  /// last so the provider unregisters before members are destroyed.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_SERVER_H_
