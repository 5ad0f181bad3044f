#ifndef HYDER2_TXN_CODEC_H_
#define HYDER2_TXN_CODEC_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "txn/intention.h"
#include "txn/intention_builder.h"

namespace hyder {

/// Wire format (see also DESIGN.md):
///
/// An intention serializes to a byte stream — header (txn id, snapshot seq,
/// isolation, tombstones, node count) followed by the nodes in **post-order**
/// (§5.2: "post-order ensures that each node points to children that are
/// either in the log or already serialized"; the block containing the root
/// is appended last). Each node carries its key, flags, provenance
/// (ssv/base_cv), payload, and two child references that are either
/// *internal* (the post-order index of another node in this intention) or
/// *external* (the raw VersionId of a node outside it).
///
/// The stream is chopped into fixed-size intention blocks, each with a
/// 20-byte header {txn_id, block_index, block_count, chunk_len}; blocks of
/// one intention need not be contiguous in the log (§5.1).
///
/// The payload is framed for in-place reading (DESIGN.md "Intention wire
/// format"): a magic + version prefix, the header, the node region's byte
/// length, the records, and a trailing fixed32 offset table addressing
/// every record. Deserializing builds a FlatIntentionView and materializes
/// only the root node; everything else materializes lazily on first touch
/// (txn/flat_view.h).

/// Fixed per-block header size.
constexpr size_t kBlockHeaderSize = 20;

struct BlockHeader {
  uint64_t txn_id = 0;
  uint32_t index = 0;
  uint32_t total = 0;
  uint32_t chunk_len = 0;
};

void EncodeBlockHeader(const BlockHeader& h, std::string* out);
Result<BlockHeader> DecodeBlockHeader(std::string_view block);

/// Transaction ids: the origin — the issuing server's id + 1, so no real id
/// is 0 — above a 40-bit local sequence the origin never reuses.
constexpr int kTxnLocalSeqBits = 40;
constexpr uint64_t MakeTxnId(int server_id, uint64_t local_seq) {
  return ((uint64_t(server_id) + 1) << kTxnLocalSeqBits) | local_seq;
}
constexpr uint64_t TxnOrigin(uint64_t txn_id) {
  return txn_id >> kTxnLocalSeqBits;
}
constexpr uint64_t TxnLocalSeq(uint64_t txn_id) {
  return txn_id & ((uint64_t(1) << kTxnLocalSeqBits) - 1);
}

/// Serializes the transaction accumulated in `builder` into intention
/// blocks of at most `block_size` bytes, first annotating its deferred
/// serializable reads (`IntentionBuilder::AnnotateDeferredReads`). Fails if
/// the workspace contains a foreign provisional node (a bug) or if a single
/// node exceeds a block.
Result<std::vector<std::string>> SerializeIntention(
    IntentionBuilder& builder, uint64_t txn_id, size_t block_size);

/// Parses a reassembled intention payload. `seq` is the deterministic
/// log-order sequence assigned by the assembler; node `i` receives
/// `VersionId::Logged(seq, i)` and owner tag `seq`. The intention carries
/// the payload's view in `flats`. Only the root is materialized; every
/// other node materializes on first touch, through a resolver that knows
/// the view (`Intention::ResolveFlat`). The whole payload is validated;
/// a payload without the format prefix is DataLoss.
Result<IntentionPtr> DeserializeIntention(std::string_view payload,
                                          uint64_t seq, uint32_t block_count,
                                          uint64_t txn_id = 0);

/// Reassembles intention payloads from the block stream, assigning each
/// completed intention its sequence number in completion order — the order
/// of each intention's **last** block in the log, which is identical on
/// every server and is what makes meld deterministic (§2, §5.1).
///
/// Duplicate-append filtering: an appender whose log reported `Unavailable`
/// cannot know whether its block landed, so it retries — and may land the
/// same block twice (the ambiguous-append problem). The transaction id in
/// every block header encodes the intention's (server id, local sequence)
/// pair, which the server never reuses (it issues no id below its origin's
/// `OriginRecord::floor`), so the assembler can recognize a second copy —
/// of a block already held, or of a whole intention already completed —
/// and drop it. The decision is a pure function of the block stream, so every
/// tailing server filters identically and sequence numbering stays
/// deterministic. A "duplicate" whose bytes *differ* from the original is
/// not a retry but corruption and fails loudly.
///
/// The assembler is also the one owner of per-origin state
/// (`OriginRecord`): a checkpoint exports it and a bootstrapping server
/// seeds it (`SeedOrigins`), which is all a server started mid-log needs to
/// filter exactly as the servers that read the whole log (DESIGN.md
/// "Log truncation & catch-up").
class IntentionAssembler {
 public:
  /// `first_seq` is the sequence the next completed intention receives
  /// (1 for a fresh log; checkpoint_seq + 1 when bootstrapping).
  explicit IntentionAssembler(uint64_t first_seq = 1)
      : next_seq_(first_seq) {}

  struct Completed {
    uint64_t seq = 0;
    uint64_t txn_id = 0;
    uint32_t block_count = 0;
    std::string payload;
  };

  struct FeedOutcome {
    /// Set when this block was the final piece of an intention.
    std::optional<Completed> completed;
    /// The block was a retried-append duplicate and was ignored; callers
    /// must not account the block against the intention (e.g. in the
    /// position directory).
    bool duplicate = false;
  };

  /// Feeds the block at the next log position.
  Result<FeedOutcome> AddBlock(std::string_view block);

  /// Number of intentions still awaiting blocks.
  size_t pending() const { return partial_.size(); }

  /// What the block stream has shown of one origin (`TxnOrigin`).
  struct OriginRecord {
    /// One past the highest local sequence any block header showed; the
    /// origin's server issues no id below it.
    uint64_t floor = 0;
    /// Id of the origin's most recently completed intention.
    uint64_t last = 0;
  };
  /// Every origin seen or seeded, ordered so checkpoints are canonical.
  const std::map<uint64_t, OriginRecord>& origins() const { return origins_; }

  /// Bootstrap: installs the records a checkpoint writer exported and marks
  /// each `last` completed. A server appends one block at a time and
  /// retries a block before it appends the next, and a checkpoint is cut
  /// with no partial assembly, so the only pre-checkpoint copy that can
  /// land after it is a copy of some origin's `last`: this assembler then
  /// drops exactly the copies one that read the whole log drops.
  void SeedOrigins(const std::map<uint64_t, OriginRecord>& origins);

 private:
  struct Partial {
    std::vector<std::string> chunks;
    uint32_t received = 0;
    uint32_t total = 0;
  };
  uint64_t next_seq_;
  std::unordered_map<uint64_t, Partial> partial_;
  /// Txn ids whose intentions already completed — one word per intention,
  /// the price of exactly-once assembly over an ambiguous append channel.
  std::unordered_set<uint64_t> completed_;
  std::map<uint64_t, OriginRecord> origins_;
};

}  // namespace hyder

#endif  // HYDER2_TXN_CODEC_H_
