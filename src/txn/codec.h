#ifndef HYDER2_TXN_CODEC_H_
#define HYDER2_TXN_CODEC_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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
/// Set in the header txn id of checkpoint blocks (server/checkpoint.h),
/// which tailing servers skip, so they never reach an assembler.
constexpr uint64_t kCheckpointTxnBit = 1ull << 63;

/// Cuts `payload` into blocks of at most `block_size` bytes, each a header
/// {txn_id, index, count, chunk length} followed by its chunk; an empty
/// payload still takes one block. `block_size` must exceed
/// kBlockHeaderSize. Intentions and checkpoints are both framed this way.
std::vector<std::string> ChopIntoBlocks(uint64_t txn_id,
                                        std::string_view payload,
                                        size_t block_size);

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
/// same block twice (the ambiguous-append problem). A server retries a
/// block before it appends the next, so a copy repeats a block of an
/// intention still being assembled or of its origin's most recently
/// completed one (`OriginRecord::last`), and txn ids, (server id, local
/// sequence) pairs the server never reuses, name both exactly. So the
/// assembler keeps nothing of a completed intention: its memory is bounded
/// by the origins plus the partial intentions. The decision is a pure
/// function of the block stream, so every tailing server filters
/// identically and sequence numbering stays deterministic. A "duplicate"
/// whose bytes *differ* from the original is corruption and fails loudly;
/// a copy of an earlier intention, which no appender writes, assembles
/// again and fails `SequentialPipeline`'s fed-txn backstop.
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
    /// Log position of each block, in block-index order (the resolver's
    /// directory entry for `seq`).
    std::vector<uint64_t> positions;
  };

  struct FeedOutcome {
    /// Set when this block was the final piece of an intention.
    std::optional<Completed> completed;
    /// The block was a retried-append duplicate and was ignored.
    bool duplicate = false;
  };

  /// Feeds the block at log position `pos`.
  Result<FeedOutcome> AddBlock(uint64_t pos, std::string_view block);

  /// Number of intentions still awaiting blocks.
  size_t pending() const { return partial_.size(); }

  /// What the block stream has shown of one origin (`TxnOrigin`).
  struct OriginRecord {
    /// One past the highest local sequence any block header showed; the
    /// origin's server issues no id below it.
    uint64_t floor = 0;
    /// Id of the origin's most recently completed intention; 0 for none.
    uint64_t last = 0;
  };
  /// Every origin seen or seeded, ordered so checkpoints are canonical.
  const std::map<uint64_t, OriginRecord>& origins() const { return origins_; }

  /// Bootstrap: installs the records a checkpoint writer exported. A
  /// checkpoint is cut with no partial assembly, so they are all the state
  /// the filter needs to drop exactly the copies an assembler that read
  /// the whole log drops.
  void SeedOrigins(const std::map<uint64_t, OriginRecord>& origins) {
    origins_ = origins;
  }

 private:
  struct Partial {
    std::vector<std::string> chunks;
    std::vector<uint64_t> positions;
    uint32_t received = 0;
    uint32_t total = 0;
  };
  uint64_t next_seq_;
  std::unordered_map<uint64_t, Partial> partial_;
  std::map<uint64_t, OriginRecord> origins_;
};

}  // namespace hyder

#endif  // HYDER2_TXN_CODEC_H_
