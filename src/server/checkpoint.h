#ifndef HYDER2_SERVER_CHECKPOINT_H_
#define HYDER2_SERVER_CHECKPOINT_H_

#include <memory>
#include <optional>

#include "server/server.h"

namespace hyder {

/// Checkpoints: materialized database states written into the shared log so
/// that (a) new servers can bootstrap without replaying the whole log and
/// (b) the log prefix before the checkpoint becomes truncatable.
///
/// The Hyder architecture stores "the complete persistent database in the
/// log" (§2) — without checkpoints a joining server would have to meld from
/// position one. A checkpoint captures, for one state S:
///   * every tree node of S, fully materialized (key, payload, version id,
///     content version, color) — including meld-generated ephemeral nodes,
///     whose deterministic identities (§3.4) are preserved so the
///     bootstrapped replica is *physically identical* to the others;
///   * the intention directory (sequence -> log block positions) so lazy
///     references from later grafted intentions remain refetchable.
///
/// Checkpoint blocks are tagged with kCheckpointTxnBit (txn/codec.h) in the
/// block header and are skipped identically by every tailing server, so
/// interleaving them with intention blocks does not disturb the
/// deterministic intention sequence numbering.

struct CheckpointInfo {
  uint64_t state_seq = 0;        ///< The captured state (intention seq).
  uint64_t resume_position = 0;  ///< First log position a bootstrapping
                                 ///< server must process.
  uint64_t first_block = 0;      ///< Position of the checkpoint's first block.
  uint64_t block_count = 0;
  uint64_t node_count = 0;
};

/// Writes a checkpoint of `server`'s latest state into the log it tails.
///
/// Requires a quiescent view: call after `Poll` has drained the log and no
/// partially assembled intentions remain (returns `Busy` otherwise) — this
/// guarantees every block before the server's read cursor belongs to an
/// already-melded intention, so `resume_position` is exact even with
/// interleaved multi-block intentions.
Result<CheckpointInfo> WriteCheckpoint(HyderServer& server);

/// Scans the log for the most recent complete, parseable checkpoint.
///
/// Robust to a crashed checkpointer and to storage decay: a checkpoint
/// missing blocks (torn mid-write), containing an unreadable block
/// (checksum mismatch → DataLoss), or whose header fails to parse is passed
/// over in favor of the newest older checkpoint that is intact. Duplicate
/// block copies (retried appends) are counted once. A read that fails with
/// `Unavailable` fails the scan, so the caller can run it again.
Result<std::optional<CheckpointInfo>> FindLatestCheckpoint(SharedLog& log);

/// Builds a new server whose pipeline starts at the checkpointed state and
/// whose log cursor starts at `info.resume_position`. The result is
/// physically identical to replicas that replayed the whole log and rolls
/// forward with them from there. The new server must use the same pipeline
/// configuration as the cluster (§3.4).
Result<std::unique_ptr<HyderServer>> BootstrapFromCheckpoint(
    SharedLog* log, const CheckpointInfo& info, ServerOptions options);

}  // namespace hyder

#endif  // HYDER2_SERVER_CHECKPOINT_H_
