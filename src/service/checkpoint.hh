/**
 * @file
 * Crash-safe checkpointing of staged pipeline runs.
 *
 * After every completed stage the campaign service serializes the
 * `core::StagedState` to a binary checkpoint image, written
 * atomically (temp file + rename): the stage cursor, the partial
 * report, and the digests of the one intermediate artifact the
 * remaining stages still need.  The artifact voxels themselves are
 * sealed into a content-addressed `image::TileStore` (the service's
 * lives in `<checkpointDir>/tiles`), so repeated saves of an
 * unchanged artifact write almost nothing.  A service killed mid-job
 * reloads the newest checkpoint on restart and replays only the
 * unfinished stages; because every stage is a pure function of
 * (config, state), the resumed run's report is bitwise-identical to
 * an uninterrupted one (asserted by tests/test_service.cc).
 *
 * A load is guarded three ways: the config identity digest (the
 * result-affecting configuration fields) rejects a checkpoint written
 * under a different job configuration, a trailing FNV-1a payload
 * digest rejects torn or corrupted files, and the artifact must be
 * the one the stage cursor needs.  Every failure comes back as a
 * typed error, never as garbage state.
 */

#ifndef HIFI_SERVICE_CHECKPOINT_HH
#define HIFI_SERVICE_CHECKPOINT_HH

#include <memory>
#include <string>

#include "core/stages.hh"
#include "image/tile_store.hh"

namespace hifi
{
namespace service
{

/**
 * Digest of the result-affecting configuration fields: everything a
 * stage body reads (chip, geometry, seed, corner, defects, fault and
 * recovery policies, denoise, overrides) and nothing purely
 * operational (threads, telemetry sinks).  Two configs with equal
 * digests produce bitwise-identical reports, so this is both the
 * checkpoint-compatibility check and the fab-cache key.
 */
uint64_t configDigest(const core::PipelineConfig &config);

/// Fab-stage identity: the configDigest fields that the Fab stage
/// depends on (acquisition/postprocess knobs excluded).  Equal fab
/// digests mean an identical post-Fab state — the service's
/// content-addressed volume cache keys on this.
uint64_t fabDigest(const core::PipelineConfig &config);

/**
 * Serialize `state` for `config` into a byte string (the in-memory
 * checkpoint image).  Seals only the artifact the cursor still needs
 * into `tiles` (content-addressed, deduplicated across saves); the
 * image stores its digests, so it stays small at every stage.  Typed
 * failures: FailedPrecondition for a null store or a state missing
 * its cursor's artifact, the store's errors on tile I/O.
 */
common::Result<std::string>
encodeCheckpoint(const core::PipelineConfig &config,
                 const core::StagedState &state,
                 const std::shared_ptr<image::TileStore> &tiles);

/**
 * Decode a checkpoint image back into a StagedState, verifying the
 * payload digest and the config identity.  Typed failures:
 * DataLoss for truncation/corruption — including an artifact that
 * does not match the stage cursor, and a referenced tile that is
 * missing, truncated or fails its digest check — FailedPrecondition
 * for a null store, a config mismatch or an unsupported version.
 * A decoded processed volume re-pins lazily: its tiles are verified
 * and fetched when the resumed stage reads them, not eagerly here.
 */
common::Result<core::StagedState>
decodeCheckpoint(const std::string &bytes,
                 const core::PipelineConfig &config,
                 const std::shared_ptr<image::TileStore> &tiles);

/**
 * Atomically write the checkpoint for (config, state) to `path`:
 * the image is written to "<path>.tmp" and renamed over `path`, so a
 * crash mid-write leaves either the previous checkpoint or none —
 * never a torn file.  The encodeCheckpoint failures, or a typed
 * Internal error on file I/O failure.
 */
std::optional<common::Error>
saveCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const core::StagedState &state,
               const std::shared_ptr<image::TileStore> &tiles);

/**
 * Load and decode the checkpoint at `path`.  FailedPrecondition for a
 * null store, NotFound when the file does not exist (callers treat
 * that as "start from scratch"), otherwise the decodeCheckpoint
 * failure taxonomy.
 */
common::Result<core::StagedState>
loadCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const std::shared_ptr<image::TileStore> &tiles);

/// Remove a checkpoint file if present (best-effort; used after a
/// job completes so a rerun starts fresh).
void removeCheckpoint(const std::string &path);

} // namespace service
} // namespace hifi

#endif // HIFI_SERVICE_CHECKPOINT_HH
