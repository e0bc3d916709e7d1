/**
 * @file
 * Staged, resumable decomposition of the HiFi-DRAM pipeline.
 *
 * The monolithic `runPipeline` is rebuilt on five explicit stages —
 * Fab, Acquire, Postprocess, Analyze, Finalize — each a pure function
 * of (config, state before the stage).  A `StagedState` carries the
 * stage cursor, the partial `PipelineReport` and the one intermediate
 * artifact the remaining stages still need, which makes three things
 * possible without changing a single output bit:
 *
 *  - the campaign service checkpoints the state after every stage and
 *    a killed job resumes from the last completed stage, bit-identical
 *    to an uninterrupted run (service/checkpoint.hh);
 *  - per-stage watchdog deadlines and typed per-stage errors, so a
 *    retry replays one stage instead of the whole campaign;
 *  - content-addressed caching of the fab stage (identical fab params
 *    produce an identical post-Fab state).
 *
 * Determinism: a stage never reads wall clock, thread ids or any
 * state outside (config, StagedState), so running the stages in one
 * process, across process restarts, or with different thread counts
 * produces bitwise-identical reports (asserted in tests/test_service).
 */

#ifndef HIFI_CORE_STAGES_HH
#define HIFI_CORE_STAGES_HH

#include <memory>
#include <optional>

#include "core/pipeline.hh"

namespace hifi
{
namespace scope
{
class CleanFrameCache;
}

namespace core
{

/** Pipeline stages, in execution order. */
enum class Stage
{
    Fab,         ///< layout + voxelize + plant defects
    Acquire,     ///< FIB/SEM slice stack (robust or legacy path)
    Postprocess, ///< denoise + register + assemble
    Analyze,     ///< reverse engineering of the volume
    Finalize,    ///< truth validation, matching, dimension scoring
    Done,
};

/// Stable lower-case stage name ("fab", "acquire", ...).
const char *stageName(Stage stage);

/// Number of runnable stages (Done excluded).
constexpr size_t kNumStages = 5;

/**
 * Everything a pipeline run carries between stages.  Artifacts are
 * held by shared_ptr so checkpointing and caching can alias them
 * without copies; a stage drops artifacts the remaining stages no
 * longer need (`materials` after Acquire, `stack` after Postprocess),
 * which bounds the checkpoint size.
 */
struct StagedState
{
    Stage next = Stage::Fab;

    /// Resolved in-plane voxel size (after Fab).
    double voxelNm = 0.0;

    /// Slice pitch in nm (after Acquire).
    double sliceThicknessNm = 0.0;

    /// Partial report; complete once next == Done.
    PipelineReport report;

    // ---- Stage artifacts ------------------------------------------
    std::shared_ptr<image::Volume3D> materials; ///< Fab -> Acquire
    std::shared_ptr<image::SliceStack> stack;   ///< Acquire -> Postpr.
    std::shared_ptr<image::Volume3D> processed; ///< Postpr. -> Analyze

    /// Postprocess -> Analyze when config.memoryBudget > 0: the
    /// post-process chain's tiled sink.  The assembled volume stays
    /// sealed in `tileStore` until Analyze materializes it into
    /// `processed` and drops the tiles — after the stack is gone, so
    /// the stack and the dense volume never coexist.  Exactly one of
    /// `processed` / `processedTiled` is set after Postprocess.
    std::shared_ptr<image::TiledVolume3D> processedTiled;

    // ---- Service hooks (not serialized, not result-affecting) -----

    /// Shared clean-frame cache for the Acquire stage (null: each
    /// acquisition uses its private cache).  Cached frames are exact,
    /// so sharing never changes a report.
    scope::CleanFrameCache *cleanFrames = nullptr;

    /// Identity of `materials` for shared-cache keys; the service
    /// uses the fab-parameter digest of the job config.
    uint64_t volumeKey = 0;

    /**
     * Tile store backing `processedTiled` (and tile-referencing
     * checkpoints).  The campaign service provides one rooted under
     * its checkpoint directory so tiles survive restarts; standalone
     * memory-budgeted runs get an automatic temp-dir store (removed
     * with the state) from the Postprocess stage.  Null on the
     * in-RAM path.  Not result-affecting.
     */
    std::shared_ptr<image::TileStore> tileStore;
};

/**
 * Validate `config` and build the initial state (cursor at Fab).
 * Typed errors mirror validateConfig.
 */
common::Result<StagedState> initStagedRun(const PipelineConfig &config);

/**
 * Run the stage `state.next` points at and advance the cursor.
 * Runs the stage under the config's thread budget (on the calling
 * thread only) and wraps it in a "pipeline.stage.<name>" span.  All
 * failures come back as typed errors — internal exceptions are caught
 * and mapped to ErrorCode::Internal — so a service retry layer never
 * sees an escaping exception.  Calling with next == Done is an error.
 */
std::optional<common::Error> runStage(const PipelineConfig &config,
                                      StagedState &state);

/**
 * Seed-pure content digest (FNV-1a) of a report: every field that is
 * a function of the configuration — analysis, audit trail, campaign
 * cost, degradation accounting — and nothing that is not (the
 * telemetry attachment is excluded).  Two reports with equal digests
 * are bitwise-identical in all seeded fields; used by the service,
 * the chaos harness and the tests to assert checkpoint/resume and
 * cache hits change nothing.
 */
uint64_t reportDigest(const PipelineReport &report);

namespace detail
{
/// Stage body without the thread-override / span / exception guard —
/// the monolithic runner applies those once around the whole loop.
/// May throw; callers outside pipeline.cc want runStage instead.
std::optional<common::Error>
runStageUnguarded(const PipelineConfig &config, StagedState &state);
} // namespace detail

} // namespace core
} // namespace hifi

#endif // HIFI_CORE_STAGES_HH
