/**
 * @file
 * FIB/SEM volumetric acquisition: repeated slicing with stage drift,
 * imaging each exposed cross section (Section IV-B), and the
 * acquisition-cost model that reproduces the paper's >24 h scans for
 * the 100 um^2 ROIs.
 */

#ifndef HIFI_SCOPE_FIB_HH
#define HIFI_SCOPE_FIB_HH

#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>

#include "common/result.hh"
#include "common/rng.hh"
#include "image/qc.hh"
#include "image/volume3d.hh"
#include "scope/faults.hh"
#include "scope/sem.hh"

namespace hifi
{
namespace scope
{

/** Acquisition parameters for one volumetric scan. */
struct FibSemParams
{
    SemParams sem;

    /// Slice thickness in voxels of the source volume.
    size_t sliceVoxels = 4;

    /// Per-slice probability of a one-pixel stage drift step on each
    /// axis.  Drift is a mean-reverting bounded walk: the instrument's
    /// periodic re-registration keeps it within +-maxDriftPx.
    double driftProbability = 0.15;

    /// Drift bound (pixels) on each axis.
    long maxDriftPx = 3;
};

/// Domain check for acquisition parameters; nullopt when valid.
std::optional<common::Error> validate(const FibSemParams &params);

/**
 * Acquire a slice stack from a material volume.  Slice i images the
 * cross section at x = i * sliceVoxels, drifted by the accumulated
 * stage drift and corrupted by SEM noise.  The ground-truth drifts
 * are recorded in the returned stack for validation.
 */
image::SliceStack acquire(const image::Volume3D &materials,
                          const FibSemParams &params,
                          common::Rng &rng);

/** Recovery policy for the QC-driven robust acquisition loop. */
struct RecoveryParams
{
    /// Extra imaging attempts allowed per slice after a QC flag.
    /// Bounded by kMaxAttemptsPerSlice - 1 (RNG substream stride).
    size_t maxRetries = 2;

    /// Replace budget-exhausted slices with a neighbour blend; when
    /// false (or no accepted neighbour exists) the slice is marked
    /// unrecoverable and the last attempt's frame is kept.
    bool interpolate = true;

    /// QC detector thresholds.
    image::QcThresholds qc;

    /**
     * Reuse the clean SEM frame across re-imaging attempts at an
     * unchanged mill position.  semImageClean is a pure function of
     * (volume, x, sliceVoxels, sem), so a retry of the same face
     * renders the identical frame — the cache returns that exact
     * frame and only the per-attempt noise/fault overlay is redone.
     * Bitwise-identical output either way (asserted in
     * tests/test_fab_scope.cc); hit/miss/eviction counts are
     * reported through the "sem.clean_cache.hit" / ".miss" /
     * ".evicted" telemetry counters.
     */
    bool reuseCleanFrames = true;

    /**
     * Capacity (distinct mill positions) of the clean-frame cache
     * used when no shared cache is passed to acquireRobust.  Cached
     * entries are exact pure-function outputs, so any capacity >= 1
     * yields bitwise-identical acquisitions; larger caches only
     * change the hit rate.  Must be >= 1 (validated).
     */
    size_t cleanCacheCapacity = 4;
};

/**
 * Bounded LRU cache of clean SEM frames, shareable across concurrent
 * acquisitions (the campaign service hands one instance to every
 * job).  Keys are content digests (volume identity x mill position x
 * imaging params), values are the exact semImageClean outputs, so a
 * hit returns a bitwise-identical frame and the cache can never
 * change a result — only skip a render.  Thread-safe; eviction is
 * least-recently-used.  Counters: "sem.clean_cache.hit" / ".miss" /
 * ".evicted".
 */
class CleanFrameCache
{
  public:
    explicit CleanFrameCache(size_t capacity = 4);

    /// Frame for `key`, rendered with `render` on a miss.
    image::Image2D fetch(uint64_t key,
                         const std::function<image::Image2D()> &render);

    size_t size() const;
    size_t capacity() const { return capacity_; }

    /// Lifetime eviction count (also mirrored into telemetry).
    uint64_t evictions() const;

  private:
    mutable std::mutex mu_;
    size_t capacity_ = 4;
    uint64_t evictions_ = 0;
    std::list<std::pair<uint64_t, image::Image2D>> lru_;
    std::map<uint64_t,
             std::list<std::pair<uint64_t, image::Image2D>>::iterator>
        index_;
};

/// Fixed RNG substream stride: attempts per slice are capped at this.
constexpr size_t kMaxAttemptsPerSlice = 8;

/// Domain check; nullopt when valid.
std::optional<common::Error> validate(const RecoveryParams &params);

/** One imaging attempt in the QC audit trail. */
struct QcAttemptRecord
{
    size_t attempt = 0; ///< 0-based attempt index
    int fault = 0;      ///< FaultKind sampled for this attempt
    image::QcMetrics metrics;

    /// QC-flagged anomaly that persisted across a re-image and was
    /// confirmed as real sample content (see acquireRobust).
    bool contentConfirmed = false;

    /// This attempt's frame was accepted into the stack.
    bool accepted = false;
};

/**
 * Per-slice decision record: which attempts ran, what every QC metric
 * measured, what the verdict was, and the injected-fault ground truth
 * (simulator-only).  Seed-pure and always collected on the robust
 * path — inspection never perturbs the result — and exportable as
 * JSON via qcAuditJson().
 */
struct SliceDecision
{
    size_t slice = 0;
    int injectedFault = 0; ///< FaultKind of the first attempt
    std::vector<QcAttemptRecord> attempts;

    bool accepted = false;       ///< some attempt passed QC
    bool interpolated = false;   ///< replaced by a neighbour blend
    bool unrecoverable = false;  ///< kept flagged frame, no recovery
};

/// JSON export of an audit trail (one object per slice, attempts with
/// full metric values and named flags).
std::string qcAuditJson(const std::vector<SliceDecision> &audit);

/** Outcome of a robust acquisition: the stack plus the recovery log. */
struct RobustAcquisition
{
    /// Acquired stack; stack.provenance records per-slice truth.
    image::SliceStack stack;

    /// QC metrics of the finally accepted (or kept) attempt per slice.
    std::vector<image::QcMetrics> qc;

    size_t slicesRetried = 0;      ///< slices needing > 1 attempt
    size_t retries = 0;            ///< total extra attempts charged
    size_t slicesInterpolated = 0; ///< neighbour-blended slices
    size_t slicesUnrecoverable = 0;
    size_t faultsInjected = 0; ///< slices with a faulty first attempt
    size_t faultsDetected = 0; ///< of those, flagged by QC

    /// Aggregate trust score in [0, 1]: clean/retried slices weigh 1,
    /// interpolated 0.5, unrecoverable 0.
    double qcConfidence = 1.0;

    /// Indices of the interpolated slices (deterministic given seed).
    std::vector<size_t> interpolatedSlices;

    /// Per-slice decision audit trail (one entry per slice, in slice
    /// order); a pure function of the seed like everything above.
    std::vector<SliceDecision> audit;
};

/**
 * One finalized slice emitted by the streaming acquisition: the frame
 * content is final (recovery — re-imaging, neighbour interpolation —
 * already applied), so a consumer can denoise/register/assemble it
 * immediately and never hold the whole stack.
 */
struct StreamedSlice
{
    size_t index = 0;
    image::Image2D frame;
    std::pair<long, long> drift{0, 0}; ///< ground-truth drift
    image::SliceProvenance provenance;
    image::QcMetrics qc;  ///< metrics of the finally kept attempt
    SliceDecision decision;
};

/// Consumer of finalized slices; called in strictly increasing index
/// order.
using SliceConsumer = std::function<void(StreamedSlice &&)>;

/** Aggregate counters of a streamed acquisition (the fields of
 * RobustAcquisition that are not per-slice). */
struct StreamAcquisitionStats
{
    size_t slices = 0;
    size_t slicesRetried = 0;
    size_t retries = 0;
    size_t slicesInterpolated = 0;
    size_t slicesUnrecoverable = 0;
    size_t faultsInjected = 0;
    size_t faultsDetected = 0;
    double qcConfidence = 1.0;
    std::vector<size_t> interpolatedSlices;
};

/**
 * Streaming core of the robust acquisition: identical imaging, QC,
 * retry and interpolation decisions to acquireRobust (which is now a
 * thin collector over this function), but slices are handed to
 * `sink` as soon as their content is final instead of accumulating
 * in a stack.  The held-back working set is bounded by the longest
 * run of consecutive QC-failed slices (each must wait for its right
 * accepted neighbour before its interpolation can be computed) plus
 * the last accepted frame — O(1) in the common case, never the whole
 * volume.  Bitwise-identical outputs to acquireRobust by
 * construction (asserted in tests/test_volume.cc).
 */
StreamAcquisitionStats
acquireRobustStreamed(const image::Volume3D &materials,
                      const FibSemParams &params,
                      const FaultParams &faults,
                      const RecoveryParams &recovery, uint64_t seed,
                      const SliceConsumer &sink,
                      CleanFrameCache *sharedCleanFrames = nullptr,
                      uint64_t volumeKey = 0);

/**
 * Fault-aware acquisition with QC-driven re-imaging (the production
 * path; `acquire` remains the pristine fault-free reference).  Every
 * slice is imaged, checked by the QC detector, and re-imaged up to
 * `recovery.maxRetries` times while flagged; slices that exhaust the
 * budget fall back to neighbour interpolation or are marked
 * unrecoverable.  All randomness — drift walk, frame noise, fault
 * placement — is counter-seeded from `seed`, so the result (including
 * retry counts and interpolated-slice sets) is a pure function of
 * (volume, params, faults, recovery, seed) at any thread count.
 *
 * Throws std::invalid_argument when any parameter set fails
 * validation (use the validate() overloads for typed errors).
 *
 * @param sharedCleanFrames optional shared clean-frame cache; when
 *        null a private cache of recovery.cleanCacheCapacity entries
 *        is used.  Sharing requires `volumeKey` to identify the
 *        material volume so jobs imaging different volumes can never
 *        collide on a cache key.
 */
RobustAcquisition acquireRobust(const image::Volume3D &materials,
                                const FibSemParams &params,
                                const FaultParams &faults,
                                const RecoveryParams &recovery,
                                uint64_t seed,
                                CleanFrameCache *sharedCleanFrames =
                                    nullptr,
                                uint64_t volumeKey = 0);

/** Cost model of a volumetric acquisition campaign. */
struct CampaignCost
{
    size_t slices = 0;
    double pixelsPerImage = 0.0;

    /// Per-slice time split: milling scales with the face width,
    /// imaging with pixel count and dwell.  secondsPerSlice is their
    /// sum (one mill + one image).
    double millSecondsPerSlice = 0.0;
    double imageSecondsPerSlice = 0.0;
    double secondsPerSlice = 0.0;

    /// Re-imaging charged by chargeRetries (image time only: a
    /// re-image does not re-mill).
    size_t reimagedSlices = 0;
    double retryHours = 0.0;

    double totalHours = 0.0;
};

/**
 * Estimate the acquisition cost of a chip's ROI scan from Table I
 * parameters (ROI area, pixel resolution, slice thickness, dwell).
 * Mill time scales with the cross-section width; imaging time with
 * the pixel count and dwell.  A4 and A5 (100 um^2) exceed 24 hours.
 */
CampaignCost campaignCost(const models::ChipSpec &chip);

/// Charge `retries` re-imaged frames (image time only) to a campaign.
void chargeRetries(CampaignCost &cost, size_t retries);

} // namespace scope
} // namespace hifi

#endif // HIFI_SCOPE_FIB_HH
