/**
 * @file
 * The HiFi-DRAM end-to-end pipeline: virtual fab -> FIB/SEM
 * acquisition -> post-processing -> reverse engineering -> validation
 * against the fab's ground truth.  This is the library's headline API:
 * one call reproduces the paper's methodology on a synthetic chip and
 * quantifies how faithfully the circuit is recovered.
 */

#ifndef HIFI_CORE_PIPELINE_HH
#define HIFI_CORE_PIPELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "fab/defects.hh"
#include "fab/sa_region.hh"
#include "models/chip_data.hh"
#include "re/analyze.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

namespace hifi
{
namespace core
{

/// Smallest accepted PipelineConfig::memoryBudget: one 64^3-float
/// tile layer of a paper-scale stack plus the streaming slice window
/// comfortably fit in 16 MiB.
constexpr size_t kMinMemoryBudgetBytes = 16ull << 20;

/** Pipeline configuration. */
struct PipelineConfig
{
    /// Chip dataset providing geometry, topology, detector, slicing.
    std::string chipId = "B5";

    /// SA pairs in the generated region slice.
    size_t pairs = 4;

    /// Stacked SA sets (Section V-C: real chips place 2).
    size_t stackedSas = 1;

    uint64_t seed = 1;

    /// Run the TV denoiser (disable to study its contribution).
    scope::DenoiseAlgo denoise = scope::DenoiseAlgo::Chambolle;

    /// Stage-drift step probability per slice.
    double driftProbability = 0.15;

    /**
     * Process corner the virtual fab runs at.  Typical is the clean
     * legacy fab (bit-identical); Slow/Fast apply the chip vendor's
     * models::cornerVariation preset — systematic CD bias, per-device
     * CD sigma, cross-wafer drift and line-edge roughness.
     */
    models::ProcessCorner corner = models::ProcessCorner::Typical;

    /**
     * Silicon defects to plant into the voxelized volume after the
     * fab (fab/defects.hh).  Disabled by default; when any are
     * requested the report's `siliconDefects` scores the RE stage's
     * detection against the planted ground truth.
     */
    fab::DefectParams defects;

    /**
     * Override for the in-plane voxel size; <= 0 picks automatically
     * from the chip's pixel resolution and bitline gap.
     */
    double voxelNm = -1.0;

    /**
     * Detector override: -1 uses the chip's Table I detector,
     * 0 forces SE, 1 forces BSE.  Forcing SE on vendor B/C chips
     * reproduces the poor-contrast failure that made the paper
     * switch those chips to BSE.
     */
    int detectorOverride = -1;

    /**
     * This job's thread budget: the most threads, the calling one
     * included, that any fan-out of the hot kernels (denoise,
     * registration, SEM imaging, voxelization) may occupy on the
     * shared pool.  It binds only the thread running the job, so
     * concurrent jobs each keep their own.  0 inherits the calling
     * thread's budget (common::numThreads).  The report is
     * bitwise-identical for any value — see common/parallel.hh.
     */
    size_t threads = 0;

    /**
     * Acquisition fault model (scope/faults.hh).  Disabled by default:
     * the fault-free path takes the legacy acquisition code path and
     * stays bitwise identical to the pre-robustness pipeline.  With
     * faults enabled the pipeline switches to scope::acquireRobust —
     * QC-checked slices, bounded re-imaging, neighbour interpolation —
     * and the degradation fields of the report become meaningful.
     */
    scope::FaultParams faults;

    /// Retry/interpolation policy and QC thresholds for the robust
    /// acquisition (only used when faults.enabled).
    scope::RecoveryParams recovery;

    /**
     * Out-of-core memory budget in bytes; 0 (the default) assembles
     * the post-processed volume in RAM.  When set, the post-process
     * chain assembles into a spill-to-disk tile store instead, so the
     * assembled volume's working set is bounded by roughly this
     * figure (the acquired slice stack is still held in RAM).  The
     * report is bitwise identical to the in-RAM run at any budget,
     * tile size and thread count (tests/test_volume.cc).  Budgets
     * smaller than one tile layer are rejected by validateConfig.
     */
    size_t memoryBudget = 0;

    /**
     * Directory for spilled volume tiles when memoryBudget is set;
     * empty picks a unique directory under the system temp dir that
     * is removed when the run completes.  Ignored when
     * memoryBudget == 0.
     */
    std::string spillDir;

    /**
     * Observability (common/telemetry.hh); off by default.  When
     * enabled the run is wrapped in a telemetry::Session: stage spans
     * and metric deltas land in PipelineReport::telemetry, and any
     * paths named in the config are written on completion.  Purely
     * observational — the report's data fields are bitwise identical
     * with telemetry on or off (asserted by tests/test_telemetry.cc).
     */
    telemetry::TelemetryConfig telemetry;
};

/**
 * Domain validation of a pipeline configuration: unknown chip ids,
 * zero pairs/stacked sets, out-of-range probabilities, inconsistent
 * fault/recovery parameters.  nullopt when the config is runnable.
 */
std::optional<common::Error>
validateConfig(const PipelineConfig &config);

/** Per-role dimension recovery. */
struct RoleRecovery
{
    double trueW = 0.0, trueL = 0.0;
    double measuredW = 0.0, measuredL = 0.0;

    double errW() const { return std::abs(measuredW - trueW); }
    double errL() const { return std::abs(measuredL - trueL); }
};

/** One planted silicon defect and whether the RE stage flagged it. */
struct DefectOutcome
{
    fab::PlantedDefect planted;
    bool detected = false;
};

/** Planted-vs-detected silicon defect scoring. */
struct SiliconDefectReport
{
    /// Ground truth, one entry per planted defect, with match flags.
    std::vector<DefectOutcome> planted;

    /// Everything the RE stage flagged (matched or not).
    std::vector<re::DetectedDefect> detected;

    size_t matched = 0;  ///< planted defects correctly flagged
    size_t spurious = 0; ///< detections with no planted counterpart

    /// Every planted defect was flagged with the right kind/site.
    bool
    allDetected() const
    {
        return matched == planted.size();
    }
};

/**
 * Greedy planted-vs-detected matching: fills `matched`, `spurious`
 * and the per-defect `detected` flags of a report whose `planted`
 * and `detected` lists are populated.  A detection matches when the
 * kinds agree, the sites are within a few hundred nm, and the
 * identified bitlines are compatible.  Shared by the pipeline and
 * the direct fuzz tier (core/fuzz.hh).
 */
void scoreSiliconDefects(SiliconDefectReport &report);

/** Pipeline outcome. */
struct PipelineReport
{
    std::string chipId;

    models::Topology trueTopology = models::Topology::Classic;
    models::Topology extractedTopology = models::Topology::Classic;
    bool topologyCorrect = false;

    size_t trueCommonGateStrips = 0;
    size_t extractedCommonGateStrips = 0;

    size_t trueDevices = 0;
    size_t extractedDevices = 0;
    size_t bitlinesFound = 0;
    size_t bitlinesTrue = 0;

    bool crossCouplingConsistent = false;

    /// Best-matching published topology template (Section V-A) and
    /// its structural agreement score in [0, 1].
    std::string matchedTemplate;
    double matchScore = 0.0;

    size_t slices = 0;
    double alignmentResidualPx = 0.0;
    bool alignmentBudgetMet = false;

    std::map<models::Role, RoleRecovery> roles;

    /// Worst absolute dimension error across recovered roles (nm).
    double maxDimErrorNm = 0.0;

    // ---- Robustness / degradation accounting ----------------------
    // All zero / 1.0 / false on the fault-free legacy path.

    /// Slices that needed more than one imaging attempt.
    size_t slicesRetried = 0;

    /// Total re-imaged frames (charged to the campaign cost).
    size_t retries = 0;

    /// Slices replaced by neighbour interpolation after the retry
    /// budget ran out, and their indices (seed-deterministic).
    size_t slicesInterpolated = 0;
    std::vector<size_t> interpolatedSlices;

    /// Slices no attempt nor interpolation could recover.
    size_t slicesUnrecoverable = 0;

    /// Injected-fault ground truth vs QC detection (simulator-only).
    size_t faultsInjected = 0;
    size_t faultsDetected = 0;

    /// Aggregate acquisition trust in [0, 1] (see RobustAcquisition).
    double qcConfidence = 1.0;

    /// True when any slice was interpolated or unrecoverable: the
    /// report is best-effort and downstream numbers deserve scrutiny.
    bool degraded = false;

    /// Table-I campaign cost for this chip, with re-imaging charged.
    scope::CampaignCost campaign;

    /// Silicon defect scoring (empty when config.defects is empty
    /// and the RE stage flagged nothing).
    SiliconDefectReport siliconDefects;

    /// Full analysis, for further inspection.
    re::RegionAnalysis analysis;

    /// Per-slice QC decision trail from the robust acquisition
    /// (empty on the legacy fault-free path).  Seed-pure: identical
    /// with telemetry on or off.  Export with scope::qcAuditJson().
    std::vector<scope::SliceDecision> qcAudit;

    /// Trace + metric deltas when config.telemetry.enabled; null
    /// otherwise.  Not part of the seeded result — compare reports
    /// with this field excluded.
    std::shared_ptr<const telemetry::PipelineTelemetry> telemetry;
};

/**
 * Run the full pipeline on one chip configuration.  The pipeline's
 * one entry point: it validates the configuration up front and
 * converts any internal failure into a typed error, so production
 * callers always get either a report (possibly with `degraded` set)
 * or an Error — never a crash.  An exception escaping a stage becomes
 * ErrorCode::Internal with the message "pipeline failed: <what>".
 */
common::Result<PipelineReport>
runPipelineChecked(const PipelineConfig &config);

/**
 * Throwing shim over runPipelineChecked.  Invalid configurations throw
 * std::out_of_range for unknown chip ids and std::invalid_argument
 * otherwise; any other error, including an internal failure, throws
 * std::runtime_error with the error's message (for an internal
 * failure, "pipeline failed: <what>").
 */
PipelineReport runPipeline(const PipelineConfig &config);

/** Repeatability over independent acquisitions (different seeds). */
struct Repeatability
{
    size_t runs = 0;
    size_t topologyCorrect = 0;
    size_t crossCouplingTraced = 0;

    /// Per-role spread of the measured W and L across runs.
    std::map<models::Role, std::pair<common::Accumulator,
                                     common::Accumulator>>
        dims;
};

/**
 * Re-run the pipeline `runs` times with seeds base.seed, base.seed+1,
 * ... - the in-silico analogue of the paper's repeated measurements.
 */
Repeatability repeatPipeline(const PipelineConfig &base, size_t runs);

} // namespace core
} // namespace hifi

#endif // HIFI_CORE_PIPELINE_HH
