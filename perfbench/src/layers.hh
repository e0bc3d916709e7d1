/**
 * @file
 * Per-layer accounting of traced units: exclusive (self) time per span
 * name from a session's span records, and the mapping from the
 * library's existing spans and counters onto the per-layer metrics.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "core/stages.hh"

#include "harness.hh"

namespace perfbench
{

/** Exclusive-time accounting of one span name. */
struct SpanSelf
{
    size_t calls = 0;
    double selfMs = 0.0;             ///< summed over calls and threads
    std::vector<double> callSelfUs;  ///< per call
};

/**
 * Self time per span name: each span's duration minus the time its
 * direct children on the same thread cover.  Parents and children are
 * matched by thread, nesting depth and interval, because the library's
 * per-name totals (PipelineTelemetry::stageWallNs) are inclusive.
 * Spans on pool workers have no parent on the submitting thread, so a
 * parent that waits on a fan-out keeps that wait as self time.
 */
std::map<std::string, SpanSelf>
spanSelfTimes(const std::vector<hifi::telemetry::SpanRecord> &spans);

/// Time per pipeline stage of one unit, in core::Stage order (ms).
using StageMs = std::array<double, hifi::core::kNumStages>;

/// Stage times from a session's "pipeline.stage.<name>" spans.
StageMs stageSpanMs(const hifi::telemetry::PipelineTelemetry &telemetry);

/** Collects the per-layer metrics of the traced units of one run. */
class LayerAccounting
{
  public:
    /// One traced pipeline unit (a direct call or a service job).
    void addPipelineUnit(const hifi::telemetry::PipelineTelemetry &telemetry,
                         const hifi::core::PipelineReport &report,
                         double unitMs, const StageMs &stageMs);

    /// One traced sensingYield call of `trials` Monte-Carlo trials.
    void addSolverUnit(const hifi::telemetry::PipelineTelemetry &telemetry,
                       double unitMs, size_t trials);

    /// Run-level value (service counters, overhead, CPU use).
    void
    set(const std::string &name, double value)
    {
        samples_.set(name, value);
    }

    /// Every per-layer metric; pool ratios and per-call quantiles are
    /// computed over all traced units.
    std::vector<Metric> metrics() const;

  private:
    void addPool(const hifi::telemetry::MetricsSnapshot &metrics,
                 double unitMs);

    Samples samples_;
    std::vector<double> qcCallUs_;
    std::vector<double> semCallUs_;
    double poolBusyNs_ = 0.0;
    double poolCapacityNs_ = 0.0;
    double poolChunks_ = 0.0;
    double poolJobs_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
