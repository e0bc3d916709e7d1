#include "layers.hh"

#include <algorithm>
#include <cstring>

#include "common/parallel.hh"

namespace perfbench
{

using hifi::telemetry::MetricsSnapshot;
using hifi::telemetry::PipelineTelemetry;
using hifi::telemetry::SpanRecord;

std::map<std::string, SpanSelf>
spanSelfTimes(const std::vector<SpanRecord> &spans)
{
    // Per thread, in start order (a parent before a child that starts
    // on the same tick), with a stack of the spans still open.
    std::vector<const SpanRecord *> order;
    order.reserve(spans.size());
    for (const SpanRecord &s : spans)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->startNs != b->startNs)
                      return a->startNs < b->startNs;
                  return a->depth < b->depth;
              });

    std::vector<double> childNs(order.size(), 0.0);
    std::vector<size_t> open;
    for (size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &s = *order[i];
        while (!open.empty()) {
            const SpanRecord &top = *order[open.back()];
            const bool sameThread = top.tid == s.tid;
            const bool encloses = top.depth < s.depth &&
                top.startNs + top.durationNs >= s.startNs + s.durationNs;
            if (sameThread && encloses)
                break;
            open.pop_back();
        }
        if (!open.empty() && order[open.back()]->depth + 1 == s.depth)
            childNs[open.back()] += static_cast<double>(s.durationNs);
        open.push_back(i);
    }

    std::map<std::string, SpanSelf> out;
    for (size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &s = *order[i];
        const double selfNs = std::max(
            0.0, static_cast<double>(s.durationNs) - childNs[i]);
        SpanSelf &agg = out[s.name];
        ++agg.calls;
        agg.selfMs += selfNs * 1e-6;
        agg.callSelfUs.push_back(selfNs * 1e-3);
    }
    return out;
}

StageMs
stageSpanMs(const PipelineTelemetry &telemetry)
{
    StageMs ms{};
    for (const SpanRecord &s : telemetry.spans) {
        constexpr const char kPrefix[] = "pipeline.stage.";
        if (std::strncmp(s.name, kPrefix, sizeof(kPrefix) - 1) != 0)
            continue;
        const char *stage = s.name + sizeof(kPrefix) - 1;
        for (size_t i = 0; i < hifi::core::kNumStages; ++i)
            if (std::strcmp(stage, hifi::core::stageName(
                                       static_cast<hifi::core::Stage>(i))) ==
                0)
                ms[i] += static_cast<double>(s.durationNs) * 1e-6;
    }
    return ms;
}

namespace
{

double
counter(const MetricsSnapshot &m, const char *name)
{
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerAccounting::addPool(const MetricsSnapshot &metrics, double unitMs)
{
    double workers = 0.0;
    if (const auto it = metrics.gauges.find("pool.workers");
        it != metrics.gauges.end())
        workers = it->second;
    if (workers < 1.0)
        workers = static_cast<double>(hifi::common::numThreads());
    poolBusyNs_ += counter(metrics, "pool.worker_busy_ns");
    poolCapacityNs_ += unitMs * 1e6 * workers;
    poolChunks_ += counter(metrics, "pool.chunks");
    poolJobs_ += counter(metrics, "pool.jobs");
}

void
LayerAccounting::addPipelineUnit(const PipelineTelemetry &telemetry,
                                 const hifi::core::PipelineReport &report,
                                 double unitMs, const StageMs &stageMs)
{
    static const char *const kStageMetric[hifi::core::kNumStages] = {
        "core.stage.fab_ms", "core.stage.acquire_ms",
        "core.stage.postprocess_ms", "core.stage.analyze_ms",
        "core.stage.finalize_ms"};
    double staged = 0.0;
    for (size_t i = 0; i < hifi::core::kNumStages; ++i) {
        samples_.add(kStageMetric[i], stageMs[i]);
        staged += stageMs[i];
    }
    samples_.add("core.unaccounted_ms", unitMs - staged);

    const std::map<std::string, SpanSelf> self =
        spanSelfTimes(telemetry.spans);
    const auto selfMs = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second.selfMs;
    };
    const auto calls = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0
                                : static_cast<double>(it->second.calls);
    };
    const auto keepCalls = [&](const char *span, std::vector<double> &to) {
        if (const auto it = self.find(span); it != self.end())
            to.insert(to.end(), it->second.callSelfUs.begin(),
                      it->second.callSelfUs.end());
    };
    const MetricsSnapshot &m = telemetry.metrics;

    samples_.add("fab.voxelize_ms", selfMs("fab.voxelize"));
    samples_.add("fab.defects_ms", selfMs("fab.defects"));

    samples_.add("scope.sem_image_ms", selfMs("scope.sem_image"));
    samples_.add("scope.sem_image_calls", calls("scope.sem_image"));
    samples_.add("scope.frames_per_slice",
                 ratio(calls("scope.sem_image"),
                       static_cast<double>(report.slices)));
    const double hits = counter(m, "sem.clean_cache.hit");
    samples_.add("scope.clean_cache.hit_ratio",
                 ratio(hits, hits + counter(m, "sem.clean_cache.miss")));
    samples_.add("scope.interpolate_calls", calls("scope.interpolate"));
    keepCalls("scope.sem_image", semCallUs_);

    samples_.add("image.qc_ms", selfMs("image.qc"));
    samples_.add("image.qc_calls", calls("image.qc"));
    keepCalls("image.qc", qcCallUs_);
    samples_.add("image.denoise_ms", selfMs("image.denoise"));
    samples_.add("image.register_ms", selfMs("image.register"));
    samples_.add("image.assemble_ms", selfMs("image.assemble"));
    samples_.add("image.mi_evals", counter(m, "mi.exhaustive.evals"));
    samples_.add("volume.tile.hit", counter(m, "volume.tile.hit"));
    samples_.add("volume.tile.miss", counter(m, "volume.tile.miss"));
    samples_.add("volume.tile.evicted", counter(m, "volume.tile.evicted"));
    samples_.add("volume.tile.spilled_mib",
                 counter(m, "volume.tile.spilled_bytes") / (1 << 20));

    samples_.add("re.analyze_ms", selfMs("re.analyze"));
    samples_.add("re.segmentation_ms", selfMs("re.segmentation"));

    addPool(m, unitMs);
}

void
LayerAccounting::addSolverUnit(const PipelineTelemetry &telemetry,
                               double unitMs, size_t trials)
{
    const std::map<std::string, SpanSelf> self =
        spanSelfTimes(telemetry.spans);
    const auto it = self.find("solver.batch_tran");
    samples_.add("solver.batch_tran_ms",
                 it == self.end() ? 0.0 : it->second.selfMs);

    const MetricsSnapshot &m = telemetry.metrics;
    samples_.add("solver.newton_per_trial",
                 ratio(counter(m, "solver.newton_iterations"),
                       static_cast<double>(trials)));
    samples_.add("solver.lu_refactorizations",
                 counter(m, "solver.lu_refactorizations"));
    samples_.add("solver.dense_fallbacks",
                 counter(m, "solver.dense_fallbacks"));
    // solver.newton_per_step observes once per lane and time step, so
    // its count is the lane-steps the retirements are a share of.
    double laneSteps = 0.0;
    if (const auto h = m.histograms.find("solver.newton_per_step");
        h != m.histograms.end())
        laneSteps = static_cast<double>(h->second.count);
    samples_.add("solver.retired_early_frac",
                 ratio(counter(m, "solver.batch.retired_early"), laneSteps));

    addPool(m, unitMs);
}

std::vector<Metric>
LayerAccounting::metrics() const
{
    Samples all = samples_;
    all.set("pool.busy_frac", ratio(poolBusyNs_, poolCapacityNs_));
    all.set("pool.chunks_per_job", ratio(poolChunks_, poolJobs_));
    all.set("image.qc_call_p50_us", quantile(qcCallUs_, 0.5));
    all.set("image.qc_call_p99_us", quantile(qcCallUs_, 0.99));
    all.set("scope.sem_image_call_p50_us", quantile(semCallUs_, 0.5));
    all.set("scope.sem_image_call_p99_us", quantile(semCallUs_, 0.99));
    return all.metrics(perLayerSpecs());
}

} // namespace perfbench
