#include "workloads.hh"

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <optional>

#include <unistd.h>

#include "circuit/mismatch.hh"
#include "circuit/sense_amp.hh"
#include "common/parallel.hh"
#include "core/pipeline.hh"
#include "core/stages.hh"
#include "service/campaign.hh"

namespace perfbench
{

namespace
{

using hifi::core::PipelineConfig;
using hifi::core::PipelineReport;
using hifi::models::ProcessCorner;

std::string
hexDigest(uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, digest);
    return buf;
}

/** One named unit config. */
struct UnitConfig
{
    std::string name;
    PipelineConfig config;
};

/** Per-config fidelity, taken from its first passing unit. */
struct Fidelity
{
    bool topologyOk = false;
    double dimErrNm = 0.0;
    double hours = 0.0;
};

/// Fill the window's fidelity figures (and the per-layer worst
/// dimension error) from the per-config map.
void
summarizeFidelity(const std::map<std::string, Fidelity> &byConfig,
                  WindowStats &stats)
{
    if (byConfig.empty())
        return;
    double ok = 0.0, hours = 0.0, worst = 0.0;
    for (const auto &[name, f] : byConfig) {
        ok += f.topologyOk ? 1.0 : 0.0;
        hours += f.hours;
        worst = std::max(worst, f.dimErrNm);
    }
    const double n = static_cast<double>(byConfig.size());
    stats.correctFrac = ok / n;
    stats.simHours = hours / n;
    stats.layers.set("fidelity.dim_err_max_nm", worst);
}

Fidelity
fidelityOf(const PipelineReport &report)
{
    return {report.topologyCorrect, report.maxDimErrorNm,
            report.campaign.totalHours};
}

/** What one direct pipeline call produced. */
struct PipelineUnit
{
    bool ok = false;
    double ms = 0.0;
    PipelineReport report;
    StageMs stageMs{};
    std::string error;
};

/// The public entry point, untraced.
PipelineUnit
runUntraced(const PipelineConfig &config)
{
    PipelineUnit unit;
    const auto start = Clock::now();
    auto result = hifi::core::runPipelineChecked(config);
    unit.ms = msSince(start);
    if (!result.ok()) {
        unit.error = result.error().message;
        return unit;
    }
    unit.report = result.takeValue();
    unit.ok = true;
    return unit;
}

/// The staged entry points under one telemetry session, each stage
/// timed from outside.
PipelineUnit
runTraced(const PipelineConfig &config)
{
    PipelineUnit unit;
    hifi::telemetry::Session session;
    {
        const hifi::telemetry::SessionBind bind(session);
        const auto start = Clock::now();
        auto init = hifi::core::initStagedRun(config);
        if (!init.ok()) {
            unit.error = init.error().message;
            return unit;
        }
        hifi::core::StagedState state = init.takeValue();
        while (state.next != hifi::core::Stage::Done) {
            const size_t stage = static_cast<size_t>(state.next);
            const auto stageStart = Clock::now();
            if (const auto err = hifi::core::runStage(config, state)) {
                unit.error = err->message;
                return unit;
            }
            unit.stageMs[stage] += msSince(stageStart);
        }
        unit.ms = msSince(start);
        unit.report = std::move(state.report);
    }
    unit.report.telemetry = session.finish({});
    unit.ok = true;
    return unit;
}

/// Trace figures of a window that ran traced and untraced units.
void
setTraceFigures(WindowStats &stats, const std::vector<double> &tracedMs,
                const std::vector<double> &untracedMs, double cpuSeconds)
{
    stats.layers.set("trace.overhead_frac",
                     median(tracedMs) / median(untracedMs) - 1.0);
    stats.layers.set("proc.cpu_util",
                     cpuSeconds / (stats.windowS *
                                   static_cast<double>(availableCpus())));
}

/**
 * Run whole cycles over `n` configs until `seconds` have passed, so
 * every config weighs the same in the unit-time quantiles.  In a
 * traced window each config runs untraced and traced back to back,
 * the order alternating per cycle, so both sets see the same config
 * mix.  `unit(config, traced)` runs one unit and returns its time (ms).
 * Throughput is one cycle's worth of units per the sum over configs of
 * each config's median unit time.
 */
template <typename Unit>
void
runCycles(size_t n, double seconds, bool trace, WindowStats &stats,
          Unit unit)
{
    std::vector<double> tracedMs, untracedMs;
    std::vector<std::vector<double>> passedMs(n);
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    for (size_t cycle = 0; cycle == 0 || secondsSince(start) < seconds;
         ++cycle) {
        for (size_t i = 0; i < n; ++i) {
            for (int k = 0; k < (trace ? 2 : 1); ++k) {
                const bool traced = trace && (k == 0) == (cycle % 2 == 1);
                const size_t passed = stats.passed;
                const double ms = unit(i, traced);
                (traced ? tracedMs : untracedMs).push_back(ms);
                if (stats.passed > passed)
                    passedMs[i].push_back(ms);
            }
        }
    }
    stats.windowS = secondsSince(start);
    double cycleMs = 0.0;
    for (const std::vector<double> &ms : passedMs)
        cycleMs += ms.empty() ? 0.0 : median(ms);
    if (cycleMs > 0.0)
        stats.perMin = 60e3 * static_cast<double>(n) / cycleMs;
    if (trace)
        setTraceFigures(stats, tracedMs, untracedMs,
                        processCpuSeconds() - cpu0);
}

// ---- recon_clean / recon_faulted_tiled ------------------------------

/** Direct pipeline calls over a fixed cycle of configs. */
class PipelineWorkload : public Workload
{
  public:
    // About 35 units at 25 s: p65 leaves at least ten beyond it.
    PipelineWorkload(std::vector<UnitConfig> configs, Ledger ledger,
                     bool pinned)
        : Workload(std::move(ledger), pinned,
                   configs.front().config.threads, 0.65),
          configs_(std::move(configs))
    {
    }

    void
    setUp() override
    {
        runUntraced(configs_.front().config);
    }

    void tearDown() override {}

    void
    measure(double seconds, bool trace, WindowStats &stats) override
    {
        runCycles(configs_.size(), seconds, trace, stats,
                  [&](size_t i, bool traced) {
                      const UnitConfig &unit = configs_[i];
                      const PipelineUnit u = traced ? runTraced(unit.config)
                                                    : runUntraced(unit.config);
                      record(unit, u, true, stats);
                      return u.ms;
                  });
        summarizeFidelity(fidelity_, stats);
    }

    void
    verify(WindowStats &stats) override
    {
        // Away from the pins, every config must repeat its own result,
        // and a traced run must match the untraced ones.
        if (!pinned_)
            for (const UnitConfig &unit : configs_)
                if (ledger_.seen(unit.name) < 2)
                    record(unit, runUntraced(unit.config), false, stats);
        if (!anyTraced_)
            record(configs_.front(), runTraced(configs_.front().config),
                   false, stats);
    }

  private:
    void
    record(const UnitConfig &unit, const PipelineUnit &u, bool timed,
           WindowStats &stats)
    {
        ++stats.attempted;
        bool ok = u.ok;
        if (!ok)
            std::cerr << "unit " << unit.name << " failed: " << u.error
                      << "\n";
        else
            ok = ledger_.check(unit.name,
                               hexDigest(hifi::core::reportDigest(u.report)));
        if (!ok) {
            ++stats.failed;
            return;
        }
        fidelity_.emplace(unit.name, fidelityOf(u.report));
        if (u.report.telemetry) {
            anyTraced_ = true;
            if (timed)
                stats.layers.addPipelineUnit(*u.report.telemetry, u.report,
                                             u.ms, u.stageMs);
        }
        if (timed) {
            ++stats.passed;
            stats.unitMs.push_back(u.ms);
        }
    }

    std::vector<UnitConfig> configs_;
    bool anyTraced_ = false;
    std::map<std::string, Fidelity> fidelity_;
};

// ---- campaign_mixed -------------------------------------------------

/** A CampaignService fed by a closed loop of job submissions. */
class CampaignWorkload : public Workload
{
  public:
    // About 60 jobs at 25 s.
    CampaignWorkload(std::vector<UnitConfig> configs, Ledger ledger,
                     bool pinned, size_t workers)
        : Workload(std::move(ledger), pinned,
                   configs.front().config.threads, 0.75),
          configs_(std::move(configs)), workers_(workers)
    {
    }

    ~CampaignWorkload() override { tearDown(); }

    void
    setUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
            ("perfbench-campaign-" + std::to_string(::getpid()) + "-" +
             std::to_string(setups_++));
        std::filesystem::remove_all(dir_);
        hifi::service::ServiceConfig config;
        config.workers = workers_;
        config.checkpointDir = dir_.string();
        config.cleanFrameCacheCapacity = 16;
        service_ = std::make_unique<hifi::service::CampaignService>(config);
        const auto id = service_->submit("warmup", configs_.front().config);
        if (id.ok())
            service_->wait(id.value(), 170.0);
    }

    void
    tearDown() override
    {
        inflight_.clear(); // joins any waiter before the service goes
        service_.reset();
        if (!dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
            dir_.clear();
        }
    }

    void
    measure(double seconds, bool trace, WindowStats &stats) override
    {
        const auto countersBefore = hifi::telemetry::registry().snapshot();
        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        std::vector<double> tracedMs, untracedMs, doneS;
        auto lastDone = start;

        // The closed loop keeps 2 x workers jobs outstanding and
        // submits the next one when the oldest completes.  A traced
        // run spends its first half untraced, drains, then traces
        // every job (concurrent untraced jobs would leak records
        // into a lone traced session).
        const size_t depth = 2 * workers_;
        bool tracing = false;
        for (;;) {
            const double elapsed = secondsSince(start);
            const bool wantTrace = trace && elapsed >= seconds / 2;
            const bool submitting = elapsed < seconds;
            if (submitting && wantTrace == tracing &&
                inflight_.size() < depth) {
                submit(tracing, stats);
                continue;
            }
            if (inflight_.empty()) {
                if (!submitting)
                    break;
                tracing = wantTrace; // drained: switch phase
                continue;
            }
            const Done done = complete(stats);
            lastDone = std::max(lastDone, done.at);
            if (done.passed) {
                (done.traced ? tracedMs : untracedMs).push_back(done.ms);
                doneS.push_back(
                    std::chrono::duration<double>(done.at - start).count());
            }
        }
        stats.windowS =
            std::chrono::duration<double>(lastDone - start).count();
        // Jobs overlap, so the rate comes from completion times: the
        // median span of one cycle of completions.
        stats.perMin = medianRatePerMin(doneS, configs_.size());

        const auto after = hifi::telemetry::registry().snapshot().since(
            countersBefore);
        const auto count = [&](const char *name) {
            const auto it = after.counters.find(name);
            return it == after.counters.end()
                ? 0.0
                : static_cast<double>(it->second);
        };
        const double hits = count("service.cache.volume.hit");
        const double misses = count("service.cache.volume.miss");
        const double jobs = std::max<double>(1.0, stats.attempted);
        stats.layers.set("service.submit_us", median(submitUs_));
        stats.layers.set("service.volume_cache.hit_ratio",
                         hits + misses > 0 ? hits / (hits + misses) : 0.0);
        stats.layers.set("service.checkpoints_per_job", checkpoints_ / jobs);
        stats.layers.set("service.retries_per_job", retries_ / jobs);
        if (trace)
            setTraceFigures(stats, tracedMs, untracedMs,
                            processCpuSeconds() - cpu0);
        summarizeFidelity(fidelity_, stats);
    }

    void
    verify(WindowStats &stats) override
    {
        // Away from the pins, every job must match a direct (traced)
        // run of its config.
        if (pinned_)
            return;
        for (const UnitConfig &unit : configs_) {
            if (ledger_.seen(unit.name) == 0)
                continue;
            PipelineConfig config = unit.config;
            config.telemetry.enabled = true;
            const PipelineUnit u = runUntraced(config);
            ++stats.attempted;
            const bool ok = u.ok &&
                ledger_.check(unit.name,
                              hexDigest(hifi::core::reportDigest(u.report)));
            if (!ok) {
                if (!u.ok)
                    std::cerr << "direct run of " << unit.name
                              << " failed: " << u.error << "\n";
                ++stats.failed;
            }
        }
    }

  private:
    /** A job's terminal status, as its waiter saw it. */
    struct Outcome
    {
        Clock::time_point at;
        hifi::service::JobStatus status;
        std::optional<PipelineReport> report;
    };

    struct InFlight
    {
        size_t config = 0;
        bool traced = false;
        Clock::time_point submitted;
        std::future<Outcome> outcome;
    };

    struct Done
    {
        Clock::time_point at;
        double ms = 0.0;
        bool passed = false;
        bool traced = false;
    };

    void
    submit(bool traced, WindowStats &stats)
    {
        const size_t index = next_++ % configs_.size();
        PipelineConfig config = configs_[index].config;
        config.telemetry.enabled = traced;
        const auto submitted = Clock::now();
        const auto id =
            service_->submit("job-" + std::to_string(next_), config);
        submitUs_.push_back(msSince(submitted) * 1e3);
        if (!id.ok()) {
            std::cerr << "submit of " << configs_[index].name
                      << " failed: " << id.error().message << "\n";
            ++stats.attempted;
            ++stats.failed;
            return;
        }
        // One waiter per job records its completion time as it
        // happens, not when the benchmark thread gets to it.
        hifi::service::CampaignService *service = service_.get();
        const uint64_t job = id.value();
        inflight_.push_back(
            {index, traced, submitted,
             std::async(std::launch::async, [service, job] {
                 Outcome out;
                 service->wait(job, 170.0);
                 out.at = Clock::now();
                 out.status = service->status(job);
                 if (out.status.state ==
                     hifi::service::JobState::Completed) {
                     auto report = service->result(job);
                     if (report.ok())
                         out.report = report.takeValue();
                 }
                 return out;
             })});
    }

    Done
    complete(WindowStats &stats)
    {
        InFlight job = std::move(inflight_.front());
        inflight_.pop_front();
        const Outcome out = job.outcome.get();
        const UnitConfig &unit = configs_[job.config];
        Done done;
        done.at = out.at;
        done.traced = job.traced;
        done.ms = std::chrono::duration<double, std::milli>(
                      out.at - job.submitted)
                      .count();
        ++stats.attempted;
        checkpoints_ += static_cast<double>(out.status.checkpointsSaved);
        retries_ += static_cast<double>(
            out.status.attempts > 0 ? out.status.attempts - 1 : 0);
        if (!out.report) {
            std::cerr << "job " << unit.name << " ended "
                      << hifi::service::jobStateName(out.status.state)
                      << (out.status.error
                              ? ": " + out.status.error->message
                              : std::string())
                      << "\n";
            ++stats.failed;
            return done;
        }
        if (!ledger_.check(unit.name, hexDigest(out.status.reportDigest))) {
            ++stats.failed;
            return done;
        }
        done.passed = true;
        ++stats.passed;
        stats.unitMs.push_back(done.ms);
        fidelity_.emplace(unit.name, fidelityOf(*out.report));
        if (job.traced && out.report->telemetry)
            stats.layers.addPipelineUnit(*out.report->telemetry, *out.report,
                                         done.ms,
                                         stageSpanMs(*out.report->telemetry));
        return done;
    }

    std::vector<UnitConfig> configs_;
    size_t workers_ = 1;

    std::filesystem::path dir_;
    size_t setups_ = 0;
    size_t next_ = 0;
    std::vector<double> submitUs_;
    double checkpoints_ = 0.0;
    double retries_ = 0.0;
    std::map<std::string, Fidelity> fidelity_;

    // Declared last: waiters use the service, so they are destroyed
    // (and joined) before it.  measure() always drains them.
    std::unique_ptr<hifi::service::CampaignService> service_;
    std::deque<InFlight> inflight_;
};

// ---- mc_yield -------------------------------------------------------

/** One sensingYield sweep point. */
struct YieldPoint
{
    std::string name;
    hifi::circuit::SaParams sa;
    hifi::circuit::MismatchParams mc;
    double simSecondsPerTrial = 0.0; ///< simulated transient length
};

/** Monte-Carlo sensing-yield calls over a fixed cycle of points. */
class YieldWorkload : public Workload
{
  public:
    // About 500 calls at 25 s.
    YieldWorkload(std::vector<YieldPoint> points, Ledger ledger,
                  bool pinned, size_t threads)
        : Workload(std::move(ledger), pinned, threads, 0.95),
          points_(std::move(points))
    {
        tran_ = hifi::circuit::defaultSaTran();
        tran_.dt = 50e-12;
    }

    void
    setUp() override
    {
        hifi::common::setNumThreads(unitThreads());
        run(points_.front(), false);
    }

    void tearDown() override {}

    void
    measure(double seconds, bool trace, WindowStats &stats) override
    {
        runCycles(points_.size(), seconds, trace, stats,
                  [&](size_t i, bool traced) {
                      const Unit u = run(points_[i], traced);
                      record(points_[i], u, true, stats);
                      return u.ms;
                  });
        if (!yieldByPoint_.empty()) {
            double yield = 0.0, hours = 0.0;
            for (const YieldPoint &p : points_) {
                const auto it = yieldByPoint_.find(p.name);
                if (it != yieldByPoint_.end())
                    yield += it->second;
                hours += static_cast<double>(p.mc.trials) *
                    p.simSecondsPerTrial / 3600.0;
            }
            const double n = static_cast<double>(points_.size());
            stats.correctFrac = yield / n;
            stats.simHours = hours / n;
        }
    }

    void
    verify(WindowStats &stats) override
    {
        if (!pinned_)
            for (const YieldPoint &point : points_)
                if (ledger_.seen(point.name) < 2)
                    record(point, run(point, false), false, stats);
        if (!anyTraced_)
            record(points_.front(), run(points_.front(), true), false,
                   stats);
    }

  private:
    struct Unit
    {
        double ms = 0.0;
        hifi::circuit::YieldResult result;
        std::shared_ptr<const hifi::telemetry::PipelineTelemetry> telemetry;
    };

    Unit
    run(const YieldPoint &point, bool traced)
    {
        Unit u;
        if (!traced) {
            const auto start = Clock::now();
            u.result = hifi::circuit::sensingYield(point.sa, point.mc, tran_);
            u.ms = msSince(start);
            return u;
        }
        hifi::telemetry::Session session;
        {
            const hifi::telemetry::SessionBind bind(session);
            const auto start = Clock::now();
            u.result = hifi::circuit::sensingYield(point.sa, point.mc, tran_);
            u.ms = msSince(start);
        }
        u.telemetry = session.finish({});
        return u;
    }

    void
    record(const YieldPoint &point, const Unit &u, bool timed,
           WindowStats &stats)
    {
        ++stats.attempted;
        char value[96];
        std::snprintf(value, sizeof(value), "failures=%zu meanSignal=%.17g",
                      u.result.failures, u.result.meanSignal);
        if (!ledger_.check(point.name, value)) {
            ++stats.failed;
            return;
        }
        yieldByPoint_.emplace(point.name, 1.0 - u.result.failureRate());
        if (u.telemetry) {
            anyTraced_ = true;
            if (timed)
                stats.layers.addSolverUnit(*u.telemetry, u.ms,
                                           point.mc.trials);
        }
        if (timed) {
            ++stats.passed;
            stats.unitMs.push_back(u.ms);
        }
    }

    std::vector<YieldPoint> points_;
    bool anyTraced_ = false;
    hifi::circuit::TranParams tran_;
    std::map<std::string, double> yieldByPoint_;
};

// ---- Workload definitions -------------------------------------------

PipelineConfig
pipelineConfig(const char *chip, size_t stackedSas, uint64_t seed,
               size_t salt, size_t threads)
{
    PipelineConfig config;
    config.chipId = chip;
    config.pairs = 2;
    config.stackedSas = stackedSas;
    config.seed = deriveSeed(seed, salt);
    config.threads = threads;
    return config;
}

/// All six Table-I chips, fault-free and in RAM.  The 4-series chips
/// and A5 image two stacked SA sets, so every unit costs about the
/// same and the unit-time median sits inside one cluster.
std::vector<UnitConfig>
reconCleanConfigs(uint64_t seed, size_t threads)
{
    struct Chip
    {
        const char *id;
        size_t stackedSas;
    };
    const Chip chips[] = {{"A4", 2}, {"B4", 1}, {"C4", 2},
                          {"A5", 2}, {"B5", 1}, {"C5", 1}};
    std::vector<UnitConfig> out;
    for (size_t i = 0; i < std::size(chips); ++i) {
        const Chip &c = chips[i];
        out.push_back(
            {std::string(c.id) + (c.stackedSas > 1 ? "-sas2" : ""),
             pipelineConfig(c.id, c.stackedSas, seed, i, threads)});
    }
    return out;
}

/// Long DDR5 stacks (B5, C5) and the largest volume (B4) with the
/// default fault model, a non-Typical corner, one planted defect each,
/// and a memory budget that streams post-processing into the tile
/// store.
std::vector<UnitConfig>
reconFaultedConfigs(uint64_t seed, size_t threads)
{
    constexpr size_t kBudget = 32ull << 20;
    std::vector<UnitConfig> out;
    const auto add = [&](const char *name, const char *chip,
                         ProcessCorner corner, size_t particles,
                         size_t opens, size_t vias) {
        PipelineConfig config =
            pipelineConfig(chip, 1, seed, 100 + out.size(), threads);
        config.faults.enabled = true;
        config.memoryBudget = kBudget;
        config.corner = corner;
        config.defects.seed = config.seed;
        config.defects.particles = particles;
        config.defects.bitlineOpens = opens;
        config.defects.missingVias = vias;
        out.push_back({name, config});
    };
    add("B4-slow-via", "B4", ProcessCorner::Slow, 0, 0, 1);
    add("B5-slow-particle", "B5", ProcessCorner::Slow, 1, 0, 0);
    add("C5-fast-open", "C5", ProcessCorner::Fast, 0, 1, 0);
    return out;
}

/// Three short-stack fab identities, each submitted clean and then
/// faulted, so the second job of a pair hits the post-Fab volume
/// cache.  Small jobs keep the queue, checkpoints and caches a large
/// share of each job.
std::vector<UnitConfig>
campaignConfigs(uint64_t seed, size_t threads)
{
    const char *const chips[] = {"A4", "C4", "A5"};
    std::vector<UnitConfig> out;
    for (size_t i = 0; i < std::size(chips); ++i) {
        PipelineConfig config =
            pipelineConfig(chips[i], 1, seed, 200 + i, threads);
        out.push_back({std::string(chips[i]) + "-clean", config});
        config.faults.enabled = true;
        out.push_back({std::string(chips[i]) + "-faulted", config});
    }
    return out;
}

/// Classic and offset-cancellation SAs x Pelgrom 3/6/9 V*nm: 1024
/// classic trials and 576 offset-cancellation trials, which cost
/// about the same, so the unit-time median sits inside one cluster.
/// At the default seed the Monte-Carlo seed is the library default,
/// which carries the classic 9 V*nm 1024-trial golden.
std::vector<YieldPoint>
yieldPoints(uint64_t seed)
{
    std::vector<YieldPoint> out;
    for (const auto topology :
         {hifi::circuit::SaTopology::Classic,
          hifi::circuit::SaTopology::OffsetCancellation}) {
        for (const double avt : {3.0, 6.0, 9.0}) {
            YieldPoint p;
            p.sa.topology = topology;
            p.mc.avtVnm = avt;
            p.mc.trials =
                topology == hifi::circuit::SaTopology::Classic ? 1024 : 576;
            p.mc.seed = hifi::circuit::MismatchParams{}.seed +
                7919 * (seed - kDefaultSeed);
            hifi::circuit::SaSchedule schedule;
            hifi::circuit::buildSaTestbench(p.sa, schedule);
            p.simSecondsPerTrial = schedule.tEnd;
            p.name = std::string(topology ==
                                         hifi::circuit::SaTopology::Classic
                                     ? "classic"
                                     : "ocsa") +
                "-avt" + std::to_string(static_cast<int>(avt));
            out.push_back(std::move(p));
        }
    }
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "recon_clean", "recon_faulted_tiled", "campaign_mixed", "mc_yield"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, const Pins &pins)
{
    const bool pinned = options.seed == kDefaultSeed && !options.printPins;
    const auto it = pins.find(options.workload);
    Ledger ledger(it == pins.end() ? std::map<std::string, std::string>{}
                                   : it->second,
                  pinned);
    const size_t cpus = availableCpus();
    const uint64_t seed = options.seed;
    if (options.workload == "recon_clean")
        return std::make_unique<PipelineWorkload>(
            reconCleanConfigs(seed, cpus), std::move(ledger), pinned);
    if (options.workload == "recon_faulted_tiled")
        return std::make_unique<PipelineWorkload>(
            reconFaultedConfigs(seed, cpus), std::move(ledger), pinned);
    if (options.workload == "campaign_mixed") {
        // Workers x per-job threads = the CPUs available.
        const size_t workers = cpus >= 2 ? 2 : 1;
        return std::make_unique<CampaignWorkload>(
            campaignConfigs(seed, std::max<size_t>(1, cpus / workers)),
            std::move(ledger), pinned, workers);
    }
    if (options.workload == "mc_yield")
        return std::make_unique<YieldWorkload>(
            yieldPoints(seed), std::move(ledger), pinned, cpus);
    return nullptr;
}

} // namespace perfbench
