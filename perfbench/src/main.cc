/**
 * @file
 * hifi_perfbench: runs one workload of the end-to-end benchmark.
 *
 *   hifi_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--pins FILE] [--print-pins]
 *                  [--commit ID] [--source-digest HEX]
 *
 * Prints an environment stamp and notes, then, as the last line of
 * standard output, one JSON object with the keys correct, attempted,
 * failed and metrics: the end-to-end metrics untraced, the per-layer
 * metrics with --trace 1.  Exit status 0 when every unit passed its
 * output check, 1 when any failed, 2 on a usage error.  perfbench/run.py
 * builds this program and is the usual way to run it.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include <malloc.h>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"

#include "harness.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/// Set-up time of the first set-up counts from process start.
const Clock::time_point g_processStart = Clock::now();

int
usage(const std::string &why)
{
    std::cerr << "hifi_perfbench: " << why << "\n"
              << "usage: hifi_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--pins FILE] "
                 "[--print-pins] [--commit ID] [--source-digest HEX]\n"
              << "workloads:";
    for (const std::string &name : workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

bool
parse(int argc, char **argv, Options &options, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-pins") {
            options.printPins = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") {
                error = "--trace takes 0 or 1";
                return false;
            }
            options.trace = value == "1";
        } else if (arg == "--pins") {
            options.pinsPath = value;
        } else if (arg == "--commit") {
            options.commit = value;
        } else if (arg == "--source-digest") {
            options.sourceDigest = value;
        } else {
            error = "unknown option " + arg;
            return false;
        }
        const bool badNumber = end != nullptr &&
            (end == value.c_str() || *end != '\0');
        if (badNumber || (arg == "--seconds" && !(options.seconds > 0.0))) {
            error = "bad value for " + arg + ": " + value;
            return false;
        }
    }
    if (options.workload.empty()) {
        error = "--workload is required";
        return false;
    }
    return true;
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

/// One-line JSON stamp of how and where the numbers were produced.
std::string
envStamp(const Options &options, const Workload &workload,
         const WindowStats &stats, const std::vector<double> &setupS,
         double steal)
{
    const double q = workload.tailQuantile();
    const double tail = quantile(stats.unitMs, q);
    size_t beyond = 0;
    for (const double ms : stats.unitMs)
        beyond += ms > tail ? 1 : 0;
    const char *simdEnv = std::getenv("HIFI_SIMD");

    std::ostringstream out;
    out.precision(6);
    out << "{\"workload\": \"" << jsonEscape(options.workload)
        << "\", \"seed\": " << options.seed
        << ", \"seconds\": " << options.seconds
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
        << "\", \"optimized\": " << (optimizedBuild() ? "true" : "false")
        << ", \"simd_env\": \"" << jsonEscape(simdEnv ? simdEnv : "")
        << "\", \"simd_isa\": \""
        << hifi::common::simd::isaName(hifi::common::simd::activeIsa())
        << "\", \"nproc\": " << availableCpus()
        << ", \"pool_threads\": " << hifi::common::numThreads()
        << ", \"unit_threads\": " << workload.unitThreads()
        << ", \"commit\": \"" << jsonEscape(options.commit)
        << "\", \"source_digest\": \"" << jsonEscape(options.sourceDigest)
        << "\", \"units\": " << stats.unitMs.size()
        << ", \"unit_q1_ms\": " << quantile(stats.unitMs, 0.25)
        << ", \"unit_q2_ms\": " << quantile(stats.unitMs, 0.5)
        << ", \"unit_q3_ms\": " << quantile(stats.unitMs, 0.75)
        << ", \"tail_quantile\": " << q
        << ", \"units_beyond_tail\": " << beyond
        << ", \"window_s\": " << stats.windowS
        << ", \"host_steal_frac\": " << steal
        << ", \"attempted\": " << stats.attempted
        << ", \"failed\": " << stats.failed << ", \"fail_frac\": "
        << (stats.attempted
                ? static_cast<double>(stats.failed) /
                    static_cast<double>(stats.attempted)
                : 0.0)
        << ", \"setup_runs_s\": [";
    for (size_t i = 0; i < setupS.size(); ++i)
        out << (i ? ", " : "") << setupS[i];
    out << "]}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(__GLIBC__)
    // glibc raises its mmap threshold after each large free, so whether
    // a large buffer comes from the heap, and with it the process's
    // peak RSS, depends on allocation history (67 or 92 MiB for the
    // same recon_faulted_tiled units).  A fixed threshold makes
    // peak_rss_mib follow the working set; timings are unchanged
    // within noise.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
#endif

    Options options;
    std::string error;
    if (!parse(argc, argv, options, error))
        return usage(error);

    Pins pins;
    if (!options.pinsPath.empty()) {
        try {
            pins = loadPins(options.pinsPath);
        } catch (const std::exception &e) {
            return usage(e.what());
        }
    }
    const std::unique_ptr<Workload> workload = makeWorkload(options, pins);
    if (!workload)
        return usage("unknown workload '" + options.workload + "'");

    hifi::common::setLogLevel(hifi::common::LogLevel::Warn);
    if (!optimizedBuild())
        std::cerr << "WARNING: hifi_perfbench was built without "
                     "optimization; its timings are not comparable\n";

    // Set-up runs five times (the first from process start) and the
    // median is reported, so one slow start does not decide setup_s.
    // A traced run reports no setup_s and sets up once.
    std::vector<double> setupS;
    const size_t setups = options.trace ? 1 : 5;
    for (size_t i = 0; i < setups; ++i) {
        if (i > 0)
            workload->tearDown();
        const Clock::time_point start =
            i == 0 ? g_processStart : Clock::now();
        workload->setUp();
        setupS.push_back(secondsSince(start));
    }

    WindowStats stats;
    const MachineCpu cpuBefore = readMachineCpu();
    workload->measure(options.seconds, options.trace, stats);
    const double steal = stealShare(cpuBefore, readMachineCpu());    workload->verify(stats);
    const double peakRssMiB =
        static_cast<double>(hifi::telemetry::peakRssBytes()) / (1 << 20);
    workload->tearDown();

    RunResult result;
    result.attempted = stats.attempted;
    result.failed = stats.failed;
    result.correct = stats.failed == 0 && stats.passed > 0;
    if (options.trace) {
        result.metrics = stats.layers.metrics();
    } else {
        Samples e2e;
        e2e.set("setup_s", median(setupS));
        e2e.set("unit_p50_ms", quantile(stats.unitMs, 0.5));
        e2e.set("unit_tail_ms",
                quantile(stats.unitMs, workload->tailQuantile()));
        e2e.set("throughput_per_min", stats.perMin);
        e2e.set("peak_rss_mib", peakRssMiB);
        e2e.set("fidelity.correct_frac", stats.correctFrac);
        e2e.set("sim.campaign_hours", stats.simHours);
        result.metrics = e2e.metrics(endToEndSpecs());
    }

    std::cout << "env " << envStamp(options, *workload, stats, setupS, steal)
              << "\n";
    if (!optimizedBuild())
        std::cout << "note: WARNING unoptimized build\n";
    if (steal > 0.05)
        std::cout << "note: the hypervisor took " << std::lround(100 * steal)
                  << "% of the CPU time this run wanted; timings are "
                     "inflated\n";
    const double q = workload->tailQuantile();
    if (stats.unitMs.size() * (1.0 - q) < 10.0)
        std::cout << "note: unit_tail_ms is p" << std::lround(100 * q)
                  << " of only " << stats.unitMs.size()
                  << " units (fewer than ten beyond it)\n";
    if (options.printPins)
        for (const auto &[config, value] : workload->observed())
            std::cout << "pin " << options.workload << " " << config << " "
                      << value << "\n";
    std::cout << resultJson(result) << std::endl;
    return result.correct ? 0 : 1;
}
