/**
 * @file
 * Batched-transient-engine benchmark: wall-clock of the sensingYield
 * Monte-Carlo sweep, which runs its trials as 8-lane BatchSimulator
 * blocks, once with the AVX2 lane kernels (when the CPU has them) and
 * once forced onto the portable lane loops.  The two rows must agree
 * exactly (failures count and bitwise meanSignal), so the bench
 * doubles as an equivalence smoke test; the full run additionally
 * pins both rows bitwise to the 1024-trial goldens (failures=210,
 * meanSignal=0.13161644322958033).  The per-trial scalar reference
 * the goldens were first recorded with lives in
 * tests/solver_reference.hh.
 *
 * Numbers are transcribed into BENCH_solver.json.
 *
 * `--quick` shrinks the trial count and rep counts for CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "circuit/mismatch.hh"
#include "circuit/sense_amp.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"

using namespace hifi;

namespace
{

template <typename F>
double
medianMs(F &&fn, size_t reps)
{
    std::vector<double> ms;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

struct Row
{
    std::string name;
    double ms = 0.0;
    circuit::YieldResult yield;
    std::string note;
};

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "MISMATCH: " << what << "\n";
        ++g_failures;
    }
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    hifi::telemetry::reportPeakRssAtExit();
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--quick]\n";
            return 2;
        }
    }

    // Single-threaded so the numbers isolate lane batching + SIMD
    // from the chunk-level parallelism.
    const common::ScopedThreads one(1);

    // The BENCH_solver.json sensing-yield workload: classic SA,
    // Pelgrom coefficient 9 V*nm, 50 ps steps.
    const circuit::SaParams sa;
    circuit::MismatchParams mc;
    mc.avtVnm = 9.0;
    mc.trials = quick ? 64 : 1024;
    circuit::TranParams tran = circuit::defaultSaTran();
    tran.dt = 50e-12;

    const size_t reps = quick ? 1 : 3;
    const std::string prefix =
        "sensing_yield_" + std::to_string(mc.trials);

    // Default dispatch: AVX2 lane kernels when available.
    Row simd;
    simd.name = prefix + "_batched_lanes_8";
    simd.ms = medianMs([&] {
        simd.yield = circuit::sensingYield(sa, mc, tran);
    }, reps);
    simd.note = "isa " +
        std::string(common::simd::isaName(common::simd::activeIsa()));

    // The same sweep with the SIMD lane kernels forced off.
    Row portable;
    portable.name = prefix + "_batched_portable";
    {
        common::simd::ScopedForceScalar off;
        portable.ms = medianMs([&] {
            portable.yield = circuit::sensingYield(sa, mc, tran);
        }, reps);
    }
    portable.note = "HIFI_SIMD-off equivalent";

    check(portable.yield.failures == simd.yield.failures,
          portable.name + " failures vs " + simd.name);
    check(sameBits(portable.yield.meanSignal, simd.yield.meanSignal),
          portable.name + " meanSignal bitwise vs " + simd.name);
    if (!quick) {
        // The seed-deterministic goldens recorded in BENCH_solver.json
        // since the sparse-engine PR, pinned bitwise on both rows.
        for (const Row *r : {&simd, &portable}) {
            check(r->yield.failures == 210,
                  r->name + " 1024-trial failures golden");
            check(sameBits(r->yield.meanSignal, 0.13161644322958033),
                  r->name + " 1024-trial meanSignal golden");
        }
    }

    // ---- Report -----------------------------------------------------
    std::cout << "\nBatched solver bench (1 thread, median of " << reps
              << ")\n"
              << "trials=" << mc.trials
              << " failures=" << simd.yield.failures
              << " meanSignal=" << std::setprecision(17)
              << simd.yield.meanSignal << std::setprecision(6)
              << "\n\n";
    for (const Row *r : {&simd, &portable})
        std::cout << "  " << r->name << ": " << r->ms << " ms ["
                  << r->note << "]\n";

    // Machine-readable block (transcribed into BENCH_solver.json).
    std::cout << "\nJSON:\n[\n {\"name\": \"" << simd.name
              << "\", \"fast_ms\": " << simd.ms << "},\n {\"name\": \""
              << portable.name << "\", \"fast_ms\": " << portable.ms
              << "}\n]\n";

    if (g_failures) {
        std::cerr << g_failures << " equivalence failure(s)\n";
        return 1;
    }
    return 0;
}
