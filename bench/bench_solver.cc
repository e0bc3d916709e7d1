/**
 * @file
 * Batched-transient-engine benchmark: wall-clock of the sensingYield
 * Monte-Carlo sweep under the lockstep BatchSimulator at several lane
 * widths, against the retained per-trial scalar engine
 * (TranParams::batchLanes <= 1), plus the forced-portable-SIMD batch.
 * Every batched row is checked for exact agreement (failures count and
 * bitwise meanSignal) with the scalar sweep, so the bench doubles as
 * an equivalence smoke test; the full run additionally pins the
 * 1024-trial goldens (failures=210, meanSignal=0.131616443).
 *
 * Numbers are transcribed into BENCH_solver.json; the "after" column
 * of the previous PR (scalar sparse engine, 392.38 ms at 1024 trials)
 * is the baseline the batched rows are compared against.
 *
 * `--quick` shrinks the trial count and rep counts for CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "circuit/mismatch.hh"
#include "circuit/sense_amp.hh"
#include "circuit/solver.hh"
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
    double fastMs = 0.0;
    double referenceMs = -1.0; ///< < 0: no reference column
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
    std::vector<Row> rows;

    // Scalar per-trial reference sweep (the previous PR's fast path).
    circuit::TranParams scalar_tran = tran;
    scalar_tran.batchLanes = 1;
    circuit::YieldResult ref{};
    Row row_ref;
    row_ref.name =
        "sensing_yield_" + std::to_string(mc.trials) + "_scalar";
    row_ref.fastMs = medianMs([&] {
        ref = circuit::sensingYield(sa, mc, scalar_tran);
    }, reps);
    row_ref.note = std::to_string(ref.failures) + " failures";
    rows.push_back(row_ref);

    if (!quick) {
        // Pin the seed-deterministic goldens recorded in
        // BENCH_solver.json since the sparse-engine PR.
        check(ref.failures == 210, "scalar 1024-trial failures golden");
        check(std::abs(ref.meanSignal - 0.131616443) < 5e-10,
              "scalar 1024-trial meanSignal golden");
    }

    // Batched lockstep sweep at several lane widths; every width must
    // reproduce the scalar sweep exactly.
    for (int lanes : {4, 8, 16}) {
        circuit::TranParams bt = tran;
        bt.batchLanes = lanes;
        circuit::YieldResult got{};
        Row row;
        row.name = "sensing_yield_" + std::to_string(mc.trials) +
            "_batched_lanes_" + std::to_string(lanes);
        row.fastMs = medianMs([&] {
            got = circuit::sensingYield(sa, mc, bt);
        }, reps);
        row.referenceMs = row_ref.fastMs;
        check(got.failures == ref.failures,
              row.name + " failures vs scalar");
        check(std::memcmp(&got.meanSignal, &ref.meanSignal,
                          sizeof(double)) == 0,
              row.name + " meanSignal bitwise vs scalar");
        row.note = "isa " +
            std::string(common::simd::isaName(
                common::simd::activeIsa())) +
            ", vs per-trial scalar";
        rows.push_back(row);
    }

    // Default batch width with the SIMD lane kernels forced off: the
    // portable batched path must also be bitwise identical.
    {
        circuit::TranParams bt = tran; // default batchLanes
        circuit::YieldResult got{};
        Row row;
        row.name = "sensing_yield_" + std::to_string(mc.trials) +
            "_batched_portable";
        common::simd::ScopedForceScalar off;
        row.fastMs = medianMs([&] {
            got = circuit::sensingYield(sa, mc, bt);
        }, reps);
        row.referenceMs = row_ref.fastMs;
        check(got.failures == ref.failures,
              row.name + " failures vs scalar");
        check(std::memcmp(&got.meanSignal, &ref.meanSignal,
                          sizeof(double)) == 0,
              row.name + " meanSignal bitwise vs scalar");
        row.note = "HIFI_SIMD-off equivalent, vs per-trial scalar";
        rows.push_back(row);
    }

    // ---- Report -----------------------------------------------------
    std::cout << "\nBatched solver bench (1 thread, median of " << reps
              << "; reference = per-trial scalar sweep)\n"
              << "trials=" << mc.trials << " failures=" << ref.failures
              << " meanSignal=" << std::setprecision(17)
              << ref.meanSignal << "\n\n";
    for (const Row &r : rows) {
        std::cout << "  " << r.name << ": " << r.fastMs << " ms";
        if (r.referenceMs >= 0.0)
            std::cout << " (scalar " << r.referenceMs << " ms, "
                      << r.referenceMs / r.fastMs << "x)";
        if (!r.note.empty())
            std::cout << " [" << r.note << "]";
        std::cout << "\n";
    }

    // Machine-readable block (transcribed into BENCH_solver.json).
    std::cout << "\nJSON:\n[";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::cout << (i ? ",\n " : "\n ") << "{\"name\": \"" << r.name
                  << "\", \"fast_ms\": " << r.fastMs;
        if (r.referenceMs >= 0.0)
            std::cout << ", \"scalar_ms\": " << r.referenceMs
                      << ", \"speedup\": " << r.referenceMs / r.fastMs;
        std::cout << "}";
    }
    std::cout << "\n]\n";

    if (g_failures) {
        std::cerr << g_failures << " equivalence failure(s)\n";
        return 1;
    }
    return 0;
}
