#include "circuit/mismatch.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/batch.hh"
#include "common/parallel.hh"

namespace hifi
{
namespace circuit
{

double
vthSigma(double w_nm, double l_nm, double avt_vnm)
{
    if (w_nm <= 0.0 || l_nm <= 0.0)
        throw std::invalid_argument("vthSigma: non-positive W or L");
    return avt_vnm / std::sqrt(w_nm * l_nm);
}

YieldResult
sensingYield(const SaParams &base, const MismatchParams &params,
             const TranParams &tran)
{
    // Each trial owns the counter-seeded stream (seed, trial), so the
    // sampled offsets — and therefore the yield — are a pure function
    // of the seed, independent of trial scheduling.  Partials combine
    // in chunk-index order, keeping the double sum deterministic too.
    struct Accum
    {
        size_t failures = 0;
        double signal = 0.0;
    };

    // Chunk grain: the testbench netlist, schedule, and simulator
    // (with its cached matrix structure and symbolic factorization)
    // are built once per chunk; each trial only sets its lane's four
    // latch threshold offsets.  The grain is a fixed constant, so the
    // chunk boundaries — and with them the reduction order — stay
    // independent of the worker thread count.
    constexpr size_t kTrialsPerChunk = 16;

    // The four latch devices, in netlist order (which is also the
    // per-trial RNG sampling order).  Every chunk rebuilds the same
    // topology, so this scan runs once on a prototype instead of once
    // per chunk.
    std::vector<size_t> latch;
    std::vector<double> sigma;
    {
        SaSchedule sched;
        const Netlist proto = buildSaTestbench(base, sched);
        for (size_t i = 0; i < proto.mosfets().size(); ++i) {
            const auto &fet = proto.mosfets()[i];
            if (fet.name == "Mn1" || fet.name == "Mn2" ||
                fet.name == "Mp1" || fet.name == "Mp2") {
                latch.push_back(i);
                sigma.push_back(vthSigma(fet.widthNm, fet.lengthNm,
                                         params.avtVnm));
            }
        }
    }

    // Trials per BatchSimulator block: the fastest width measured
    // (16 lanes ran slower than 8, see DESIGN.md).
    // Each lane runs the per-trial arithmetic, so the width never
    // changes a result.
    constexpr size_t kLanes = 8;

    const auto chunk = [&](size_t t0, size_t t1) {
        Accum acc;
        SaSchedule sched;
        const Netlist net = buildSaTestbench(base, sched);
        BatchSimulator sim(net, kLanes);
        TranParams tp = tran;
        tp.tstop = sched.tEnd;

        for (size_t b0 = t0; b0 < t1; b0 += kLanes) {
            const size_t n = std::min(kLanes, t1 - b0);
            for (size_t l = 0; l < n; ++l) {
                common::Rng rng(params.seed, b0 + l);
                for (size_t k = 0; k < latch.size(); ++k)
                    sim.setVthDelta(l, latch[k],
                                    rng.gaussian(0.0, sigma[k]));
            }
            std::vector<TranResult> results = sim.run(tp, n);
            for (size_t l = 0; l < n; ++l) {
                const SaRun run = analyzeActivation(
                    base, sched, std::move(results[l]), tp.dt);
                if (!run.latchedCorrectly)
                    ++acc.failures;
                acc.signal += std::abs(run.signalBeforeLatch);
            }
        }
        return acc;
    };

    const Accum total = common::parallelReduce(
        0, params.trials, kTrialsPerChunk, Accum{}, chunk,
        [](Accum a, Accum b) {
            a.failures += b.failures;
            a.signal += b.signal;
            return a;
        });

    YieldResult result;
    result.trials = params.trials;
    result.failures = total.failures;
    result.meanSignal = params.trials
        ? total.signal / static_cast<double>(params.trials) : 0.0;
    return result;
}

} // namespace circuit
} // namespace hifi
