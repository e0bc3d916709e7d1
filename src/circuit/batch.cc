#include "circuit/batch.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/telemetry.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace circuit
{

BatchSimulator::BatchSimulator(const Netlist &netlist, size_t maxLanes)
    : netlist_(netlist), st_(netlist), maxLanes_(maxLanes)
{
    if (maxLanes_ == 0)
        throw std::invalid_argument("BatchSimulator: zero lanes");
    const size_t L = maxLanes_;
    const size_t nmos = netlist_.mosfets().size();
    vthDelta_.assign(nmos * L, 0.0);
    for (size_t mi = 0; mi < nmos; ++mi)
        for (size_t l = 0; l < L; ++l)
            vthDelta_[mi * L + l] = netlist_.mosfets()[mi].vthDelta;
    forceDense_.assign(L, 0);

    baseVals_.assign(st_.lu.slots(), 0.0);
    baseValsStep0_.assign(st_.lu.slots(), 0.0);
    workVals_.assign(st_.lu.slots() * L, 0.0);
    rhsStep_.assign(st_.dim * L, 0.0);
    rhsWork_.assign(st_.dim * L, 0.0);
    x_.assign(st_.dim * L, 0.0);
    v_.assign(netlist_.numNodes() * L, 0.0);
    capPrev_.assign(netlist_.capacitors().size() * L, 0.0);
    capIPrev_.assign(netlist_.capacitors().size() * L, 0.0);
    capGeq_.assign(netlist_.capacitors().size(), 0.0);
    branchCurrents_.assign(st_.ns * L, 0.0);
    okLanes_.assign(L, 0);

    laneVals_.assign(st_.lu.slots(), 0.0);
    laneRhs_.assign(st_.dim, 0.0);
    laneX_.assign(st_.dim, 0.0);
    denseA_.assign(st_.dim * st_.dim, 0.0);
    denseB_.assign(st_.dim, 0.0);
}

void
BatchSimulator::setVthDelta(size_t lane, size_t mosfetIndex,
                            double delta)
{
    if (lane >= maxLanes_)
        throw std::out_of_range("BatchSimulator: lane out of range");
    if (mosfetIndex >= netlist_.mosfets().size())
        throw std::out_of_range("BatchSimulator: mosfet out of range");
    vthDelta_[mosfetIndex * maxLanes_ + lane] = delta;
}

void
BatchSimulator::setForceDenseFallback(size_t lane, bool on)
{
    if (lane >= maxLanes_)
        throw std::out_of_range("BatchSimulator: lane out of range");
    forceDense_[lane] = on ? 1 : 0;
}

void
BatchSimulator::restampLane(size_t lane, size_t lanes,
                            const std::vector<double> &base,
                            double *vals, double *rhs)
{
    const size_t L = lanes;
    std::copy(base.begin(), base.end(), vals);
    for (size_t row = 0; row < st_.dim; ++row)
        rhs[row] = rhsStep_[row * L + lane];
    const auto &mosfets = netlist_.mosfets();
    for (size_t mi = 0; mi < mosfets.size(); ++mi) {
        const auto &m = mosfets[mi];
        const auto &sl = st_.mosfetSlots[mi];
        const double vd = v_[static_cast<size_t>(m.drain) * L + lane];
        const double vg = v_[static_cast<size_t>(m.gate) * L + lane];
        const double vs = v_[static_cast<size_t>(m.source) * L + lane];
        const MosEval ev =
            evalMosfet(m, vthDelta_[mi * maxLanes_ + lane], vd, vg, vs);
        const double i0 = ev.id - ev.dIdVd * vd - ev.dIdVg * vg -
            ev.dIdVs * vs;
        const double der[3] = {ev.dIdVd, ev.dIdVg, ev.dIdVs};
        for (int r = 0; r < 2; ++r) {
            if (sl.rhs[r] < 0)
                continue;
            const double dir = r == 0 ? 1.0 : -1.0;
            for (int c = 0; c < 3; ++c)
                if (sl.m[r][c] >= 0)
                    vals[static_cast<size_t>(sl.m[r][c])] +=
                        dir * der[c];
            rhs[static_cast<size_t>(sl.rhs[r])] -= dir * i0;
        }
    }
}

void
BatchSimulator::stampLanesScalar(size_t lanes, const uint8_t *active)
{
    const size_t L = lanes;
    const auto &mosfets = netlist_.mosfets();
    for (size_t mi = 0; mi < mosfets.size(); ++mi) {
        const auto &m = mosfets[mi];
        const auto &sl = st_.mosfetSlots[mi];
        const double *vd_row =
            v_.data() + static_cast<size_t>(m.drain) * L;
        const double *vg_row =
            v_.data() + static_cast<size_t>(m.gate) * L;
        const double *vs_row =
            v_.data() + static_cast<size_t>(m.source) * L;
        const double *delta_row = vthDelta_.data() + mi * maxLanes_;
        for (size_t l = 0; l < L; ++l) {
            if (!active[l])
                continue;
            const double vd = vd_row[l];
            const double vg = vg_row[l];
            const double vs = vs_row[l];
            const MosEval ev =
                evalMosfet(m, delta_row[l], vd, vg, vs);
            const double i0 = ev.id - ev.dIdVd * vd - ev.dIdVg * vg -
                ev.dIdVs * vs;
            const double der[3] = {ev.dIdVd, ev.dIdVg, ev.dIdVs};
            for (int r = 0; r < 2; ++r) {
                if (sl.rhs[r] < 0)
                    continue;
                const double dir = r == 0 ? 1.0 : -1.0;
                for (int c = 0; c < 3; ++c)
                    if (sl.m[r][c] >= 0)
                        workVals_[static_cast<size_t>(sl.m[r][c]) * L +
                                  l] += dir * der[c];
                rhsWork_[static_cast<size_t>(sl.rhs[r]) * L + l] -=
                    dir * i0;
            }
        }
    }
}

#if HIFI_SIMD_AVX2_COMPILED

HIFI_AVX2_TARGET void
BatchSimulator::stampLanesAvx2(size_t lanes)
{
    const size_t L = lanes;
    const size_t G = L / 4;
    const auto &mosfets = netlist_.mosfets();

    const __m256d zero = _mm256_setzero_pd();
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d minus_one = _mm256_set1_pd(-1.0);
    const __m256d gmin = _mm256_set1_pd(1e-12);
    const __m256d signbit = _mm256_castsi256_pd(
        _mm256_set1_epi64x(static_cast<long long>(
            0x8000000000000000ULL)));

    for (size_t mi = 0; mi < mosfets.size(); ++mi) {
        const auto &m = mosfets[mi];
        const auto &sl = st_.mosfetSlots[mi];
        const double sign_s =
            (m.model.type == MosType::Nmos) ? 1.0 : -1.0;
        const double beta_s = m.model.kp * m.wOverL();
        const __m256d sign = _mm256_set1_pd(sign_s);
        const __m256d beta = _mm256_set1_pd(beta_s);
        // The saturation formulas start `0.5 * beta * ...`; the
        // scalar left-association makes (0.5 * beta) one rounding.
        const __m256d halfbeta = _mm256_set1_pd(0.5 * beta_s);
        const __m256d vth0 = _mm256_set1_pd(m.model.vth);
        const __m256d lam = _mm256_set1_pd(m.model.lambda);
        const double *vdp =
            v_.data() + static_cast<size_t>(m.drain) * L;
        const double *vgp =
            v_.data() + static_cast<size_t>(m.gate) * L;
        const double *vsp =
            v_.data() + static_cast<size_t>(m.source) * L;
        const double *dp = vthDelta_.data() + mi * maxLanes_;

        for (size_t g = 0; g < G; ++g) {
            const __m256d vd = _mm256_loadu_pd(vdp + 4 * g);
            const __m256d vg = _mm256_loadu_pd(vgp + 4 * g);
            const __m256d vs = _mm256_loadu_pd(vsp + 4 * g);

            // NMOS-equivalent frame, then the symmetric (high, low)
            // terminal swap as a compare + two blends — exactly the
            // scalar `if (eq_d < eq_s) swap(...)`.
            const __m256d eq_d = _mm256_mul_pd(sign, vd);
            const __m256d eq_g = _mm256_mul_pd(sign, vg);
            const __m256d eq_s = _mm256_mul_pd(sign, vs);
            const __m256d swapm =
                _mm256_cmp_pd(eq_d, eq_s, _CMP_LT_OQ);
            const __m256d hi = _mm256_blendv_pd(eq_d, eq_s, swapm);
            const __m256d lo = _mm256_blendv_pd(eq_s, eq_d, swapm);

            const __m256d vgs = _mm256_sub_pd(eq_g, lo);
            const __m256d vds = _mm256_sub_pd(hi, lo);
            const __m256d vth =
                _mm256_add_pd(vth0, _mm256_loadu_pd(dp + 4 * g));
            const __m256d vov = _mm256_sub_pd(vgs, vth);

            // All three operating regions, then blend by region mask.
            // Each expression mirrors the scalar association; lanes in
            // another region compute dead values that blend away.
            const __m256d id_c = _mm256_mul_pd(gmin, vds);
            const __m256d id_l = _mm256_mul_pd(
                beta,
                _mm256_sub_pd(
                    _mm256_mul_pd(vov, vds),
                    _mm256_mul_pd(_mm256_mul_pd(half, vds), vds)));
            const __m256d gm_l = _mm256_mul_pd(beta, vds);
            const __m256d gds_l =
                _mm256_mul_pd(beta, _mm256_sub_pd(vov, vds));
            const __m256d opl =
                _mm256_add_pd(one, _mm256_mul_pd(lam, vds));
            const __m256d hbvv = _mm256_mul_pd(
                _mm256_mul_pd(halfbeta, vov), vov);
            const __m256d id_s = _mm256_mul_pd(hbvv, opl);
            const __m256d gm_s = _mm256_mul_pd(
                _mm256_mul_pd(beta, vov), opl);
            const __m256d gds_s = _mm256_mul_pd(hbvv, lam);

            const __m256d mcut = _mm256_cmp_pd(vov, zero, _CMP_LE_OQ);
            const __m256d mlin = _mm256_cmp_pd(vds, vov, _CMP_LT_OQ);
            __m256d id = _mm256_blendv_pd(id_s, id_l, mlin);
            id = _mm256_blendv_pd(id, id_c, mcut);
            __m256d gm = _mm256_blendv_pd(gm_s, gm_l, mlin);
            gm = _mm256_blendv_pd(gm, zero, mcut);
            __m256d gds = _mm256_blendv_pd(gds_s, gds_l, mlin);
            gds = _mm256_blendv_pd(gds, gmin, mcut);

            // Back-map into actual-terminal current and derivatives.
            const __m256d sfac =
                _mm256_blendv_pd(one, minus_one, swapm);
            const __m256d ss = _mm256_mul_pd(sign, sfac);
            const __m256d id_out = _mm256_mul_pd(ss, id);
            const __m256d ngg =
                _mm256_xor_pd(_mm256_add_pd(gm, gds), signbit);
            const __m256d dvd = _mm256_mul_pd(
                sfac, _mm256_blendv_pd(gds, ngg, swapm));
            const __m256d dvg = _mm256_mul_pd(sfac, gm);
            const __m256d dvs = _mm256_mul_pd(
                sfac, _mm256_blendv_pd(ngg, gds, swapm));

            // i0 = id - dIdVd*vd - dIdVg*vg - dIdVs*vs (left-assoc).
            __m256d i0 =
                _mm256_sub_pd(id_out, _mm256_mul_pd(dvd, vd));
            i0 = _mm256_sub_pd(i0, _mm256_mul_pd(dvg, vg));
            i0 = _mm256_sub_pd(i0, _mm256_mul_pd(dvs, vs));

            // Scatter: += der / -= i0 for the drain row, the mirror
            // for the source row (dir*x with dir = ±1 is an exact
            // sign flip, so add/sub reproduce the scalar updates).
            const __m256d der[3] = {dvd, dvg, dvs};
            for (int r = 0; r < 2; ++r) {
                if (sl.rhs[r] < 0)
                    continue;
                for (int c = 0; c < 3; ++c) {
                    if (sl.m[r][c] < 0)
                        continue;
                    double *p = workVals_.data() +
                        static_cast<size_t>(sl.m[r][c]) * L + 4 * g;
                    _mm256_storeu_pd(
                        p, r == 0
                               ? _mm256_add_pd(_mm256_loadu_pd(p),
                                               der[c])
                               : _mm256_sub_pd(_mm256_loadu_pd(p),
                                               der[c]));
                }
                double *rw = rhsWork_.data() +
                    static_cast<size_t>(sl.rhs[r]) * L + 4 * g;
                _mm256_storeu_pd(
                    rw, r == 0 ? _mm256_sub_pd(_mm256_loadu_pd(rw), i0)
                               : _mm256_add_pd(_mm256_loadu_pd(rw),
                                               i0));
            }
        }
    }
}

HIFI_AVX2_TARGET void
BatchSimulator::updateLanesAvx2(size_t lanes, const uint8_t *active,
                                double maxStepVolts, double *maxDelta)
{
    const size_t L = lanes;
    const size_t G = L / 4;
    const size_t nv = st_.nv;
    const size_t ns = st_.ns;
    const __m256d absmask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d signbit = _mm256_castsi256_pd(
        _mm256_set1_epi64x(static_cast<long long>(
            0x8000000000000000ULL)));
    const __m256d hiv = _mm256_set1_pd(maxStepVolts);
    const __m256d lov = _mm256_xor_pd(hiv, signbit); // -maxStepVolts

    for (size_t g = 0; g < G; ++g) {
        const __m256d mask = _mm256_castsi256_pd(_mm256_set_epi64x(
            active[g * 4 + 3] ? -1 : 0, active[g * 4 + 2] ? -1 : 0,
            active[g * 4 + 1] ? -1 : 0, active[g * 4 + 0] ? -1 : 0));

        for (size_t si = 0; si < ns; ++si) {
            double *bc = branchCurrents_.data() + si * L + 4 * g;
            const __m256d neu = _mm256_xor_pd(
                _mm256_loadu_pd(x_.data() + (nv + si) * L + 4 * g),
                signbit);
            _mm256_storeu_pd(
                bc, _mm256_blendv_pd(_mm256_loadu_pd(bc), neu, mask));
        }

        __m256d md = _mm256_setzero_pd();
        for (size_t n = 0; n < nv; ++n) {
            double *vp = v_.data() + (n + 1) * L + 4 * g;
            const __m256d vold = _mm256_loadu_pd(vp);
            __m256d delta = _mm256_sub_pd(
                _mm256_loadu_pd(x_.data() + n * L + 4 * g), vold);
            const __m256d ad = _mm256_and_pd(delta, absmask);
            md = _mm256_blendv_pd(md, ad,
                                  _mm256_cmp_pd(md, ad, _CMP_LT_OQ));
            // std::clamp via the same two comparisons it performs
            // (NaN deltas pass through untouched, like the scalar).
            delta = _mm256_blendv_pd(
                delta, lov, _mm256_cmp_pd(delta, lov, _CMP_LT_OQ));
            delta = _mm256_blendv_pd(
                delta, hiv, _mm256_cmp_pd(hiv, delta, _CMP_LT_OQ));
            _mm256_storeu_pd(
                vp, _mm256_blendv_pd(vold, _mm256_add_pd(vold, delta),
                                     mask));
        }
        _mm256_storeu_pd(maxDelta + 4 * g, md);
    }
}

#endif // HIFI_SIMD_AVX2_COMPILED

std::vector<TranResult>
BatchSimulator::run(const TranParams &params, size_t lanes)
{
    if (lanes == 0 || lanes > maxLanes_)
        throw std::invalid_argument("BatchSimulator: bad lane count");

    const telemetry::Span tspan("solver.batch_tran");
    const bool instrumented = telemetry::enabled();
    size_t lu_refactorizations = 0;
    size_t dense_fallbacks = 0;
    size_t dense_solves = 0;
    size_t retired_early = 0;
    size_t newton_total = 0;

    const size_t L = lanes;
    const size_t num_nodes = netlist_.numNodes();
    const size_t nv = st_.nv;
    const size_t ns = st_.ns;
    const size_t dim = st_.dim;
    const size_t slots = st_.lu.slots();
    const bool trap = params.integrator == Integrator::Trapezoidal;
    const bool sparse = params.solver == LinearSolver::Sparse ||
        (params.solver == LinearSolver::Auto && dim >= kSparseCutoff);

    // Reset per-lane state.
    std::fill(v_.begin(), v_.begin() + num_nodes * L, 0.0);
    const auto &caps = netlist_.capacitors();
    for (size_t ci = 0; ci < caps.size(); ++ci) {
        for (size_t l = 0; l < L; ++l) {
            capPrev_[ci * L + l] = caps[ci].initialVolts;
            capIPrev_[ci * L + l] = 0.0;
        }
        capGeq_[ci] = (trap ? 2.0 : 1.0) * caps[ci].farads / params.dt;
    }
    st_.assembleBase(params, true, baseValsStep0_);
    st_.assembleBase(params, false, baseVals_);

    // Splat both static stamps to SoA once: every Newton iteration
    // then restores the work matrix with one memcpy instead of a
    // broadcast loop.
    baseSplat_.resize(slots * L);
    baseSplatStep0_.resize(slots * L);
    for (size_t s = 0; s < slots; ++s) {
        std::fill(baseSplat_.begin() + s * L,
                  baseSplat_.begin() + (s + 1) * L, baseVals_[s]);
        std::fill(baseSplatStep0_.begin() + s * L,
                  baseSplatStep0_.begin() + (s + 1) * L,
                  baseValsStep0_[s]);
    }

    const size_t steps =
        static_cast<size_t>(std::ceil(params.tstop / params.dt));

    // One TranResult per lane, trace lookups hoisted out of the time
    // loop.
    std::vector<TranResult> results(L);
    std::vector<std::vector<Trace *>> nodeTrace(L), srcTrace(L);
    for (size_t l = 0; l < L; ++l) {
        nodeTrace[l].assign(num_nodes, nullptr);
        srcTrace[l].assign(ns, nullptr);
        for (size_t n = 1; n < num_nodes; ++n) {
            Trace t;
            t.name = netlist_.nodeName(static_cast<NodeId>(n));
            auto [it, inserted] =
                results[l].traces.emplace(t.name, std::move(t));
            nodeTrace[l][n] = &it->second;
        }
        for (size_t si = 0; si < ns; ++si) {
            Trace t;
            t.name = "I(" + netlist_.vsources()[si].name + ")";
            auto [it, inserted] =
                results[l].traces.emplace(t.name, std::move(t));
            srcTrace[l][si] = &it->second;
        }
        for (auto &[name, tr] : results[l].traces) {
            // Sized up front so the accept phase records by index;
            // the time axis is the same for every trace and step, so
            // it is filled here once (same expression as the per-step
            // `t` below, hence the same doubles).
            tr.times.resize(steps + 1);
            tr.values.resize(steps + 1);
            for (size_t s = 0; s <= steps; ++s)
                tr.times[s] = static_cast<double>(s) * params.dt;
        }
    }

    std::vector<uint8_t> active(L, 0), converged(L, 0);
    std::vector<int> itersUsed(L, 0);
    std::vector<double> laneMaxDelta(L, 0.0);
    // Traced runs tally lane-steps per Newton iteration count here
    // and merge into solver.newton_per_step once, after the loop.
    std::vector<uint64_t> newtonPerStep(
        instrumented ? static_cast<size_t>(std::max(params.maxNewton, 0)) + 1
                     : 0,
        0);

    for (size_t step = 0; step <= steps; ++step) {
        const double t = static_cast<double>(step) * params.dt;
        const double geq_scale = (step == 0) ? 1e3 : 1.0;
        const std::vector<double> &base =
            (step == 0) ? baseValsStep0_ : baseVals_;
        const std::vector<double> &splat =
            (step == 0) ? baseSplatStep0_ : baseSplat_;

        // Per-step RHS: capacitor companion currents are per lane
        // (the lanes' voltages diverge); source values are shared and
        // splatted.
        std::fill(rhsStep_.begin(), rhsStep_.begin() + dim * L, 0.0);
        for (size_t ci = 0; ci < caps.size(); ++ci) {
            const auto &sl = st_.capacitorSlots[ci];
            const double geq = geq_scale * capGeq_[ci];
            for (size_t l = 0; l < L; ++l) {
                const double ieq = geq * capPrev_[ci * L + l] +
                    (trap && step > 0 ? capIPrev_[ci * L + l] : 0.0);
                if (sl.ra >= 0)
                    rhsStep_[static_cast<size_t>(sl.ra) * L + l] += ieq;
                if (sl.rb >= 0)
                    rhsStep_[static_cast<size_t>(sl.rb) * L + l] -= ieq;
            }
        }
        for (size_t si = 0; si < ns; ++si) {
            const double val =
                netlist_.vsources()[si].waveform.value(t);
            for (size_t l = 0; l < L; ++l)
                rhsStep_[(nv + si) * L + l] += val;
        }

        // Masked Newton loop: all lanes advance in lockstep; a lane
        // that converges retires (its iterate and branch currents
        // freeze, as after a single run's early-exit break).
        std::fill(active.begin(), active.end(), 1);
        std::fill(converged.begin(), converged.end(), 0);
        std::fill(itersUsed.begin(), itersUsed.end(), 0);
        size_t num_active = L;

        for (int it = 0; it < params.maxNewton && num_active > 0;
             ++it) {
            if (sparse) {
                // Restore the static stamp for every lane with one
                // copy, then add the MOSFET linearizations at each
                // lane's iterate.  Per lane the value-update order is
                // exactly a single run's restamp (devices in netlist
                // order).
                std::memcpy(workVals_.data(), splat.data(),
                            slots * L * sizeof(double));
                std::memcpy(rhsWork_.data(), rhsStep_.data(),
                            dim * L * sizeof(double));
#if HIFI_SIMD_AVX2_COMPILED
                if (L % 4 == 0 && common::simd::avx2())
                    stampLanesAvx2(L);
                else
                    stampLanesScalar(L, active.data());
#else
                stampLanesScalar(L, active.data());
#endif
                for (size_t l = 0; l < L; ++l)
                    okLanes_[l] = (active[l] && !forceDense_[l]) ? 1
                                                                 : 0;
                st_.lu.factorLanes(workVals_.data(), L,
                                   okLanes_.data());
                st_.lu.solveLanes(workVals_.data(), rhsWork_.data(),
                                  x_.data(), L);
                for (size_t l = 0; l < L; ++l) {
                    if (okLanes_[l]) {
                        ++lu_refactorizations;
                        continue;
                    }
                    if (!active[l])
                        continue;
                    // A forced lane emulates LinearSolver::Dense; a
                    // lane whose batched factor hit a bad pivot takes
                    // the dense fallback.  Both re-stamp this lane
                    // (its SoA values were consumed by the
                    // factorization) and run the shared dense kernel.
                    if (forceDense_[l])
                        ++dense_solves;
                    else
                        ++dense_fallbacks;
                    restampLane(l, L, base, laneVals_.data(),
                                laneRhs_.data());
                    solveDenseCsr(st_.lu, laneVals_.data(),
                                  laneRhs_.data(), laneX_.data(),
                                  denseA_.data(), denseB_.data());
                    for (size_t row = 0; row < dim; ++row)
                        x_[row * L + l] = laneX_[row];
                }
            } else {
                // The dense engine stamps and solves lane by lane.
                for (size_t l = 0; l < L; ++l) {
                    if (!active[l])
                        continue;
                    ++dense_solves;
                    restampLane(l, L, base, laneVals_.data(),
                                laneRhs_.data());
                    solveDenseCsr(st_.lu, laneVals_.data(),
                                  laneRhs_.data(), laneX_.data(),
                                  denseA_.data(), denseB_.data());
                    for (size_t row = 0; row < dim; ++row)
                        x_[row * L + l] = laneX_[row];
                }
            }

            // Per-lane branch currents, damped update, convergence.
#if HIFI_SIMD_AVX2_COMPILED
            if (L % 4 == 0 && common::simd::avx2()) {
                updateLanesAvx2(L, active.data(),
                                params.maxStepVolts,
                                laneMaxDelta.data());
                for (size_t l = 0; l < L; ++l) {
                    if (!active[l])
                        continue;
                    ++results[l].totalNewtonIterations;
                    ++newton_total;
                    itersUsed[l] = it + 1;
                    if (laneMaxDelta[l] < params.tolVolts) {
                        converged[l] = 1;
                        active[l] = 0;
                        --num_active;
                    }
                }
                continue;
            }
#endif
            for (size_t l = 0; l < L; ++l) {
                if (!active[l])
                    continue;
                ++results[l].totalNewtonIterations;
                ++newton_total;
                itersUsed[l] = it + 1;
                for (size_t si = 0; si < ns; ++si)
                    branchCurrents_[si * L + l] =
                        -x_[(nv + si) * L + l];
                double max_delta = 0.0;
                for (size_t n = 0; n < nv; ++n) {
                    double delta = x_[n * L + l] - v_[(n + 1) * L + l];
                    max_delta = std::max(max_delta, std::abs(delta));
                    delta = std::clamp(delta, -params.maxStepVolts,
                                       params.maxStepVolts);
                    v_[(n + 1) * L + l] += delta;
                }
                if (max_delta < params.tolVolts) {
                    converged[l] = 1;
                    active[l] = 0;
                    --num_active;
                }
            }
        }

        int step_iters_max = 0;
        for (size_t l = 0; l < L; ++l)
            step_iters_max = std::max(step_iters_max, itersUsed[l]);
        for (size_t l = 0; l < L; ++l) {
            if (!converged[l])
                ++results[l].nonConvergedSteps;
            else if (itersUsed[l] < step_iters_max)
                ++retired_early;
        }
        if (instrumented)
            for (size_t l = 0; l < L; ++l)
                ++newtonPerStep[static_cast<size_t>(itersUsed[l])];

        // Accept the step per lane: capacitor memory and traces.
        for (size_t ci = 0; ci < caps.size(); ++ci) {
            const auto &c = caps[ci];
            const double *va =
                v_.data() + static_cast<size_t>(c.a) * L;
            const double *vb =
                v_.data() + static_cast<size_t>(c.b) * L;
            for (size_t l = 0; l < L; ++l) {
                const double v_now = va[l] - vb[l];
                if (trap) {
                    const double geq = geq_scale * capGeq_[ci];
                    const double i_prev =
                        step > 0 ? capIPrev_[ci * L + l] : 0.0;
                    capIPrev_[ci * L + l] =
                        geq * (v_now - capPrev_[ci * L + l]) - i_prev;
                }
                capPrev_[ci * L + l] = v_now;
            }
        }
        for (size_t l = 0; l < L; ++l) {
            for (size_t n = 1; n < num_nodes; ++n)
                nodeTrace[l][n]->values[step] = v_[n * L + l];
            for (size_t si = 0; si < ns; ++si)
                srcTrace[l][si]->values[step] =
                    branchCurrents_[si * L + l];
        }
    }

    if (instrumented) {
        telemetry::Registry &reg = telemetry::registry();
        static telemetry::Counter &c_runs = reg.counter("solver.runs");
        static telemetry::Counter &c_newton =
            reg.counter("solver.newton_iterations");
        static telemetry::Counter &c_lu =
            reg.counter("solver.lu_refactorizations");
        static telemetry::Counter &c_fallback =
            reg.counter("solver.dense_fallbacks");
        static telemetry::Counter &c_dense =
            reg.counter("solver.dense_solves");
        static telemetry::Counter &c_nonconv =
            reg.counter("solver.nonconverged_steps");
        static telemetry::Counter &c_lanes =
            reg.counter("solver.batch.lanes");
        static telemetry::Counter &c_retired =
            reg.counter("solver.batch.retired_early");
        static telemetry::Histogram &newton_hist = reg.histogram(
            "solver.newton_per_step",
            {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64});
        size_t nonconv = 0;
        for (size_t l = 0; l < L; ++l)
            nonconv += results[l].nonConvergedSteps;
        c_runs.add(L); // one logical transient per lane
        c_newton.add(newton_total);
        c_lu.add(lu_refactorizations);
        c_fallback.add(dense_fallbacks);
        c_dense.add(dense_solves);
        c_nonconv.add(nonconv);
        c_lanes.add(L);
        c_retired.add(retired_early);
        for (size_t iters = 0; iters < newtonPerStep.size(); ++iters)
            if (newtonPerStep[iters] > 0)
                newton_hist.observe(static_cast<double>(iters),
                                    newtonPerStep[iters]);
    }
    return results;
}

Simulator::Simulator(const Netlist &netlist)
    : netlist_(netlist), lane_(netlist, 1)
{
}

TranResult
Simulator::run(const TranParams &params)
{
    const auto &mosfets = netlist_.mosfets();
    for (size_t mi = 0; mi < mosfets.size(); ++mi)
        lane_.setVthDelta(0, mi, mosfets[mi].vthDelta);
    return std::move(lane_.run(params, 1).front());
}

} // namespace circuit
} // namespace hifi
