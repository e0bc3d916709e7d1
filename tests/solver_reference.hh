/**
 * @file
 * Per-trial scalar transient engine, kept only for the tests as the
 * bitwise reference for circuit::BatchSimulator (and through it for
 * circuit::Simulator, its one-lane facade).  It runs the classic
 * damped Newton loop over one netlist: restore the static stamp,
 * restamp the MOSFET linearizations at the current iterate, solve
 * with the cached sparse LU (or the pivoting dense kernel when the
 * LU hits a negligible pivot, or when the dense engine is selected),
 * and stop at the first update below tolVolts.  Every lane of the
 * batched engine must reproduce these bits.
 *
 * It reads MOSFET threshold offsets from the netlist itself, so a
 * test patches `mosfet(i).vthDelta` on its own netlist copy where the
 * batched engine gets BatchSimulator::setVthDelta.
 */

#ifndef HIFI_TESTS_SOLVER_REFERENCE_HH
#define HIFI_TESTS_SOLVER_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/solver.hh"

namespace hifi
{
namespace testref
{

class ReferenceSimulator
{
  public:
    explicit ReferenceSimulator(const circuit::Netlist &netlist)
        : net_(netlist), st_(netlist)
    {
    }

    circuit::TranResult run(const circuit::TranParams &params)
    {
        using namespace circuit;
        const size_t num_nodes = net_.numNodes();
        const size_t nv = st_.nv, ns = st_.ns, dim = st_.dim;
        const bool trap = params.integrator == Integrator::Trapezoidal;
        const bool sparse = params.solver == LinearSolver::Sparse ||
            (params.solver == LinearSolver::Auto &&
             dim >= kSparseCutoff);

        const auto &caps = net_.capacitors();
        const auto &mosfets = net_.mosfets();
        std::vector<double> v(num_nodes, 0.0);
        std::vector<double> capPrev(caps.size()), capIPrev(caps.size());
        std::vector<double> capGeq(caps.size());
        for (size_t ci = 0; ci < caps.size(); ++ci) {
            capPrev[ci] = caps[ci].initialVolts;
            capIPrev[ci] = 0.0;
            capGeq[ci] =
                (trap ? 2.0 : 1.0) * caps[ci].farads / params.dt;
        }
        std::vector<double> base(st_.lu.slots()), base0(st_.lu.slots());
        st_.assembleBase(params, true, base0);
        st_.assembleBase(params, false, base);
        std::vector<double> vals(st_.lu.slots());
        std::vector<double> rhsStep(dim), rhs(dim), x(dim);
        std::vector<double> branch(ns, 0.0);
        std::vector<double> denseA(dim * dim), denseB(dim);

        // Copy the static stamp, then add each MOSFET's linearization
        // I(v) ~ I0 + J (v - v0) at the current iterate.
        auto restamp = [&](const std::vector<double> &stamp) {
            std::copy(stamp.begin(), stamp.end(), vals.begin());
            std::copy(rhsStep.begin(), rhsStep.end(), rhs.begin());
            for (size_t mi = 0; mi < mosfets.size(); ++mi) {
                const auto &m = mosfets[mi];
                const auto &sl = st_.mosfetSlots[mi];
                const double vd = v[static_cast<size_t>(m.drain)];
                const double vg = v[static_cast<size_t>(m.gate)];
                const double vs = v[static_cast<size_t>(m.source)];
                const MosEval ev = evalMosfet(m, vd, vg, vs);
                const double i0 = ev.id - ev.dIdVd * vd -
                    ev.dIdVg * vg - ev.dIdVs * vs;
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
        };

        const size_t steps =
            static_cast<size_t>(std::ceil(params.tstop / params.dt));
        TranResult result;
        std::vector<Trace *> nodeTrace(num_nodes, nullptr);
        std::vector<Trace *> srcTrace(ns, nullptr);
        for (size_t n = 1; n < num_nodes; ++n) {
            const std::string name =
                net_.nodeName(static_cast<NodeId>(n));
            nodeTrace[n] = &result.traces[name];
            nodeTrace[n]->name = name;
        }
        for (size_t si = 0; si < ns; ++si) {
            const std::string name =
                "I(" + net_.vsources()[si].name + ")";
            srcTrace[si] = &result.traces[name];
            srcTrace[si]->name = name;
        }

        for (size_t step = 0; step <= steps; ++step) {
            const double t = static_cast<double>(step) * params.dt;
            const double geq_scale = (step == 0) ? 1e3 : 1.0;
            const std::vector<double> &stamp = step == 0 ? base0 : base;

            std::fill(rhsStep.begin(), rhsStep.end(), 0.0);
            for (size_t ci = 0; ci < caps.size(); ++ci) {
                const auto &sl = st_.capacitorSlots[ci];
                const double ieq = geq_scale * capGeq[ci] * capPrev[ci] +
                    (trap && step > 0 ? capIPrev[ci] : 0.0);
                if (sl.ra >= 0)
                    rhsStep[static_cast<size_t>(sl.ra)] += ieq;
                if (sl.rb >= 0)
                    rhsStep[static_cast<size_t>(sl.rb)] -= ieq;
            }
            for (size_t si = 0; si < ns; ++si)
                rhsStep[nv + si] += net_.vsources()[si].waveform.value(t);

            bool converged = false;
            for (int it = 0; it < params.maxNewton; ++it) {
                ++result.totalNewtonIterations;
                restamp(stamp);
                bool solved = false;
                if (sparse && st_.lu.factor(vals.data())) {
                    st_.lu.solve(vals.data(), rhs.data(), x.data());
                    solved = true;
                } else if (sparse) {
                    restamp(stamp); // factor() overwrote the values
                }
                if (!solved)
                    solveDenseCsr(st_.lu, vals.data(), rhs.data(),
                                  x.data(), denseA.data(),
                                  denseB.data());

                // The MNA branch variable flows into the positive
                // node; the delivered current is its negation.
                for (size_t si = 0; si < ns; ++si)
                    branch[si] = -x[nv + si];
                double max_delta = 0.0;
                for (size_t n = 0; n < nv; ++n) {
                    double delta = x[n] - v[n + 1];
                    max_delta = std::max(max_delta, std::abs(delta));
                    delta = std::clamp(delta, -params.maxStepVolts,
                                       params.maxStepVolts);
                    v[n + 1] += delta;
                }
                if (max_delta < params.tolVolts) {
                    converged = true;
                    break;
                }
            }
            if (!converged)
                ++result.nonConvergedSteps;

            for (size_t ci = 0; ci < caps.size(); ++ci) {
                const auto &c = caps[ci];
                const double v_now = v[static_cast<size_t>(c.a)] -
                    v[static_cast<size_t>(c.b)];
                if (trap) {
                    const double geq = geq_scale * capGeq[ci];
                    const double i_prev = step > 0 ? capIPrev[ci] : 0.0;
                    capIPrev[ci] = geq * (v_now - capPrev[ci]) - i_prev;
                }
                capPrev[ci] = v_now;
            }
            for (size_t n = 1; n < num_nodes; ++n) {
                nodeTrace[n]->times.push_back(t);
                nodeTrace[n]->values.push_back(v[n]);
            }
            for (size_t si = 0; si < ns; ++si) {
                srcTrace[si]->times.push_back(t);
                srcTrace[si]->values.push_back(branch[si]);
            }
        }
        return result;
    }

  private:
    const circuit::Netlist &net_;
    circuit::MnaStructure st_;
};

} // namespace testref
} // namespace hifi

#endif // HIFI_TESTS_SOLVER_REFERENCE_HH
