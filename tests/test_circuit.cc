/**
 * @file
 * Tests for the analog circuit substrate: waveforms, dense solver,
 * MOSFET model, transient integration, and both SA topologies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/batch.hh"
#include "circuit/dual_sa.hh"
#include "circuit/mismatch.hh"
#include "circuit/netlist.hh"
#include "circuit/sense_amp.hh"
#include "circuit/solver.hh"
#include "circuit/spice.hh"
#include "circuit/vcd.hh"
#include "circuit/waveform.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "solver_reference.hh"

namespace
{

using namespace hifi::circuit;
using hifi::testref::ReferenceSimulator;

TEST(Pwl, ConstantAndInterpolation)
{
    Pwl w(2.0);
    EXPECT_DOUBLE_EQ(w.value(-1.0), 2.0);
    EXPECT_DOUBLE_EQ(w.value(100.0), 2.0);

    Pwl ramp;
    ramp.point(0.0, 0.0).point(1.0, 10.0);
    EXPECT_DOUBLE_EQ(ramp.value(0.5), 5.0);
    EXPECT_DOUBLE_EQ(ramp.value(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(ramp.value(2.0), 10.0);
}

TEST(Pwl, StepHoldsPreviousValue)
{
    Pwl w(1.0);
    w.step(5.0, 3.0, 1.0);
    EXPECT_DOUBLE_EQ(w.value(4.9), 1.0);
    EXPECT_DOUBLE_EQ(w.value(5.0), 1.0);
    EXPECT_NEAR(w.value(5.5), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(w.value(6.0), 3.0);
}

TEST(Pwl, RejectsNonMonotonicTime)
{
    Pwl w;
    w.point(1.0, 0.0);
    EXPECT_THROW(w.point(0.5, 1.0), std::invalid_argument);
}

TEST(Trace, CrossingsAndExtremes)
{
    Trace t;
    t.times = {0, 1, 2, 3, 4};
    t.values = {0.0, 0.4, 0.8, 0.4, 0.0};
    EXPECT_DOUBLE_EQ(t.firstCrossUp(0.5), 2.0);
    EXPECT_DOUBLE_EQ(t.firstCrossDown(0.5), 3.0);
    EXPECT_DOUBLE_EQ(t.firstCrossUp(2.0), -1.0);
    EXPECT_DOUBLE_EQ(t.maxValue(), 0.8);
    EXPECT_DOUBLE_EQ(t.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(t.at(2.5), 0.8);
    EXPECT_DOUBLE_EQ(t.final(), 0.0);
}

/// Solve the 2x2 system a x = b with solveDenseCsr, its values laid
/// out over a full 2x2 SparseLu pattern as the engine stamps them.
std::vector<double>
solveDense2x2(const double (&a)[2][2], const std::vector<double> &b)
{
    SparseLu lu;
    lu.analyze(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    std::vector<double> vals(lu.slots(), 0.0);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c)
            vals[static_cast<size_t>(lu.slot(r, c))] = a[r][c];
    std::vector<double> x(2, 0.0), denseA(4), denseB(2);
    solveDenseCsr(lu, vals.data(), b.data(), x.data(), denseA.data(),
                  denseB.data());
    return x;
}

TEST(SolveDense, SolvesKnownSystem)
{
    const auto x = solveDense2x2({{2, 1}, {1, 3}}, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveDense, PivotsZeroDiagonal)
{
    const auto x = solveDense2x2({{0, 1}, {1, 0}}, {2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveDense, ThrowsOnSingular)
{
    EXPECT_THROW(solveDense2x2({{1, 1}, {2, 2}}, {1, 2}),
                 std::runtime_error);
}

TEST(SparseLu, MatchesDenseOnKnownSystem)
{
    // Same system as SolveDense.SolvesKnownSystem, through the cached
    // symbolic path: analyze once, factor + solve over a value array.
    SparseLu lu;
    lu.analyze(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    ASSERT_EQ(lu.dim(), 2u);
    std::vector<double> vals(lu.slots(), 0.0);
    vals[static_cast<size_t>(lu.slot(0, 0))] = 2.0;
    vals[static_cast<size_t>(lu.slot(0, 1))] = 1.0;
    vals[static_cast<size_t>(lu.slot(1, 0))] = 1.0;
    vals[static_cast<size_t>(lu.slot(1, 1))] = 3.0;
    ASSERT_TRUE(lu.factor(vals.data()));
    const std::vector<double> b = {5.0, 10.0};
    std::vector<double> x(2, 0.0);
    lu.solve(vals.data(), b.data(), x.data());
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
    EXPECT_EQ(lu.slot(5, 5), -1); // outside the pattern
}

TEST(SparseLu, PivotsStructurallySymmetricOffDiagonal)
{
    // {{0,1},{1,0}}-shaped permutation matrix: no diagonal entries
    // exist, so the static pivot order must fall back to the
    // structurally symmetric off-diagonal pair.
    SparseLu lu;
    lu.analyze(2, {{0, 1}, {1, 0}});
    std::vector<double> vals(lu.slots(), 0.0);
    vals[static_cast<size_t>(lu.slot(0, 1))] = 1.0;
    vals[static_cast<size_t>(lu.slot(1, 0))] = 1.0;
    ASSERT_TRUE(lu.factor(vals.data()));
    const std::vector<double> b = {2.0, 3.0};
    std::vector<double> x(2, 0.0);
    lu.solve(vals.data(), b.data(), x.data());
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, ReportsNumericallySingularMatrix)
{
    // Structurally fine, numerically rank-1: factor() must refuse so
    // the simulator can fall back to the pivoting dense solve.
    SparseLu lu;
    lu.analyze(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    std::vector<double> vals(lu.slots(), 0.0);
    vals[static_cast<size_t>(lu.slot(0, 0))] = 1.0;
    vals[static_cast<size_t>(lu.slot(0, 1))] = 1.0;
    vals[static_cast<size_t>(lu.slot(1, 0))] = 2.0;
    vals[static_cast<size_t>(lu.slot(1, 1))] = 2.0;
    EXPECT_FALSE(lu.factor(vals.data()));
    EXPECT_THROW(lu.analyze(0, {}), std::invalid_argument);
}

TEST(Netlist, NodeBookkeeping)
{
    Netlist net;
    EXPECT_EQ(net.numNodes(), 1u); // ground
    NodeId a = net.addNode("A");
    EXPECT_EQ(net.node("A"), a);
    EXPECT_EQ(net.nodeName(a), "A");
    EXPECT_THROW(net.node("missing"), std::out_of_range);
    EXPECT_THROW(net.addResistor("R", a, 99, 100.0), std::out_of_range);
    EXPECT_THROW(net.addResistor("R", a, kGround, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(net.addCapacitor("C", a, kGround, -1e-15),
                 std::invalid_argument);
}

TEST(MosfetModel, NmosRegions)
{
    Mosfet m;
    m.model.type = MosType::Nmos;
    m.model.vth = 0.5;
    m.model.kp = 100e-6;
    m.model.lambda = 0.0;
    m.widthNm = 200.0;
    m.lengthNm = 100.0; // W/L = 2

    // Cutoff.
    auto ev = evalMosfet(m, 1.0, 0.3, 0.0);
    EXPECT_NEAR(ev.id, 1e-12, 2e-12);

    // Saturation: Id = 0.5 k (W/L) (vgs - vth)^2.
    ev = evalMosfet(m, 2.0, 1.5, 0.0);
    EXPECT_NEAR(ev.id, 0.5 * 100e-6 * 2 * 1.0, 1e-9);
    EXPECT_NEAR(ev.dIdVg, 100e-6 * 2 * 1.0, 1e-9);

    // Triode: Id = k (W/L) ((vgs-vth) vds - vds^2/2).
    ev = evalMosfet(m, 0.2, 1.5, 0.0);
    EXPECT_NEAR(ev.id, 100e-6 * 2 * (1.0 * 0.2 - 0.02), 1e-9);
}

TEST(MosfetModel, SymmetryUnderSwap)
{
    Mosfet m;
    m.model.vth = 0.5;
    m.model.kp = 100e-6;
    m.model.lambda = 0.0;
    m.widthNm = 100.0;
    m.lengthNm = 50.0;

    // Exchanging drain and source negates the current.
    auto fwd = evalMosfet(m, 1.0, 2.0, 0.2);
    auto rev = evalMosfet(m, 0.2, 2.0, 1.0);
    EXPECT_NEAR(fwd.id, -rev.id, 1e-15);
}

TEST(MosfetModel, PmosMirrorsNmos)
{
    Mosfet n, p;
    n.model = {MosType::Nmos, 0.5, 100e-6, 0.0};
    p.model = {MosType::Pmos, 0.5, 100e-6, 0.0};
    n.widthNm = p.widthNm = 100.0;
    n.lengthNm = p.lengthNm = 50.0;

    auto en = evalMosfet(n, 1.5, 1.2, 0.0);
    // PMOS with all voltages negated: current into drain negated.
    auto ep = evalMosfet(p, -1.5, -1.2, 0.0);
    EXPECT_NEAR(en.id, -ep.id, 1e-15);
}

TEST(MosfetModel, DerivativesMatchFiniteDifference)
{
    Mosfet m;
    m.model = {MosType::Nmos, 0.45, 120e-6, 0.05};
    m.widthNm = 120.0;
    m.lengthNm = 40.0;

    const double vd = 0.7, vg = 1.1, vs = 0.2, h = 1e-7;
    auto ev = evalMosfet(m, vd, vg, vs);
    const double dd = (evalMosfet(m, vd + h, vg, vs).id -
                       evalMosfet(m, vd - h, vg, vs).id) / (2 * h);
    const double dg = (evalMosfet(m, vd, vg + h, vs).id -
                       evalMosfet(m, vd, vg - h, vs).id) / (2 * h);
    const double ds = (evalMosfet(m, vd, vg, vs + h).id -
                       evalMosfet(m, vd, vg, vs - h).id) / (2 * h);
    EXPECT_NEAR(ev.dIdVd, dd, 1e-8);
    EXPECT_NEAR(ev.dIdVg, dg, 1e-8);
    EXPECT_NEAR(ev.dIdVs, ds, 1e-8);
}

TEST(MosfetModel, SwappedDerivativesMatchFiniteDifference)
{
    Mosfet m;
    m.model = {MosType::Nmos, 0.45, 120e-6, 0.05};
    m.widthNm = 120.0;
    m.lengthNm = 40.0;

    // vd < vs: internally swapped.
    const double vd = 0.1, vg = 1.4, vs = 0.9, h = 1e-7;
    auto ev = evalMosfet(m, vd, vg, vs);
    EXPECT_LT(ev.id, 0.0);
    const double dd = (evalMosfet(m, vd + h, vg, vs).id -
                       evalMosfet(m, vd - h, vg, vs).id) / (2 * h);
    const double ds = (evalMosfet(m, vd, vg, vs + h).id -
                       evalMosfet(m, vd, vg, vs - h).id) / (2 * h);
    EXPECT_NEAR(ev.dIdVd, dd, 1e-8);
    EXPECT_NEAR(ev.dIdVs, ds, 1e-8);
}

TEST(Transient, RcChargingMatchesAnalytic)
{
    // 1 kOhm / 1 pF driven by a 1 V step: v(t) = 1 - exp(-t/RC).
    Netlist net;
    NodeId in = net.addNode("IN");
    NodeId out = net.addNode("OUT");
    net.addVSource("Vin", in, kGround, Pwl(1.0));
    net.addResistor("R", in, out, 1e3);
    net.addCapacitor("C", out, kGround, 1e-12, 0.0);

    TranParams tp;
    tp.tstop = 5e-9;
    tp.dt = 1e-12;
    Simulator sim(net);
    auto res = sim.run(tp);
    const Trace &v = res.trace("OUT");

    const double rc = 1e3 * 1e-12;
    for (double t : {1e-9, 2e-9, 3e-9}) {
        const double expect = 1.0 - std::exp(-t / rc);
        EXPECT_NEAR(v.at(t), expect, 0.01);
    }
    EXPECT_EQ(res.nonConvergedSteps, 0u);
}

TEST(Transient, InitialConditionRespected)
{
    Netlist net;
    NodeId a = net.addNode("A");
    net.addCapacitor("C", a, kGround, 1e-12, 0.75);
    net.addResistor("Rleak", a, kGround, 1e9);

    TranParams tp;
    tp.tstop = 1e-10;
    tp.dt = 1e-12;
    Simulator sim(net);
    auto res = sim.run(tp);
    EXPECT_NEAR(res.trace("A").values.front(), 0.75, 0.01);
}

TEST(Transient, VoltageDividerDc)
{
    Netlist net;
    NodeId in = net.addNode("IN");
    NodeId mid = net.addNode("MID");
    net.addVSource("V", in, kGround, Pwl(3.0));
    net.addResistor("R1", in, mid, 2e3);
    net.addResistor("R2", mid, kGround, 1e3);

    TranParams tp;
    tp.tstop = 1e-10;
    tp.dt = 1e-11;
    Simulator sim(net);
    auto res = sim.run(tp);
    EXPECT_NEAR(res.trace("MID").final(), 1.0, 1e-6);
}

TEST(Transient, NmosInverterPullsDown)
{
    // NMOS with resistive load: gate high -> output low.
    Netlist net;
    NodeId vdd = net.addNode("VDD");
    NodeId g = net.addNode("G");
    NodeId d = net.addNode("D");
    net.addVSource("Vdd", vdd, kGround, Pwl(1.1));
    Pwl gate(0.0);
    gate.step(1e-9, 1.1, 1e-10);
    net.addVSource("Vg", g, kGround, std::move(gate));
    net.addResistor("Rload", vdd, d, 50e3);
    net.addCapacitor("Cload", d, kGround, 1e-15, 1.1);

    TranParams tp;
    tp.tstop = 5e-9;
    tp.dt = 5e-12;
    Mosfet m;
    m.name = "M1";
    m.drain = d;
    m.gate = g;
    m.source = kGround;
    m.widthNm = 200;
    m.lengthNm = 40;
    net.addMosfet(m);

    Simulator sim(net);
    auto res = sim.run(tp);
    EXPECT_NEAR(res.trace("D").at(0.9e-9), 1.1, 0.05); // off: pulled up
    EXPECT_LT(res.trace("D").final(), 0.2);            // on: pulled down
}

TEST(Transient, BranchCurrentsRecordedAndOhmic)
{
    // 1 V source across a 1 kOhm resistor: i = 1 mA out of the source.
    Netlist net;
    NodeId a = net.addNode("A");
    net.addVSource("Vs", a, kGround, Pwl(1.0));
    net.addResistor("R", a, kGround, 1e3);
    TranParams tp;
    tp.tstop = 1e-10;
    tp.dt = 1e-11;
    const auto res = Simulator(net).run(tp);
    EXPECT_NEAR(res.trace("I(Vs)").final(), 1e-3, 1e-9);
}

TEST(Transient, SourceEnergyMatchesRcTheory)
{
    // Charging C through R from a step source: the source delivers
    // C V^2 total (half stored, half dissipated).
    Netlist net;
    NodeId in = net.addNode("VS");
    NodeId out = net.addNode("OUT");
    net.addVSource("Vvs", in, kGround, Pwl(1.0));
    net.addResistor("R", in, out, 1e3);
    net.addCapacitor("C", out, kGround, 1e-12, 0.0);
    TranParams tp;
    tp.tstop = 10e-9; // 10 tau: fully charged
    tp.dt = 5e-12;
    const auto res = Simulator(net).run(tp);
    const double e = res.sourceEnergy("Vvs");
    EXPECT_NEAR(e, 1e-12, 0.1e-12); // C V^2 = 1 pJ
}

TEST(Transient, SourceEnergyResolvesCaseInsensitiveNames)
{
    // The two resolution rules the SA testbenches rely on: "Vpre"
    // matches node "VPRE" by the full upper-cased name, and "Vsan"
    // matches node "SAN" by the name without its leading 'V'.
    Netlist net;
    NodeId vpre = net.addNode("VPRE");
    NodeId san = net.addNode("SAN");
    NodeId orphan = net.addNode("A");
    net.addVSource("Vpre", vpre, kGround, Pwl(1.0));
    net.addVSource("Vsan", san, kGround, Pwl(0.5));
    net.addVSource("Vzz", orphan, kGround, Pwl(0.0));
    net.addResistor("R1", vpre, kGround, 1e3);
    net.addResistor("R2", san, kGround, 1e3);

    TranParams tp;
    tp.tstop = 1e-9;
    tp.dt = 1e-10;
    const auto res = Simulator(net).run(tp);

    // Purely resistive: E = (V^2 / R) * tstop.
    EXPECT_NEAR(res.sourceEnergy("Vpre"), 1e-12, 1e-14);
    EXPECT_NEAR(res.sourceEnergy("Vsan"), 0.25e-12, 1e-14);

    // "Vzz" has a current trace but no node named "VZZ" or "ZZ": the
    // voltage-trace resolution must fail loudly, and an unknown source
    // has no current trace at all.
    EXPECT_THROW(res.sourceEnergy("Vzz"), std::out_of_range);
    EXPECT_THROW(res.sourceEnergy("Vmissing"), std::out_of_range);
}

TEST(SenseAmp, OcsaActivationCostsMoreEnergy)
{
    // The OCSA's extra phases draw extra charge from the rails; its
    // activation energy exceeds the classic SA's (the "energy and
    // power overheads" the paper says I5 papers ignore).
    auto energy = [](SaTopology topo) {
        SaParams p;
        p.topology = topo;
        const SaRun run = simulateActivation(p);
        return run.tran.sourceEnergy("Vsan") +
            run.tran.sourceEnergy("Vsap") +
            run.tran.sourceEnergy("Vpre") +
            run.tran.sourceEnergy("Vwl");
    };
    const double classic = energy(SaTopology::Classic);
    const double ocsa = energy(SaTopology::OffsetCancellation);
    EXPECT_GT(classic, 0.0);
    EXPECT_GT(ocsa, classic);
}

// --- Random-network property tests -----------------------------------

TEST(Transient, RandomResistorNetworksObeyKcl)
{
    // Random ladder networks: the DC solution must satisfy KCL at
    // every internal node (sum of branch currents < 1 nA).
    hifi::common::Rng rng(31);
    for (int trial = 0; trial < 8; ++trial) {
        Netlist net;
        const int n = 4 + static_cast<int>(rng.below(5));
        std::vector<NodeId> nodes;
        nodes.push_back(net.addNode("SRC"));
        for (int i = 1; i < n; ++i)
            nodes.push_back(net.addNode("N" + std::to_string(i)));
        net.addVSource("V", nodes[0], kGround, Pwl(1.0));

        struct Edge
        {
            NodeId a, b;
            double g;
        };
        std::vector<Edge> edges;
        for (int i = 1; i < n; ++i) {
            // Connect every node to a random earlier node and ground.
            const auto j = rng.below(static_cast<uint64_t>(i));
            const double r1 = rng.uniform(1e3, 1e5);
            const double r2 = rng.uniform(1e3, 1e5);
            net.addResistor("Ra" + std::to_string(i), nodes[i],
                            nodes[j], r1);
            net.addResistor("Rb" + std::to_string(i), nodes[i],
                            kGround, r2);
            edges.push_back({nodes[i], nodes[j], 1.0 / r1});
            edges.push_back({nodes[i], kGround, 1.0 / r2});
        }

        TranParams tp;
        tp.tstop = 1e-10;
        tp.dt = 1e-11;
        tp.gmin = 0.0;
        const auto res = Simulator(net).run(tp);

        std::vector<double> v(static_cast<size_t>(n), 0.0);
        for (int i = 0; i < n; ++i)
            v[static_cast<size_t>(i)] =
                res.trace(i == 0 ? "SRC" : "N" + std::to_string(i))
                    .final();
        for (int i = 1; i < n; ++i) {
            double kcl = 0.0;
            for (const auto &e : edges) {
                const double va = v[static_cast<size_t>(e.a - 1)];
                const double vb =
                    e.b == kGround ? 0.0
                                   : v[static_cast<size_t>(e.b - 1)];
                if (e.a == nodes[i])
                    kcl += (va - vb) * e.g;
                else if (e.b == nodes[i])
                    kcl -= (va - vb) * e.g;
            }
            EXPECT_LT(std::abs(kcl), 1e-9)
                << "trial " << trial << " node " << i;
        }
    }
}

TEST(Transient, SuperpositionHoldsOnLinearNetworks)
{
    // v(a V) + v(b V) == v((a+b) V) for a purely linear network.
    auto solve = [](double volts) {
        Netlist net;
        NodeId in = net.addNode("IN");
        NodeId mid = net.addNode("MID");
        NodeId out = net.addNode("OUT");
        net.addVSource("V", in, kGround, Pwl(volts));
        net.addResistor("R1", in, mid, 2.2e3);
        net.addResistor("R2", mid, kGround, 4.7e3);
        net.addResistor("R3", mid, out, 1.1e3);
        net.addCapacitor("C", out, kGround, 2e-12, 0.0);
        TranParams tp;
        tp.tstop = 50e-9; // several RC constants: settle to DC
        tp.dt = 50e-12;
        return Simulator(net).run(tp).trace("OUT").final();
    };
    EXPECT_NEAR(solve(0.4) + solve(0.7), solve(1.1), 1e-6);
}

TEST(Transient, EnergyDissipationIsNonNegative)
{
    // A discharging RC never goes below zero or above its initial
    // voltage (passivity).
    Netlist net;
    NodeId a = net.addNode("A");
    net.addCapacitor("C", a, kGround, 1e-12, 0.9);
    net.addResistor("R", a, kGround, 5e3);
    TranParams tp;
    tp.tstop = 30e-9;
    tp.dt = 20e-12;
    const auto res = Simulator(net).run(tp);
    const auto &v = res.trace("A");
    for (double value : v.values) {
        EXPECT_GE(value, -1e-6);
        EXPECT_LE(value, 0.9 + 1e-3);
    }
    // And it actually discharges: ~5 tau gone.
    EXPECT_LT(v.final(), 0.01);
}

// --- Dense vs sparse engine agreement ------------------------------

/**
 * Random mixed R/C/V/MOSFET netlist: two rails (a DC VDD and a ramp),
 * a connected resistive mesh with grounded caps carrying random
 * initial conditions, and a handful of inverter-style transistors of
 * both polarities.  Every topology decision comes from the seeded
 * counter RNG, so each seed is one reproducible circuit.
 */
Netlist
randomMixedNetlist(uint64_t seed)
{
    hifi::common::Rng rng(seed);
    Netlist net;
    const NodeId vdd = net.addNode("VDD");
    const NodeId in = net.addNode("IN");
    net.addVSource("Vdd", vdd, kGround, Pwl(1.1));
    Pwl ramp;
    ramp.point(0.0, 0.0).point(4e-9, 1.1);
    net.addVSource("Vin", in, kGround, std::move(ramp));

    std::vector<NodeId> nodes = {vdd, in};
    const int n = 6 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n; ++i) {
        const NodeId node = net.addNode("N" + std::to_string(i));
        const NodeId peer = nodes[rng.below(nodes.size())];
        net.addResistor("Rp" + std::to_string(i), node, peer,
                        rng.uniform(1e3, 2e4));
        if (rng.below(2) == 0)
            net.addCapacitor("C" + std::to_string(i), node, kGround,
                             rng.uniform(1e-14, 1e-13),
                             rng.uniform(0.0, 1.1));
        else
            net.addResistor("Rg" + std::to_string(i), node, kGround,
                            rng.uniform(1e3, 2e4));
        nodes.push_back(node);
    }

    const size_t internal = nodes.size() - 2;
    const int fets = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < fets; ++i) {
        Mosfet m;
        m.name = "M" + std::to_string(i);
        m.drain = nodes[2 + rng.below(internal)];
        m.gate = rng.below(2) == 0 ? in : nodes[2 + rng.below(internal)];
        if (rng.below(2) == 0) {
            m.model.type = MosType::Nmos;
            m.source = kGround;
        } else {
            m.model.type = MosType::Pmos;
            m.source = vdd;
        }
        m.widthNm = rng.uniform(80.0, 240.0);
        m.lengthNm = 40.0;
        net.addMosfet(m);
    }
    return net;
}

TEST(Transient, SparseAndDenseEnginesAgreeOnRandomNetlists)
{
    // The cached-symbolic sparse LU and the pivoting dense solve are
    // different factorizations of the same stamped matrix: with a
    // tight Newton tolerance every node voltage and branch current
    // must match to 1e-9 at every step, for both integrators.
    for (uint64_t seed : {11u, 23u, 42u}) {
        const Netlist net = randomMixedNetlist(seed);
        for (auto integ : {Integrator::BackwardEuler,
                           Integrator::Trapezoidal}) {
            TranParams tp;
            tp.tstop = 4e-9;
            tp.dt = 20e-12;
            tp.tolVolts = 1e-9;
            tp.integrator = integ;

            tp.solver = LinearSolver::Dense;
            const auto dense = Simulator(net).run(tp);
            tp.solver = LinearSolver::Sparse;
            const auto sparse = Simulator(net).run(tp);

            EXPECT_EQ(dense.nonConvergedSteps, 0u);
            EXPECT_EQ(sparse.nonConvergedSteps, 0u);
            ASSERT_EQ(dense.traces.size(), sparse.traces.size());
            for (const auto &[name, dtr] : dense.traces) {
                const Trace &str = sparse.trace(name);
                ASSERT_EQ(dtr.values.size(), str.values.size());
                for (size_t k = 0; k < dtr.values.size(); ++k)
                    ASSERT_NEAR(dtr.values[k], str.values[k], 1e-9)
                        << name << " seed " << seed << " step " << k;
            }
        }
    }
}

TEST(Transient, NonConvergedStepsMatchAcrossEngines)
{
    // An NMOS inverter switching under an absurdly small Newton
    // budget: some steps must fail to converge, and both engines must
    // report the same count (the per-step iteration schedule is then
    // pinned by maxNewton, keeping them in lockstep) while still
    // agreeing on the voltages.
    Netlist net;
    NodeId vdd = net.addNode("VDD");
    NodeId g = net.addNode("G");
    NodeId d = net.addNode("D");
    net.addVSource("Vdd", vdd, kGround, Pwl(1.1));
    Pwl gate(0.0);
    gate.step(1e-9, 1.1, 2e-10);
    net.addVSource("Vg", g, kGround, std::move(gate));
    net.addResistor("Rload", vdd, d, 50e3);
    net.addCapacitor("Cload", d, kGround, 1e-15, 1.1);
    Mosfet m;
    m.name = "M1";
    m.drain = d;
    m.gate = g;
    m.source = kGround;
    m.widthNm = 200;
    m.lengthNm = 40;
    net.addMosfet(m);

    TranParams tp;
    tp.tstop = 5e-9;
    tp.dt = 5e-12;
    tp.maxNewton = 2;

    tp.solver = LinearSolver::Dense;
    const auto dense = Simulator(net).run(tp);
    tp.solver = LinearSolver::Sparse;
    const auto sparse = Simulator(net).run(tp);

    EXPECT_GT(dense.nonConvergedSteps, 0u);
    EXPECT_EQ(dense.nonConvergedSteps, sparse.nonConvergedSteps);
    EXPECT_EQ(dense.totalNewtonIterations,
              sparse.totalNewtonIterations);
    for (const auto &[name, dtr] : dense.traces) {
        const Trace &str = sparse.trace(name);
        for (size_t k = 0; k < dtr.values.size(); ++k)
            ASSERT_NEAR(dtr.values[k], str.values[k], 1e-9)
                << name << " step " << k;
    }
}

TEST(Transient, RepeatedRunsOnOneSimulatorAreBitwiseIdentical)
{
    // The reusable workspace must be fully re-initialized by run():
    // back-to-back runs of one Simulator are bitwise identical.
    SaParams p;
    SaTestbench testbench(p);
    const SaRun a = testbench.simulate();
    const SaRun b = testbench.simulate();
    EXPECT_EQ(a.tran.totalNewtonIterations,
              b.tran.totalNewtonIterations);
    ASSERT_EQ(a.tran.traces.size(), b.tran.traces.size());
    for (const auto &[name, tra] : a.tran.traces) {
        const Trace &trb = b.tran.trace(name);
        ASSERT_EQ(tra.values.size(), trb.values.size());
        for (size_t k = 0; k < tra.values.size(); ++k)
            ASSERT_EQ(tra.values[k], trb.values[k])
                << name << " step " << k;
    }
}

// --- Sense amplifier behaviour -------------------------------------

class SaTopologyTest
    : public ::testing::TestWithParam<std::tuple<SaTopology, bool>>
{
};

TEST_P(SaTopologyTest, LatchesStoredBitAndRestoresCell)
{
    const auto [topology, store_one] = GetParam();
    SaParams p;
    p.topology = topology;
    p.storeOne = store_one;

    const SaRun run = simulateActivation(p);
    EXPECT_TRUE(run.latchedCorrectly)
        << saTopologyName(topology) << " storing "
        << (store_one ? 1 : 0)
        << " BL=" << run.blAtRestore << " BLB=" << run.blbAtRestore;

    // Restore: the cell must be written back toward the full rail.
    if (store_one)
        EXPECT_GT(run.cellAtRestore, 0.8 * p.vdd);
    else
        EXPECT_LT(run.cellAtRestore, 0.2 * p.vdd);

    // Rail separation develops.
    EXPECT_GT(run.tSense, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SaTopologyTest,
    ::testing::Combine(::testing::Values(SaTopology::Classic,
                                         SaTopology::OffsetCancellation),
                       ::testing::Bool()));

TEST(SenseAmp, ChargeSharingSignalSign)
{
    SaParams p;
    p.topology = SaTopology::Classic;
    p.storeOne = true;
    const SaRun one = simulateActivation(p);
    EXPECT_GT(one.signalBeforeLatch, 0.01);

    p.storeOne = false;
    const SaRun zero = simulateActivation(p);
    EXPECT_LT(zero.signalBeforeLatch, -0.01);
}

TEST(SenseAmp, ChargeSharingMagnitudeMatchesCapacitorDivider)
{
    // dV = (Vcell - Vbl) * Cs / (Cs + Cbl), within tolerance for the
    // finite wordline resistance path.
    SaParams p;
    p.topology = SaTopology::Classic;
    p.storeOne = true;
    const double expected = (p.vdd - p.vpre) * p.cellCapF /
        (p.cellCapF + p.blCapF + 2e-15);
    const SaRun run = simulateActivation(p);
    EXPECT_NEAR(run.signalBeforeLatch, expected, 0.25 * expected);
}

TEST(SenseAmp, OcsaDelaysChargeSharing)
{
    // Section VI-D: on OCSA chips, charge sharing happens only after
    // the offset-cancellation phase.
    SaParams p;
    p.topology = SaTopology::OffsetCancellation;
    SaSchedule sched;
    buildSaTestbench(p, sched);
    EXPECT_GT(sched.tChargeShare, sched.tOcEnd);
    EXPECT_GT(sched.tOcEnd, sched.tOcStart);
    EXPECT_GT(sched.tPreSense, sched.tChargeShare);

    SaParams c;
    c.topology = SaTopology::Classic;
    SaSchedule classic_sched;
    buildSaTestbench(c, classic_sched);
    EXPECT_LT(classic_sched.tChargeShare - classic_sched.tActivate,
              sched.tChargeShare - sched.tActivate);
}

TEST(SenseAmp, ClassicFailsUnderLargeMismatchOcsaSurvives)
{
    // The headline OCSA property: a deliberate latch asymmetry well
    // above the charge-sharing signal flips the classic SA but not
    // the offset-cancelling one.
    SaParams p;
    p.storeOne = true;
    p.vthMismatch = -0.30; // Mn2 much stronger: pulls BL low, wrongly

    p.topology = SaTopology::Classic;
    const SaRun classic = simulateActivation(p);
    EXPECT_FALSE(classic.latchedCorrectly);

    p.topology = SaTopology::OffsetCancellation;
    const SaRun ocsa = simulateActivation(p);
    EXPECT_TRUE(ocsa.latchedCorrectly);
}

TEST(SenseAmp, PrechargeReturnsBitlinesToVpre)
{
    SaParams p;
    p.topology = SaTopology::Classic;
    const SaRun run = simulateActivation(p);
    const double t_end = run.schedule.tEnd;
    EXPECT_NEAR(run.tran.trace("BL").at(t_end), p.vpre, 0.05);
    EXPECT_NEAR(run.tran.trace("BLB").at(t_end), p.vpre, 0.05);
}

TEST(SenseAmp, OcsaEqualizesThroughIsoPlusOc)
{
    // After the PRE command, with no standalone equalizer, BL and BLB
    // must still converge (via ISO + OC).
    SaParams p;
    p.topology = SaTopology::OffsetCancellation;
    const SaRun run = simulateActivation(p);
    const double t_end = run.schedule.tEnd;
    const double bl = run.tran.trace("BL").at(t_end);
    const double blb = run.tran.trace("BLB").at(t_end);
    EXPECT_NEAR(bl, blb, 0.05);
}

TEST(Transient, TrapezoidalMoreAccurateThanBackwardEuler)
{
    // RC charge curve at a coarse step: trapezoidal (2nd order) must
    // beat backward Euler (1st order).
    auto build = []() {
        Netlist net;
        NodeId in = net.addNode("IN");
        NodeId out = net.addNode("OUT");
        net.addVSource("Vin", in, kGround, Pwl(1.0));
        net.addResistor("R", in, out, 1e3);
        net.addCapacitor("C", out, kGround, 1e-12, 0.0);
        return net;
    };
    const double rc = 1e-9;
    const double t_probe = 1e-9;
    const double exact = 1.0 - std::exp(-t_probe / rc);

    TranParams tp;
    tp.tstop = 2e-9;
    tp.dt = 100e-12; // deliberately coarse
    Netlist net = build();

    tp.integrator = Integrator::BackwardEuler;
    const double be =
        Simulator(net).run(tp).trace("OUT").at(t_probe);
    tp.integrator = Integrator::Trapezoidal;
    const double tr =
        Simulator(net).run(tp).trace("OUT").at(t_probe);

    EXPECT_LT(std::abs(tr - exact), std::abs(be - exact));
    EXPECT_NEAR(tr, exact, 0.02);
}

TEST(Transient, TrapezoidalSaActivationStillLatches)
{
    SaParams p;
    p.topology = SaTopology::OffsetCancellation;
    TranParams tp = defaultSaTran();
    tp.integrator = Integrator::Trapezoidal;
    const SaRun run = simulateActivation(p, tp);
    EXPECT_TRUE(run.latchedCorrectly);
}

class ColumnReadTest
    : public ::testing::TestWithParam<std::tuple<SaTopology, bool>>
{
};

TEST_P(ColumnReadTest, ReadReturnsStoredBit)
{
    const auto [topology, stored] = GetParam();
    SaParams p;
    p.topology = topology;
    p.storeOne = stored;
    p.columnOp = ColumnOp::Read;
    const SaRun run = simulateActivation(p);
    EXPECT_EQ(run.readBit, stored ? 1 : 0);
    EXPECT_TRUE(run.latchedCorrectly); // read is non-destructive
    EXPECT_GT(run.schedule.tColStart, run.schedule.tLatch);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ColumnReadTest,
    ::testing::Combine(::testing::Values(SaTopology::Classic,
                                         SaTopology::OffsetCancellation),
                       ::testing::Bool()));

class ColumnWriteTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(ColumnWriteTest, WriteOverpowersLatchAndUpdatesCell)
{
    const auto [stored, written] = GetParam();
    SaParams p;
    p.topology = SaTopology::Classic;
    p.storeOne = stored;
    p.columnOp = ColumnOp::Write;
    p.writeBit = written;
    const SaRun run = simulateActivation(p);
    EXPECT_TRUE(run.writeSucceeded)
        << "stored " << stored << " wrote " << written << " cell "
        << run.cellAtRestore;
    if (written)
        EXPECT_GT(run.cellAtRestore, 0.8 * p.vdd);
    else
        EXPECT_LT(run.cellAtRestore, 0.2 * p.vdd);
}

INSTANTIATE_TEST_SUITE_P(Cases, ColumnWriteTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(MultiRow, TwoEqualCellsDoubleTheSignal)
{
    // ComputeDRAM-style simultaneous two-row activation
    // (Section VI-D): agreeing cells double the charge-sharing
    // signal; disagreeing cells nearly cancel.
    SaParams one;
    one.storeOne = true;
    const double single =
        simulateActivation(one).signalBeforeLatch;

    SaParams two = one;
    two.extraCells = {true};
    const double agree = simulateActivation(two).signalBeforeLatch;
    // Capacitive divider: dV = (Vcell - Vpre) 2Cs / (2Cs + Cb).
    const double expected = (one.vdd - one.vpre) * 2.0 *
        one.cellCapF / (2.0 * one.cellCapF + one.blCapF);
    EXPECT_NEAR(agree, expected, 0.15 * expected);
    EXPECT_GT(agree, 1.5 * single);

    two.extraCells = {false};
    const double conflict =
        simulateActivation(two).signalBeforeLatch;
    EXPECT_LT(std::abs(conflict), 0.1 * single);
}

TEST(MultiRow, OcsaBiasesMixedCharge)
{
    // On OCSA chips the bitlines sit at the diode-connected level
    // (below Vpre) when charge sharing starts, so a mixed multi-row
    // activation no longer cancels - the Section VI-D warning for
    // majority-based row operations.
    SaParams p;
    p.storeOne = true;
    p.extraCells = {false};

    p.topology = SaTopology::Classic;
    const double classic =
        simulateActivation(p).signalBeforeLatch;
    p.topology = SaTopology::OffsetCancellation;
    const double ocsa = simulateActivation(p).signalBeforeLatch;

    EXPECT_LT(std::abs(classic), 0.005);
    EXPECT_GT(ocsa, 0.010); // biased upward
}

TEST(MultiRow, ThreeRowMajority)
{
    // 2-vs-1 majority keeps a solid classic signal.
    SaParams p;
    p.storeOne = true;
    p.extraCells = {true, false};
    const SaRun run = simulateActivation(p);
    EXPECT_GT(run.signalBeforeLatch, 0.03);
    EXPECT_GT(run.blAtRestore, run.blbAtRestore);
}

TEST(DualSa, SharedControlDisturbsTheIdleSa)
{
    // Recommendation R2: control lines are shared across the region,
    // so latching SA A inevitably latches (a garbage value into)
    // rowless SA B too - per-SA control does not exist.
    DualSaParams d;
    const DualSaRun run = simulateSharedControl(d);
    EXPECT_TRUE(run.aLatchedCorrectly);
    EXPECT_TRUE(run.bDisturbed);
    EXPECT_GT(run.bSeparation, 0.5 * d.base.vdd);
}

TEST(DualSa, BothRowsSelectedBothLatch)
{
    DualSaParams d;
    d.activateOnlyA = false; // SA B also has a selected row
    d.bitA = true;
    d.bitB = false;
    const DualSaRun run = simulateSharedControl(d);
    EXPECT_TRUE(run.aLatchedCorrectly);
    const double t = run.schedule.tRestoreEnd - 2e-11;
    const double b_diff = run.tran.trace("B_BL").at(t) -
        run.tran.trace("B_BLB").at(t);
    EXPECT_LT(b_diff, -0.5 * d.base.vdd); // B latched its own '0'
}

TEST(Mismatch, VthSigmaFollowsPelgrom)
{
    EXPECT_NEAR(vthSigma(100, 100, 3.0), 0.03, 1e-12);
    // Quadrupling the area halves the sigma.
    EXPECT_NEAR(vthSigma(200, 200, 3.0), 0.015, 1e-12);
    EXPECT_THROW(vthSigma(0, 10, 3.0), std::invalid_argument);
}

TEST(Mismatch, LargerDevicesFailLess)
{
    MismatchParams mc;
    mc.trials = 12;
    mc.seed = 7;
    mc.avtVnm = 9.0; // exaggerated to provoke failures cheaply

    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;

    SaParams small;
    small.topology = SaTopology::Classic;
    small.sizing.nsaW = 60;
    small.sizing.nsaL = 30;
    const YieldResult tight = sensingYield(small, mc, tp);

    SaParams big = small;
    big.sizing.nsaW = 480;
    big.sizing.nsaL = 60;
    const YieldResult relaxed = sensingYield(big, mc, tp);

    EXPECT_LE(relaxed.failures, tight.failures);
}

TEST(SensingYield, NewtonPerStepHistogramIsPinned)
{
    // BatchSimulator::run tallies Newton iterations per lane-step
    // locally and merges them into solver.newton_per_step once per
    // run.  The merged histogram must equal the one per-step
    // observation produced: these figures were recorded that way.
    SaParams sa;
    sa.topology = SaTopology::Classic;
    MismatchParams mc;
    mc.trials = 12;
    mc.seed = 7;
    mc.avtVnm = 9.0;
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;

    for (const size_t threads : {size_t{1}, size_t{4}}) {
        const hifi::common::ScopedThreads scoped(threads);
        hifi::telemetry::Session session;
        sensingYield(sa, mc, tp);
        const auto collected = session.finish({});
        ASSERT_TRUE(collected != nullptr);
        const auto &metrics = collected->metrics;
        const auto hist =
            metrics.histograms.find("solver.newton_per_step");
        ASSERT_NE(hist, metrics.histograms.end());
        const auto newton =
            metrics.counters.find("solver.newton_iterations");
        ASSERT_NE(newton, metrics.counters.end());

        EXPECT_EQ(hist->second.count, 4404u) << threads;
        EXPECT_EQ(hist->second.sum, 10340.0) << threads;
        const std::vector<uint64_t> buckets = {0,  3306, 987, 31, 67, 0,
                                               12, 0,    0,   0,  0,  1};
        EXPECT_EQ(hist->second.buckets, buckets) << threads;
        // Every Newton iteration of every lane-step is in the sum.
        EXPECT_EQ(hist->second.sum,
                  static_cast<double>(newton->second))
            << threads;
    }
}

/**
 * The yield must be a pure function of the Monte-Carlo seed: each
 * trial samples the counter-seeded stream (seed, trial), so neither
 * the trial count chunking nor the worker thread count may leak into
 * the result.  Sweep all three knobs and compare against a 1-thread
 * reference at the same {trials, seed}.
 */
class SensingYieldSweep
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t>>
{
};

TEST_P(SensingYieldSweep, YieldIsPureFunctionOfSeed)
{
    const auto [trials, threads, seed] = GetParam();

    SaParams base;
    base.topology = SaTopology::Classic;
    MismatchParams mc;
    mc.trials = trials;
    mc.seed = seed;
    mc.avtVnm = 9.0;
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;

    YieldResult reference;
    {
        hifi::common::ScopedThreads serial(1);
        reference = sensingYield(base, mc, tp);
    }
    EXPECT_EQ(reference.trials, trials);

    hifi::common::ScopedThreads scoped(threads);
    const YieldResult run = sensingYield(base, mc, tp);
    EXPECT_EQ(run.trials, reference.trials);
    EXPECT_EQ(run.failures, reference.failures);
    // Exact: partials combine in chunk-index order.
    EXPECT_EQ(run.meanSignal, reference.meanSignal);

    // Prefix property of counter seeding: the first `trials` trials
    // of a longer run are the same trials, so failures cannot shrink
    // when trials grow at the same seed.  (Checked once per
    // {trials, seed}; it is thread-count independent by the above.)
    if (threads == 1) {
        MismatchParams more = mc;
        more.trials = trials + 3;
        const YieldResult extended = sensingYield(base, more, tp);
        EXPECT_GE(extended.failures, run.failures);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SensingYieldSweep,
    ::testing::Combine(::testing::Values<size_t>(6, 11),
                       ::testing::Values<size_t>(1, 2, 8),
                       ::testing::Values<uint64_t>(7, 99)));

TEST(Vcd, ExportsRealVariables)
{
    SaParams p;
    p.tRestore = 2e-9;
    p.tPrecharge = 1e-9;
    const SaRun run = simulateActivation(p);
    std::ostringstream ss;
    writeVcd(ss, run.tran);
    const std::string vcd = ss.str();
    EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var real 64"), std::string::npos);
    EXPECT_NE(vcd.find(" BL $end"), std::string::npos);
    EXPECT_NE(vcd.find(" SAN $end"), std::string::npos);
    // Value-change records exist.
    EXPECT_NE(vcd.find("\n#0\n"), std::string::npos);
    EXPECT_NE(vcd.find("\nr"), std::string::npos);
    TranResult empty;
    EXPECT_THROW(writeVcd(ss, empty), std::invalid_argument);
}

TEST(Spice, DeckContainsModelsDevicesAndAnalysis)
{
    SaParams p;
    p.topology = SaTopology::OffsetCancellation;
    SaSchedule schedule;
    const Netlist net = buildSaTestbench(p, schedule);
    std::ostringstream ss;
    writeSpice(ss, net, "test deck", schedule.tEnd, 50);
    const std::string deck = ss.str();
    EXPECT_NE(deck.find(".MODEL NSA NMOS (LEVEL=1"),
              std::string::npos);
    EXPECT_NE(deck.find(".MODEL PSA PMOS (LEVEL=1"),
              std::string::npos);
    EXPECT_NE(deck.find("MMn1 SBL BLB SAN SAN NSA"),
              std::string::npos);
    EXPECT_NE(deck.find("MMiso1 BL ISO SBL"), std::string::npos);
    EXPECT_NE(deck.find("CCcell CN 0"), std::string::npos);
    EXPECT_NE(deck.find("PWL("), std::string::npos);
    EXPECT_NE(deck.find(".TRAN"), std::string::npos);
    EXPECT_NE(deck.find(".END"), std::string::npos);
    EXPECT_THROW(writeSpice(ss, net, "x", 1e-9, 1),
                 std::invalid_argument);
}

TEST(Spice, FileExportForBothTopologies)
{
    for (auto topo : {SaTopology::Classic,
                      SaTopology::OffsetCancellation}) {
        SaParams p;
        p.topology = topo;
        const std::string path = std::string("/tmp/hifi_sa_") +
            (topo == SaTopology::Classic ? "classic" : "ocsa") +
            ".sp";
        writeSaSpiceFile(path, p);
        std::ifstream in(path);
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        EXPECT_NE(all.find("sense-amplifier testbench"),
                  std::string::npos);
        if (topo == SaTopology::OffsetCancellation)
            EXPECT_NE(all.find("MMoc1"), std::string::npos);
        else
            EXPECT_NE(all.find("MMeq"), std::string::npos);
    }
}

// ---- BatchSimulator: lockstep lanes vs the per-trial reference -----

/// Every trace, bit for bit, plus the Newton bookkeeping.
void
expectBitwiseEqual(const TranResult &batch, const TranResult &scalar,
                   const std::string &what)
{
    ASSERT_EQ(batch.traces.size(), scalar.traces.size()) << what;
    for (const auto &[name, tr] : scalar.traces) {
        const auto it = batch.traces.find(name);
        ASSERT_NE(it, batch.traces.end()) << what << " " << name;
        ASSERT_EQ(it->second.values.size(), tr.values.size())
            << what << " " << name;
        EXPECT_EQ(std::memcmp(it->second.values.data(),
                              tr.values.data(),
                              tr.values.size() * sizeof(double)),
                  0)
            << what << ": trace " << name << " bits differ";
    }
    EXPECT_EQ(batch.nonConvergedSteps, scalar.nonConvergedSteps)
        << what;
    EXPECT_EQ(batch.totalNewtonIterations,
              scalar.totalNewtonIterations)
        << what;
}

/// Run `lanes` mismatch trials through BatchSimulator and through one
/// ReferenceSimulator per lane (same per-lane vthDelta patches), and
/// require bitwise-identical results.
void
runBatchVsScalar(const Netlist &net, const TranParams &tp,
                 size_t maxLanes, size_t lanes,
                 const std::string &what)
{
    BatchSimulator sim(net, maxLanes);
    std::vector<Netlist> patched(lanes, net);
    for (size_t l = 0; l < lanes; ++l) {
        hifi::common::Rng rng(99, l);
        for (size_t mi = 0; mi < net.mosfets().size(); ++mi) {
            const double delta = rng.gaussian(0.0, 0.03);
            sim.setVthDelta(l, mi, delta);
            patched[l].mosfet(mi).vthDelta = delta;
        }
    }
    const std::vector<TranResult> got = sim.run(tp, lanes);
    ASSERT_EQ(got.size(), lanes) << what;
    for (size_t l = 0; l < lanes; ++l) {
        const TranResult ref = ReferenceSimulator(patched[l]).run(tp);
        expectBitwiseEqual(got[l], ref,
                           what + " lane " + std::to_string(l));
    }
}

TEST(Batch, LanesMatchScalarBitwiseAcrossTopologies)
{
    for (const SaTopology topo :
         {SaTopology::Classic, SaTopology::OffsetCancellation}) {
        SaParams p;
        p.topology = topo;
        SaSchedule sched;
        const Netlist net = buildSaTestbench(p, sched);
        TranParams tp = defaultSaTran();
        tp.dt = 50e-12;
        tp.tstop = sched.tEnd;
        runBatchVsScalar(net, tp, 4, 4, saTopologyName(topo));
    }
}

TEST(Batch, DualSaTestbenchMatchesScalarWithOddLaneCount)
{
    // Three of five lanes: odd widths exercise the non-AVX2 lane
    // loops and the lanes < maxLanes stride handling.
    const DualSaParams dp;
    SaSchedule sched;
    const Netlist net = buildDualSaTestbench(dp, sched);
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;
    tp.tstop = sched.tEnd;
    runBatchVsScalar(net, tp, 5, 3, "dual-sa");
}

TEST(Batch, SingleLaneMatchesScalarSimulator)
{
    SaParams p;
    SaSchedule sched;
    const Netlist net = buildSaTestbench(p, sched);
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;
    tp.tstop = sched.tEnd;
    runBatchVsScalar(net, tp, 1, 1, "single-lane");
}

TEST(Batch, PortableLanesMatchSimdLanesBitwise)
{
    SaParams p;
    SaSchedule sched;
    const Netlist net = buildSaTestbench(p, sched);
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;
    tp.tstop = sched.tEnd;
    {
        hifi::common::simd::ScopedForceScalar off;
        runBatchVsScalar(net, tp, 4, 4, "portable-batch");
    }
}

TEST(Batch, ForcedDenseFallbackLaneStaysBitwise)
{
    // A lane forced through the dense fallback must reproduce the
    // reference Dense engine bit for bit, and must not perturb its
    // sparse-path neighbours.
    SaParams p;
    SaSchedule sched;
    const Netlist net = buildSaTestbench(p, sched);
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;
    tp.tstop = sched.tEnd;

    const size_t lanes = 4;
    BatchSimulator sim(net, lanes);
    std::vector<Netlist> patched(lanes, net);
    for (size_t l = 0; l < lanes; ++l) {
        hifi::common::Rng rng(7, l);
        for (size_t mi = 0; mi < net.mosfets().size(); ++mi) {
            const double delta = rng.gaussian(0.0, 0.03);
            sim.setVthDelta(l, mi, delta);
            patched[l].mosfet(mi).vthDelta = delta;
        }
    }
    sim.setForceDenseFallback(2, true);
    const std::vector<TranResult> got = sim.run(tp, lanes);

    for (size_t l = 0; l < lanes; ++l) {
        TranParams stp = tp;
        stp.solver =
            l == 2 ? LinearSolver::Dense : LinearSolver::Sparse;
        const TranResult ref = ReferenceSimulator(patched[l]).run(stp);
        expectBitwiseEqual(got[l], ref,
                           "dense-fallback lane " +
                               std::to_string(l));
    }
}

TEST(Batch, LaneAndMosfetIndexValidation)
{
    SaParams p;
    SaSchedule sched;
    const Netlist net = buildSaTestbench(p, sched);
    EXPECT_THROW(BatchSimulator(net, 0), std::invalid_argument);
    BatchSimulator sim(net, 2);
    EXPECT_THROW(sim.setVthDelta(2, 0, 0.0), std::out_of_range);
    EXPECT_THROW(sim.setVthDelta(0, net.mosfets().size(), 0.0),
                 std::out_of_range);
    EXPECT_THROW(sim.setForceDenseFallback(2, true),
                 std::out_of_range);
    const TranParams tp = defaultSaTran();
    EXPECT_THROW(sim.run(tp, 0), std::invalid_argument);
    EXPECT_THROW(sim.run(tp, 3), std::invalid_argument);
}

TEST(Batch, SensingYieldMatchesPerTrialReference)
{
    // 21 trials split into Monte-Carlo chunks of 16 + 5: two full
    // 8-lane blocks, then a partial 5-of-8 block.  The sweep must
    // reproduce a per-trial reference built here from the same
    // Rng(seed, trial) draws, one ReferenceSimulator run per trial,
    // and the chunk-ordered sum: same failure count, bitwise-identical
    // mean signal, with the SIMD lane kernels on and off.
    const SaParams sa;
    MismatchParams mc;
    mc.avtVnm = 9.0;
    mc.trials = 21;
    TranParams tran = defaultSaTran();
    tran.dt = 50e-12;

    SaSchedule sched;
    const Netlist net = buildSaTestbench(sa, sched);
    TranParams tp = tran;
    tp.tstop = sched.tEnd;
    size_t failures = 0;
    double total = 0.0;
    for (size_t t0 = 0; t0 < mc.trials; t0 += 16) {
        const size_t t1 = std::min<size_t>(t0 + 16, mc.trials);
        double chunk = 0.0;
        for (size_t trial = t0; trial < t1; ++trial) {
            Netlist patched = net;
            hifi::common::Rng rng(mc.seed, trial);
            for (auto &fet : patched.mosfets())
                if (fet.name == "Mn1" || fet.name == "Mn2" ||
                    fet.name == "Mp1" || fet.name == "Mp2")
                    fet.vthDelta = rng.gaussian(
                        0.0, vthSigma(fet.widthNm, fet.lengthNm,
                                      mc.avtVnm));
            const SaRun run = analyzeActivation(
                sa, sched, ReferenceSimulator(patched).run(tp), tp.dt);
            failures += run.latchedCorrectly ? 0 : 1;
            chunk += std::abs(run.signalBeforeLatch);
        }
        total += chunk;
    }
    const double meanSignal = total / static_cast<double>(mc.trials);

    for (const bool simd : {true, false}) {
        std::optional<hifi::common::simd::ScopedForceScalar> off;
        if (!simd)
            off.emplace();
        const YieldResult got = sensingYield(sa, mc, tran);
        EXPECT_EQ(got.trials, mc.trials);
        EXPECT_EQ(got.failures, failures) << "simd " << simd;
        EXPECT_EQ(std::memcmp(&got.meanSignal, &meanSignal,
                              sizeof(double)),
                  0)
            << "simd " << simd << ": meanSignal bits differ";
    }
}

TEST(Simulator, PatchedVthDeltaReachesTheNextRun)
{
    // SaTestbench keeps one Simulator over its own netlist.  A
    // vthDelta patched between simulate() calls must reach the next
    // run: both runs match the reference over an equally patched copy.
    const SaParams p;
    SaTestbench bench(p);
    TranParams tp = defaultSaTran();
    tp.dt = 50e-12;
    TranParams rtp = tp;
    rtp.tstop = bench.schedule().tEnd;
    Netlist copy = bench.netlist();

    const SaRun first = bench.simulate(tp);
    expectBitwiseEqual(first.tran, ReferenceSimulator(copy).run(rtp),
                       "before patch");

    for (size_t i = 0; i < copy.mosfets().size(); ++i) {
        if (copy.mosfets()[i].name != "Mn1")
            continue;
        bench.netlist().mosfet(i).vthDelta = 0.05;
        copy.mosfet(i).vthDelta = 0.05;
    }
    const SaRun second = bench.simulate(tp);
    expectBitwiseEqual(second.tran, ReferenceSimulator(copy).run(rtp),
                       "after patch");
}

} // namespace
