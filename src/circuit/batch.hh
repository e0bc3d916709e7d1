/**
 * @file
 * The transient engine: a lockstep batched Newton time loop, and
 * Simulator, its one-lane facade for single runs.
 *
 * Every sensingYield trial shares one netlist topology, one sparse
 * structure, and one symbolic LU — only the four latch vthDelta values
 * change.  BatchSimulator exploits that: it runs a block of B trials
 * ("lanes") through one time loop with structure-of-arrays workspaces
 * (`values[slot][lane]`, `rhs[row][lane]`), one Newton loop advancing
 * all lanes with per-lane convergence masks, and a batched numeric LU
 * that replays the cached elimination program across lanes
 * (SparseLu::factorLanes / solveLanes).
 *
 * Bit-identical contract: each lane's arithmetic is exactly that of a
 * per-trial scalar Newton loop — same operand order per value, same
 * damped update, same convergence comparison.  A lane that converges
 * is *retired*: its iterate and branch currents freeze, like the
 * scalar loop's early-exit `break`, while the remaining lanes keep
 * iterating.  A lane whose batched factorization hits a negligible
 * pivot re-stamps itself and runs the dense partial-pivoting solve
 * (solveDenseCsr).  tests/test_circuit.cc holds every lane bitwise
 * equal to the scalar loop kept in tests/solver_reference.hh, across
 * topologies, batch remainders, SIMD on and off, and a forced
 * fallback lane.
 */

#ifndef HIFI_CIRCUIT_BATCH_HH
#define HIFI_CIRCUIT_BATCH_HH

#include <cstdint>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/solver.hh"

namespace hifi
{
namespace circuit
{

/**
 * Batched transient simulator over a fixed netlist.
 *
 * Construction caches the shared MNA structure and sizes the SoA
 * workspaces for up to `maxLanes` lanes; run() solves any block of
 * 1..maxLanes lanes in lockstep.  Per-lane MOSFET threshold offsets
 * are held inside the simulator (setVthDelta) so the shared netlist is
 * never mutated; offsets default to each device's own vthDelta at
 * construction time.  The referenced netlist must outlive the
 * simulator; value patches are allowed between runs but topology
 * changes require a new instance.
 */
class BatchSimulator
{
  public:
    BatchSimulator(const Netlist &netlist, size_t maxLanes);

    size_t maxLanes() const { return maxLanes_; }

    /// Set lane `lane`'s threshold offset for netlist MOSFET
    /// `mosfetIndex` (what a single run reads from its vthDelta).
    void setVthDelta(size_t lane, size_t mosfetIndex, double delta);

    /**
     * Testing hook: route this lane through the dense fallback on
     * every Newton iteration, making it execute exactly the
     * LinearSolver::Dense arithmetic while its neighbours stay on the
     * batched sparse path.
     */
    void setForceDenseFallback(size_t lane, bool on);

    /**
     * Run `lanes` transients in lockstep and return one TranResult
     * per lane — bitwise identical to `lanes` single runs over the
     * same netlist with each lane's vthDelta patched in.
     */
    std::vector<TranResult> run(const TranParams &params, size_t lanes);

  private:
    /// Re-stamp lane `lane` into scalar-layout vals/rhs buffers (for
    /// the per-lane dense fallback).
    void restampLane(size_t lane, size_t lanes,
                     const std::vector<double> &base, double *vals,
                     double *rhs);

    /// Portable MOSFET linearization of every active lane into the
    /// SoA work matrix/RHS (exact scalar-restamp arithmetic per lane).
    void stampLanesScalar(size_t lanes, const uint8_t *active);

#if HIFI_SIMD_AVX2_COMPILED
    /**
     * AVX2 form of the lane stamp: four lanes per register, with the
     * MOSFET operating-region branches turned into blends.  Every
     * lane's operation sequence (and therefore rounding) is exactly
     * the scalar form's; retired lanes are stamped too — their SoA
     * columns are dead, and skipping them would only cost a branch.
     */
    HIFI_AVX2_TARGET void stampLanesAvx2(size_t lanes);

    /**
     * AVX2 Newton state update: branch currents, unclamped max-|delta|
     * per lane (written to `maxDelta`), and the damped voltage update.
     * Retired lanes keep their frozen state via blend-masked stores;
     * their maxDelta entries are garbage the caller must ignore.
     * Comparisons are compare+blend (not min/max) so NaN propagation
     * matches the scalar std::clamp / std::max exactly.
     */
    HIFI_AVX2_TARGET void updateLanesAvx2(size_t lanes,
                                          const uint8_t *active,
                                          double maxStepVolts,
                                          double *maxDelta);
#endif

    const Netlist &netlist_;
    MnaStructure st_;
    size_t maxLanes_ = 0;

    std::vector<double> vthDelta_;    ///< [mosfet * maxLanes + lane]
    std::vector<uint8_t> forceDense_; ///< [lane]

    // SoA workspaces, `[slot-or-row * lanes + lane]`, sized for
    // maxLanes at construction and reused across runs.
    std::vector<double> baseVals_;      ///< shared static stamp [slot]
    std::vector<double> baseValsStep0_; ///< IC-pinned variant [slot]
    std::vector<double> baseSplat_;      ///< baseVals_ splatted to SoA
    std::vector<double> baseSplatStep0_; ///< step-0 variant, SoA
    std::vector<double> workVals_;
    std::vector<double> rhsStep_;
    std::vector<double> rhsWork_;
    std::vector<double> x_;
    std::vector<double> v_; ///< [node * lanes + lane], ground row 0
    std::vector<double> capPrev_;
    std::vector<double> capIPrev_;
    std::vector<double> capGeq_; ///< per capacitor (lane-independent)
    std::vector<double> branchCurrents_;
    std::vector<uint8_t> okLanes_;

    // Single-lane scratch for the dense fallback path.
    std::vector<double> laneVals_;
    std::vector<double> laneRhs_;
    std::vector<double> laneX_;
    std::vector<double> denseA_;
    std::vector<double> denseB_;
};

/**
 * Transient simulator over a fixed netlist: a one-lane BatchSimulator.
 *
 * Construction caches the matrix structure and the symbolic LU; run()
 * only fills in numbers.  The referenced netlist must outlive the
 * simulator.  Between run() calls the caller may patch device
 * *values* in place (MOSFET vthDelta, source waveforms): every run
 * reads them from the netlist.  Adding or removing devices or nodes
 * invalidates the cached structure and requires a new Simulator.
 */
class Simulator
{
  public:
    explicit Simulator(const Netlist &netlist);

    /// Run a transient analysis and record every node voltage.
    TranResult run(const TranParams &params);

  private:
    const Netlist &netlist_;
    BatchSimulator lane_;
};

} // namespace circuit
} // namespace hifi

#endif // HIFI_CIRCUIT_BATCH_HH
