/**
 * @file
 * Building blocks of the transient analog solver: Modified Nodal
 * Analysis with backward-Euler or trapezoidal integration and
 * Newton-Raphson iteration per timestep.  The time loop itself lives
 * in circuit::BatchSimulator (batch.hh); circuit::Simulator is its
 * one-lane facade.
 *
 * Everything the netlist topology determines is cached once per
 * simulator (MnaStructure) and reused across timesteps, Newton
 * iterations, and repeated runs (Monte-Carlo trials):
 *
 *  - a **static stamp** holding the device contributions that never
 *    change within a run (gmin, resistors, capacitor companion
 *    conductances, voltage-source incidence), memcpy-restored at the
 *    start of every Newton iteration; only the MOSFET linearizations
 *    and the RHS are restamped;
 *  - a **sparse LU factorization with a cached symbolic phase**: the
 *    fill-in pattern, pivot order, and flattened elimination program
 *    are computed once from the matrix structure, and each Newton
 *    iteration only re-runs the numeric factorization.
 *
 * Small systems fall back to an in-place dense solve with partial
 * pivoting over the same stamped values (see TranParams::solver).
 * MOSFETs are linearized analytically each Newton iteration.
 */

#ifndef HIFI_CIRCUIT_SOLVER_HH
#define HIFI_CIRCUIT_SOLVER_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/waveform.hh"
#include "common/simd.hh"

namespace hifi
{
namespace circuit
{

/// Integration method for the transient solver.
enum class Integrator
{
    BackwardEuler, ///< robust, first order (default)
    Trapezoidal,   ///< second order, less numerical damping
};

/// Linear-solve engine for the Newton inner loop.
enum class LinearSolver
{
    Auto,   ///< sparse above a small dimension cutoff, dense below
    Dense,  ///< in-place Gaussian elimination with partial pivoting
    Sparse, ///< cached-symbolic sparse LU (static pivot order)
};

/// Below this dimension LinearSolver::Auto picks the dense engine.
inline constexpr size_t kSparseCutoff = 8;

/** Transient analysis parameters. */
struct TranParams
{
    /// Simulation end time (s).
    double tstop = 20e-9;

    /// Fixed timestep (s).
    double dt = 10e-12;

    Integrator integrator = Integrator::BackwardEuler;

    /// Linear-solve engine (Auto: sparse for dim >= 8).
    LinearSolver solver = LinearSolver::Auto;

    /// Conductance from every node to ground, for convergence.
    double gmin = 1e-9;

    /// Newton iteration limit per step.
    int maxNewton = 200;

    /// Newton convergence tolerance on node voltages (V).
    double tolVolts = 1e-6;

    /// Per-iteration voltage-update clamp (V), damps oscillation.
    double maxStepVolts = 0.3;
};

/**
 * Result of a transient run: one trace per non-ground node, plus one
 * per voltage source carrying its branch current (named "I(<name>)",
 * positive flowing out of the positive terminal into the circuit).
 */
struct TranResult
{
    std::map<std::string, Trace> traces;

    const Trace &trace(const std::string &node) const;

    /**
     * Energy delivered by a source over the run (J): the integral of
     * v(t) * i(t) dt using the recorded branch current.
     *
     * The source's voltage trace is resolved case-insensitively from
     * its name ("Vpre" drives node "VPRE") or its name without the
     * leading 'V' ("Vsan" drives node "SAN"), via an upper-cased name
     * index built once per result.  Do not rename traces after the
     * first call.
     */
    double sourceEnergy(const std::string &source_name) const;

    /// Number of Newton iterations summed over all timesteps.
    size_t totalNewtonIterations = 0;

    /// Steps on which Newton failed to converge within the limit.
    size_t nonConvergedSteps = 0;

  private:
    /// Lazy upper-cased-name -> trace index (see sourceEnergy).
    mutable std::map<std::string, const Trace *> upperIndex_;
};

/**
 * Sparse LU with a cached symbolic factorization.
 *
 * analyze() runs once per matrix structure: it picks a static pivot
 * order (symbolic Markowitz restricted to diagonal or structurally
 * symmetric entries, for numerical safety on MNA matrices), computes
 * the fill-in pattern, and compiles the elimination into flat index
 * programs.  factor() then re-runs only the numeric elimination
 * in-place over a caller-owned value array, and solve() performs the
 * permuted forward/backward substitution.  No allocation happens after
 * analyze().
 */
class SparseLu
{
  public:
    /**
     * Analyze a dim x dim structure given its structural (row, col)
     * entries (duplicates allowed).  Throws std::invalid_argument on
     * an empty/structurally singular pattern.
     */
    void analyze(size_t dim, const std::vector<std::pair<int, int>> &entries);

    size_t dim() const { return dim_; }

    /// Total slots (structural + fill) of the analyzed pattern.
    size_t slots() const { return colIdx_.size(); }

    /**
     * Slot index of entry (row, col) in the value array, or -1 when
     * the entry is outside the analyzed pattern.
     */
    int slot(int row, int col) const;

    /**
     * Numerically factor `values` (size slots(), fill slots zeroed by
     * the caller) in place following the cached pivot order.  Returns
     * false when a pivot is numerically negligible; the values array
     * is then partially overwritten and the caller should fall back
     * to a dense solve of the original matrix.
     */
    bool factor(double *values);

    /**
     * Solve with the last successful factor(): reads `b` (size dim),
     * writes `x` (size dim).  `values` must be the array factor()
     * ran over.
     */
    void solve(const double *values, const double *b, double *x);

    /**
     * Batched numeric factorization over an SoA value block laid out
     * `values[slot * lanes + lane]`: replays the cached elimination
     * program once, streaming every lane through each row operation
     * (accumulate-and-reduce over the lane axis).  Lanes with
     * ok[lane] == 0 on entry are skipped; a lane that hits a
     * numerically negligible pivot gets ok[lane] cleared and its
     * values are garbage from then on (callers re-stamp those lanes
     * for the dense fallback).  For surviving lanes the per-lane
     * arithmetic — operand order included — is identical to
     * factor(), so the factors are bitwise equal to lanes-many
     * scalar factorizations.  One lane runs factor() itself; widths
     * divisible by 4 take the AVX2 kernel when it is available, and
     * every other width the portable lane loop.
     */
    void factorLanes(double *values, size_t lanes, uint8_t *ok);

    /**
     * Batched substitution over factorLanes() output: `b` and `x`
     * are `[row * lanes + lane]`.  Lanes whose factorization failed
     * produce garbage that callers must ignore.
     */
    void solveLanes(const double *values, const double *b, double *x,
                    size_t lanes);

    /// CSR layout of the analyzed (post-fill) pattern.
    const std::vector<int> &rowPtr() const { return rowPtr_; }
    const std::vector<int> &colIdx() const { return colIdx_; }

  private:
    void factorLanesPortable(double *values, size_t lanes, uint8_t *ok);
    void solveLanesPortable(const double *values, const double *b,
                            double *x, size_t lanes);
#if HIFI_SIMD_AVX2_COMPILED
    // AVX2 forms of the lane kernels (4 lanes per ymm register,
    // element-wise ops only — bitwise identical to the portable
    // forms).  Selected at runtime when the CPU reports AVX2 and
    // HIFI_SIMD does not force scalar; lanes must be a multiple of 4.
    HIFI_AVX2_TARGET void factorLanesAvx2(double *values, size_t lanes,
                                          uint8_t *ok);
    HIFI_AVX2_TARGET void solveLanesAvx2(const double *values,
                                         const double *b, double *x,
                                         size_t lanes);
#endif

    size_t dim_ = 0;

    // Full (post-fill) pattern in CSR form.
    std::vector<int> rowPtr_;
    std::vector<int> colIdx_;

    // Elimination program (one Step per pivot, in elimination order).
    struct Step
    {
        int pivotSlot;   ///< slot of (pivotRow, pivotCol)
        int pivotRow;    ///< RHS row the pivot equation lives in
        int pivotCol;    ///< unknown eliminated by this step
        int rowOpBegin;  ///< range into rowOps_
        int rowOpEnd;
        int uBegin;      ///< range into uSlots_/uVars_ (U row entries)
        int uEnd;
    };
    struct RowOp
    {
        int factorSlot; ///< slot of (row, pivotCol): holds L after factor
        int row;        ///< RHS row this op updates
        int pairBegin;  ///< range into pairTarget_/pairSrc_
        int pairEnd;
    };
    std::vector<Step> steps_;
    std::vector<RowOp> rowOps_;
    std::vector<int> pairTarget_;
    std::vector<int> pairSrc_;
    std::vector<int> uSlots_;
    std::vector<int> uVars_;

    std::vector<double> scratch_; ///< permuted RHS during solve()
    std::vector<double> laneScratch_; ///< SoA RHS during solveLanes()
    std::vector<double> laneTmp_; ///< 2 x lanes, portable kernels
};

/**
 * Cached MNA structure of one netlist: the matrix dimensions, the
 * analyzed symbolic LU, and the stamp slot tables that map every
 * device onto value-array slots and RHS rows.  Built once per netlist
 * topology; the engine then only fills in numbers.
 */
struct MnaStructure
{
    explicit MnaStructure(const Netlist &netlist);

    const Netlist &net; ///< must outlive the structure

    size_t nv = 0;  ///< unknown node voltages
    size_t ns = 0;  ///< voltage-source branch currents
    size_t dim = 0; ///< nv + ns

    SparseLu lu;

    // Stamp slot tables (indices into the value array; -1 = ground).
    std::vector<int> gminSlots;
    struct ResistorSlots
    {
        int aa, bb, ab, ba;
    };
    struct CapacitorSlots
    {
        int aa, bb, ab, ba;
        long ra, rb; ///< RHS rows (-1 = ground)
    };
    struct MosfetSlots
    {
        int m[2][3]; ///< [drain row, source row] x [vd, vg, vs] slots
        long rhs[2]; ///< RHS rows for the drain/source stamp
    };
    struct SourceSlots
    {
        int pb, bp, nb, bn;
        size_t brow; ///< branch row index
    };
    std::vector<ResistorSlots> resistorSlots;
    std::vector<CapacitorSlots> capacitorSlots;
    std::vector<MosfetSlots> mosfetSlots;
    std::vector<SourceSlots> sourceSlots;

    /**
     * Assemble the static stamp (gmin, resistors, capacitor companion
     * conductances, source incidence) into `base` (size lu.slots()).
     * The IC-pinning step-0 variant scales the capacitor companions.
     */
    void assembleBase(const TranParams &params, bool step0,
                      std::vector<double> &base) const;
};

/**
 * Dense solve of the CSR-stamped system: scatters `vals` (laid out by
 * `lu`'s pattern) into the `a` scratch (dim x dim row-major), copies
 * `rhs` into `b`, and runs in-place Gaussian elimination with partial
 * pivoting.  Writes the solution into `x` (size dim).  Throws
 * std::runtime_error on a singular matrix.  This is *the* dense
 * engine: LinearSolver::Dense and the per-lane fallback after a
 * negligible sparse pivot both call it.
 */
void solveDenseCsr(const SparseLu &lu, const double *vals,
                   const double *rhs, double *x, double *a, double *b);

/**
 * Evaluate a level-1 MOSFET: drain current and its partial derivatives
 * with respect to the terminal voltages (vd, vg, vs).
 *
 * Sign convention: `id` is the current flowing from the drain terminal
 * into the device (negative for a conducting PMOS).
 */
struct MosEval
{
    double id;
    double dIdVd;
    double dIdVg;
    double dIdVs;
};

MosEval evalMosfet(const Mosfet &m, double vd, double vg, double vs);

/**
 * Same evaluation with the threshold offset supplied by the caller
 * instead of read from `m.vthDelta`: the batched engine keeps one
 * offset per (device, lane) without mutating the shared netlist.
 * evalMosfet(m, vd, vg, vs) == evalMosfet(m, m.vthDelta, vd, vg, vs)
 * bit for bit.
 */
MosEval evalMosfet(const Mosfet &m, double vth_delta, double vd,
                   double vg, double vs);

} // namespace circuit
} // namespace hifi

#endif // HIFI_CIRCUIT_SOLVER_HH
