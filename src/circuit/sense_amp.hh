/**
 * @file
 * Sense-amplifier testbench builders and event sequencing.
 *
 * Two topologies, matching the paper's reverse-engineered circuits:
 *
 *  - Classic (Fig. 2b, deployed on B4, C4, C5): cross-coupled latch,
 *    three-transistor precharge/equalizer driven by PEQ, column mux.
 *    Activation events (Fig. 2c): charge sharing -> latch & restore ->
 *    precharge + equalize.
 *
 *  - Offset-cancellation OCSA (Fig. 9a, deployed on A4, A5, B5): adds
 *    two ISO and two OC transistors and two control signals.  The ISO
 *    devices decouple the bitlines from the latch *drains* but not the
 *    gates; the OC devices diode-connect each latch half so per-device
 *    threshold offsets are stored on the bitlines before sensing.
 *    There is no standalone equalizer: equalization happens when ISO
 *    and OC are on simultaneously (Section V-A).  Activation events
 *    (Fig. 9b): offset cancellation -> charge sharing -> pre-sensing
 *    (latching without the bitline load) -> restore -> precharge.
 */

#ifndef HIFI_CIRCUIT_SENSE_AMP_HH
#define HIFI_CIRCUIT_SENSE_AMP_HH

#include <string>
#include <vector>

#include "circuit/batch.hh"
#include "circuit/netlist.hh"

namespace hifi
{
namespace circuit
{

/// SA circuit topology.
enum class SaTopology
{
    Classic,
    OffsetCancellation,
};

const std::string &saTopologyName(SaTopology topology);

/// Column operation performed during the restore window.
enum class ColumnOp
{
    None,  ///< plain activation (ACT ... PRE)
    Read,  ///< pulse Yi and sense the LIO pair
    Write, ///< pulse Yi with driven LIO rails, overpowering the latch
};

/** Transistor sizing of the SA testbench, in nm. */
struct SaSizing
{
    double nsaW = 120.0, nsaL = 40.0;
    double psaW = 90.0, psaL = 40.0;
    double preW = 100.0, preL = 35.0;
    double eqW = 100.0, eqL = 35.0;   ///< classic only
    double colW = 150.0, colL = 35.0;
    double isoW = 140.0, isoL = 35.0; ///< OCSA only
    double ocW = 90.0, ocL = 35.0;    ///< OCSA only
};

/** Electrical and timing parameters of one activation testbench. */
struct SaParams
{
    SaTopology topology = SaTopology::Classic;
    SaSizing sizing;

    double vdd = 1.1;       ///< core array rail (V)
    double vpp = 2.2;       ///< boosted wordline / control level (V)
    double vpre = 0.55;     ///< bitline precharge level, VDD/2

    double cellCapF = 18e-15;  ///< storage capacitor
    double blCapF = 55e-15;    ///< bitline capacitance (per side)
    double senseNodeCapF = 2e-15; ///< OCSA internal node parasitic
    double blResOhm = 2e3;     ///< lumped bitline resistance

    bool storeOne = true;   ///< stored bit

    /**
     * Deterministic latch asymmetry: +delta/2 on Mn1/Mp1 and -delta/2
     * on Mn2/Mp2 threshold voltages.  Monte-Carlo runs instead edit
     * the built netlist per trial.
     */
    double vthMismatch = 0.0;

    /// Column operation during the restore window.
    ColumnOp columnOp = ColumnOp::None;

    /// Data driven on LIO for a write.
    bool writeBit = false;

    /// Yi pulse width (s).
    double tCol = 3e-9;

    /// Write-driver impedance to the LIO rails (ohms).
    double writeDriverOhm = 300.0;

    /**
     * Extra cells on the same bitline whose wordlines fire together
     * with the primary one - the out-of-spec multi-row activation
     * that ComputeDRAM-style in-memory compute relies on
     * (Section VI-D).  Values are the extra cells' stored bits.
     */
    std::vector<bool> extraCells;

    // Phase durations (s).
    double tSettle = 2e-9;
    double tOc = 3e-9;       ///< OCSA offset-cancel phase
    double tShare = 3e-9;    ///< charge-sharing phase
    double tPreSense = 1.5e-9; ///< OCSA pre-sensing phase
    double tRestore = 8e-9;
    double tPrecharge = 5e-9;
};

/** Absolute event times of the built schedule (s). */
struct SaSchedule
{
    double tActivate = 0.0;     ///< ACT command (precharge released)
    double tOcStart = -1.0;     ///< OCSA only
    double tOcEnd = -1.0;       ///< OCSA only
    double tChargeShare = 0.0;  ///< wordline rises
    double tPreSense = -1.0;    ///< OCSA only (latch without load)
    double tLatch = 0.0;        ///< restore drive (classic: SAN/SAP)
    double tColStart = -1.0;    ///< Yi pulse (Read/Write only)
    double tColEnd = -1.0;
    double tRestoreEnd = 0.0;   ///< end of restore phase
    double tPrechargeCmd = 0.0; ///< PRE command
    double tEnd = 0.0;
};

/**
 * Build the activation testbench netlist for the given parameters.
 *
 * Node names: BL, BLB, CN (cell node), SAN, SAP, and for OCSA also
 * SBL/SBLB (latch drain nodes).  Latch devices are named Mn1, Mn2,
 * Mp1, Mp2 for Monte-Carlo threshold editing.
 *
 * @param params   testbench parameters
 * @param schedule filled with the absolute event times
 */
Netlist buildSaTestbench(const SaParams &params, SaSchedule &schedule);

/** Digest of one simulated activation. */
struct SaRun
{
    TranResult tran;
    SaSchedule schedule;

    /// Final BL / BLB / cell voltages at the end of restore.
    double blAtRestore = 0.0;
    double blbAtRestore = 0.0;
    double cellAtRestore = 0.0;

    /// Differential right before the latch/pre-sense fires.
    double signalBeforeLatch = 0.0;

    /// True when BL - BLB carries the stored bit at restore end.
    bool latchedCorrectly = false;

    /// Read op: bit seen on the LIO pair at the end of the Yi pulse
    /// (-1 when no read was scheduled).
    int readBit = -1;

    /// Write op: cell holds the written value at restore end.
    bool writeSucceeded = false;

    /// Time from ACT until |BL-BLB| first exceeds 90% of VDD (s);
    /// negative if it never does.
    double tSense = -1.0;
};

/// Default transient settings sized for the SA testbench.
TranParams defaultSaTran();

/**
 * Reusable activation testbench: the netlist, schedule, and a
 * simulator with its cached matrix structure, built once and reused
 * across many runs.  Callers may patch device values through
 * netlist() (e.g. the latch vthDelta fields) between simulate()
 * calls and the next run sees them; the cached structure stays valid
 * because only values, not topology, change.  Non-copyable (the
 * simulator references the owned netlist).
 */
class SaTestbench
{
  public:
    explicit SaTestbench(const SaParams &params);
    SaTestbench(const SaTestbench &) = delete;
    SaTestbench &operator=(const SaTestbench &) = delete;

    /// Simulate one activation of the (possibly patched) netlist and
    /// analyze it.  `tran.tstop` is overridden by the schedule.
    SaRun simulate(const TranParams &tran = defaultSaTran());

    Netlist &netlist() { return net_; }
    const SaSchedule &schedule() const { return schedule_; }

  private:
    SaParams params_;
    SaSchedule schedule_;
    Netlist net_;
    Simulator sim_;
};

/// Simulate one activation and analyze the result.
SaRun simulateActivation(const SaParams &params,
                         const TranParams &tran = defaultSaTran());

/**
 * Analyze a finished transient run of a testbench built by
 * buildSaTestbench (also used by the Monte-Carlo mismatch driver,
 * which runs its trials as BatchSimulator lanes).
 */
SaRun analyzeActivation(const SaParams &params,
                        const SaSchedule &schedule, TranResult tran,
                        double dt);

} // namespace circuit
} // namespace hifi

#endif // HIFI_CIRCUIT_SENSE_AMP_HH
