/**
 * @file
 * Two sense amplifiers sharing their control lines, as deployed in
 * real chips: the PEQ/PRE gates span the entire SA region and the
 * SAN/SAP rails are common (Section V-A, inaccuracy I3 /
 * Recommendation R2).
 *
 * This testbench demonstrates why proposals that assume *per-SA*
 * control (e.g. precharging one SA while its neighbour latches)
 * cannot work on commodity chips: with shared lines, every control
 * action hits all SAs in the region.
 */

#ifndef HIFI_CIRCUIT_DUAL_SA_HH
#define HIFI_CIRCUIT_DUAL_SA_HH

#include "circuit/sense_amp.hh"

namespace hifi
{
namespace circuit
{

/** Parameters for the shared-control experiment. */
struct DualSaParams
{
    /// Electrical base (topology must be Classic; the OCSA control
    /// sharing is analogous).
    SaParams base;

    /// Stored bits of the two cells.
    bool bitA = true;
    bool bitB = false;

    /// Only SA A's wordline fires; SA B has no selected row.
    bool activateOnlyA = true;
};

/** Outcome of the shared-control run. */
struct DualSaRun
{
    TranResult tran;
    SaSchedule schedule;

    /// SA A latched its cell correctly.
    bool aLatchedCorrectly = false;

    /// SA B's bitlines were dragged away from Vpre by the shared
    /// latch enable even though it had no selected row.
    bool bDisturbed = false;

    /// |B's BL - BLB| right after the shared latch fires (V).
    double bSeparation = 0.0;
};

/**
 * Build the two-SA region netlist and fill in the control schedule.
 * Node names: A_BL/A_BLB/A_CN and B_BL/B_BLB/B_CN; the control nodes
 * (WL, PEQ, SAN, SAP) are single and shared.  Exposed so tests and
 * batched Monte-Carlo sweeps can run the same topology as
 * BatchSimulator lanes.
 */
Netlist buildDualSaTestbench(const DualSaParams &params,
                             SaSchedule &schedule);

/** Build and simulate the two-SA region (see buildDualSaTestbench). */
DualSaRun simulateSharedControl(const DualSaParams &params,
                                const TranParams &tran =
                                    defaultSaTran());

} // namespace circuit
} // namespace hifi

#endif // HIFI_CIRCUIT_DUAL_SA_HH
