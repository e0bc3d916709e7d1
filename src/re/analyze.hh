/**
 * @file
 * Reverse engineering of an SA region from a reconstructed volume
 * (Section V-A, steps i-viii).
 *
 * The analysis pipeline:
 *  (i)    segment planar layer slabs into material masks;
 *  (ii)   anchor on the MAT bitlines (M1 components spanning the
 *         region in X);
 *  (iii)  extract transistors: gate components over active regions;
 *  (iv)   classify: multiplexer (single gate per active), common-gate
 *         strips (gates spanning the region in Y), coupled pairs
 *         (two gates sharing an active);
 *  (v)    column transistors: the multiplexers nearest the MAT;
 *  (vi)   latch: coupled pairs, cross-coupling traced through the
 *         contacts that join each gate's poly tab to the partner
 *         bitline (Fig. 8);
 *  (vii)  precharge/equalizer vs ISO/OC: by strip count and order;
 *         one bridged component = classic PEQ, three independent
 *         strips = OCSA;
 *  (viii) pSA identified as the narrower latch cluster.
 */

#ifndef HIFI_RE_ANALYZE_HH
#define HIFI_RE_ANALYZE_HH

#include <optional>
#include <vector>

#include "common/geometry.hh"
#include "fab/defects.hh"
#include "image/volume3d.hh"
#include "models/chip_data.hh"

namespace hifi
{
namespace re
{

/** nm per voxel along each axis of the reconstructed volume. */
struct PlanarScales
{
    double xNm = 20.0; ///< slice pitch (FIB)
    double yNm = 5.0;  ///< SEM pixel
    double zNm = 5.0;  ///< SEM pixel
};

/** One reverse-engineered transistor. */
struct ExtractedDevice
{
    models::Role role = models::Role::Nsa;
    common::Rect gate;      ///< nm, planar bounding box
    double wNm = 0.0;
    double lNm = 0.0;
    long bitline = -1;      ///< served bitline index, when known
    long couplesTo = -1;    ///< latch: bitline driving the gate
};

/**
 * A silicon defect flagged by the analysis.  `where` is the anomaly's
 * planar footprint: the bridge for a short, the gap for an open, the
 * orphaned gate for a missing via, the blob for a particle.
 */
struct DetectedDefect
{
    fab::DefectKind kind = fab::DefectKind::BitlineShort;
    common::Rect where; ///< nm, planar footprint of the anomaly
    long bitlineA = -1; ///< affected bitlines, when identifiable
    long bitlineB = -1;
};

/** Full analysis result for one region. */
struct RegionAnalysis
{
    models::Topology topology = models::Topology::Classic;
    size_t commonGateStrips = 0;

    std::vector<common::Rect> bitlines; ///< nm, sorted by Y
    std::vector<ExtractedDevice> devices;

    /// Silicon defects flagged during extraction.  Bitline shorts and
    /// opens are *repaired* for the rest of the analysis (the merged
    /// component split, the broken line reunited), so the topology
    /// and measurements still come out; missing vias leave their
    /// latch device with couplesTo = -1.
    std::vector<DetectedDefect> defects;

    size_t countRole(models::Role role) const;

    /// Mean measured dimensions of a role (nullopt if absent).
    std::optional<models::Dims> meanDims(models::Role role) const;

    /// True when every traced latch pair is properly cross-coupled
    /// (gate of each side driven by the partner's bitline).
    bool crossCouplingConsistent() const;
};

/**
 * Analyze a reconstructed (denoised, aligned) volume.
 *
 * @param recon    dense volume assembled by the scope::postprocess
 *                 chain (a tiled result is materialized first)
 * @param scales   physical voxel pitch per axis
 * @param detector detector the stack was acquired with
 */
RegionAnalysis analyzeRegion(const image::Volume3D &recon,
                             const PlanarScales &scales,
                             models::Detector detector);

} // namespace re
} // namespace hifi

#endif // HIFI_RE_ANALYZE_HH
