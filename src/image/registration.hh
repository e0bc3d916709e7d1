/**
 * @file
 * Mutual-information slice registration (Section IV-C).
 *
 * The paper aligns each FIB/SEM slice to its predecessor with Dragonfly's
 * mutual-information algorithm.  Planar-view fidelity requires residual
 * alignment error below 0.77% of the slice height, so we expose the
 * pairwise MI search (chained over the stack by scope::postprocess) and
 * the residual against ground truth.
 *
 * Fast path: both images are quantized into bin-index planes *once* per
 * registration, and every candidate offset accumulates an integer joint
 * histogram over those planes.  Bin assignment, counts, and the MI
 * arithmetic are exactly those of the straightforward per-candidate
 * re-quantization, so the scores — and therefore the recovered shifts —
 * are bitwise identical to the reference implementation (which is
 * retained below for the equivalence tests and bench baselines).
 */

#ifndef HIFI_IMAGE_REGISTRATION_HH
#define HIFI_IMAGE_REGISTRATION_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "image/image2d.hh"

namespace hifi
{
namespace image
{

/** Shift-search strategy for registerShiftMi. */
enum class MiStrategy
{
    /// Score every offset in the full window.  The default: exact by
    /// construction, and the result the equivalence tests pin down.
    Exhaustive,

    /**
     * Coarse-to-fine: exhaustive search on a downsampled pyramid
     * level, then a small refinement window per finer level.  Several
     * times fewer candidate evaluations at large windows, but a
     * heuristic — a peak that only emerges at full resolution can be
     * missed — which is why it is opt-in rather than the default.
     */
    Pyramid,
};

/** Parameters for the MI shift search. */
struct MiParams
{
    /// Histogram bins per axis for the joint intensity histogram.
    size_t bins = 32;

    /// Search window: shifts in [-maxShift, maxShift] on both axes.
    long maxShift = 8;

    /// Candidate enumeration strategy (Exhaustive unless opted in).
    MiStrategy strategy = MiStrategy::Exhaustive;
};

/**
 * One image pre-quantized into contiguous bin indices (row-major, same
 * layout as the source Image2D).  Building this once per image is what
 * lets the shift search drop the per-candidate re-quantization.
 */
struct QuantizedPlane
{
    size_t width = 0;
    size_t height = 0;
    size_t bins = 0;
    std::vector<uint16_t> idx; ///< bin index per pixel, < bins
};

/**
 * Quantize an image into its bin-index plane using the image's own
 * intensity range — the identical bin assignment the reference MI
 * uses.  Throws for bins < 2 or bins > 65535 (uint16_t indices).
 */
QuantizedPlane quantizePlane(const Image2D &img, size_t bins);

/**
 * Mutual information (nats) between two images of identical shape,
 * computed from a joint histogram over the overlapping region.
 */
double mutualInformation(const Image2D &a, const Image2D &b,
                         size_t bins = 32);

/**
 * MI over the overlap of `a` and `b` when b is conceptually translated
 * by (dx, dy) — the per-candidate score of the shift search, exposed
 * for the equivalence tests.  Fast quantized-plane path.
 */
double mutualInformationAtShift(const Image2D &a, const Image2D &b,
                                long dx, long dy, size_t bins = 32);

/**
 * Reference implementation of mutualInformationAtShift that
 * re-quantizes both images per call (the original algorithm).
 * Retained as the ground truth for the bitwise-equivalence tests and
 * as the bench baseline; not used on the hot path.
 */
double mutualInformationAtShiftReference(const Image2D &a,
                                         const Image2D &b, long dx,
                                         long dy, size_t bins = 32);

/**
 * Find the integer (dx, dy) translation of `moving` that maximizes
 * mutual information with `fixed`.  Ties (within 1e-12) are broken by
 * the smallest |dx| + |dy|, then lexicographically by (dy, dx), so a
 * featureless frame registers at (0, 0) instead of the window corner.
 *
 * @return the shift to *apply to moving* so it best overlays fixed.
 */
std::pair<long, long> registerShiftMi(const Image2D &fixed,
                                      const Image2D &moving,
                                      const MiParams &params = {});

/**
 * Reference exhaustive search scoring every candidate with the
 * re-quantizing MI (same tie-break rule).  Retained for the
 * equivalence tests and the bench baseline.
 */
std::pair<long, long> registerShiftMiReference(
    const Image2D &fixed, const Image2D &moving,
    const MiParams &params = {});

/**
 * Sub-pixel refinement of the best integer shift: fits a parabola to
 * the MI values at the integer optimum and its neighbours on each
 * axis and returns the fractional peak position.  Accuracy ~0.1 px on
 * structured images, which is what the 0.77% alignment budget needs
 * at small slice heights.
 */
std::pair<double, double> registerShiftMiSubpixel(
    const Image2D &fixed, const Image2D &moving,
    const MiParams &params = {});

/**
 * Residual alignment error against ground truth drift, as the mean
 * Euclidean pixel distance between recovered and true per-slice shifts
 * (after removing the global offset of slice 0).
 */
double alignmentResidual(
    const std::vector<std::pair<long, long>> &recovered,
    const std::vector<std::pair<long, long>> &truth);

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_REGISTRATION_HH
