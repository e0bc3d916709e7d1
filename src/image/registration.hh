/**
 * @file
 * Mutual-information slice registration (Section IV-C).
 *
 * The paper aligns each FIB/SEM slice to its predecessor with Dragonfly's
 * mutual-information algorithm.  Planar-view fidelity requires residual
 * alignment error below 0.77% of the slice height, so we expose the
 * pairwise MI search, its chained form over a run of slices (what
 * scope::postprocess calls per window) and the residual against ground
 * truth.
 *
 * Fast path: each image is quantized into bin-index planes *once*, and
 * every candidate offset counts an integer joint histogram over those
 * planes.  With bins * bins <= 256 the planes are bytes (idx * bins for
 * the fixed image, idx for the moving one), so a joint bin is one byte
 * add; the counts go into four interleaved sub-histograms summed at the
 * end.  One scorer serves every search: registerShiftMi is a chain of
 * one pair.  Bin assignment, counts, and the MI arithmetic are exactly
 * those of the straightforward per-candidate re-quantization, so the
 * scores — and therefore the recovered shifts — are bitwise identical to
 * the reference implementation (retained below for the equivalence
 * tests).
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

/** Parameters for the MI shift search. */
struct MiParams
{
    /// Histogram bins per axis for the joint intensity histogram.
    size_t bins = 32;

    /// Search window: shifts in [-maxShift, maxShift] on both axes.
    /// Every offset in the window is scored.
    long maxShift = 8;
};

/**
 * One image pre-quantized into contiguous bin indices (row-major, same
 * layout as the source Image2D).  Building this once per image is what
 * lets the shift search drop the per-candidate re-quantization.  Only
 * one form is filled: the byte planes when bins * bins <= 256, else
 * idx.
 */
struct QuantizedPlane
{
    size_t width = 0;
    size_t height = 0;
    size_t bins = 0;
    std::vector<uint8_t> fixedBytes;  ///< bin * bins (as the fixed image)
    std::vector<uint8_t> movingBytes; ///< bin (as the moving image)
    std::vector<uint16_t> idx;        ///< bin index per pixel, < bins
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
 * by (dx, dy): quantizes both images and runs the shift search's
 * per-candidate scorer, exposed for the equivalence tests.
 */
double mutualInformationAtShift(const Image2D &a, const Image2D &b,
                                long dx, long dy, size_t bins = 32);

/**
 * Reference implementation of mutualInformationAtShift that
 * re-quantizes both images per call (the original algorithm).
 * Retained as the ground truth for the bitwise-equivalence tests;
 * not used on the hot path.
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
 * registerShiftMi of every slice against its predecessor: element i is
 * registerShiftMi(slices[i - 1], slices[i], params), with `anchor`
 * standing in for slices[-1] (no anchor: element 0 is {0, 0}).
 * Each slice is quantized once, and every (pair, candidate) score runs
 * in one parallel fan-out.  Bitwise identical to calling
 * registerShiftMi pair by pair, at any thread count.
 */
std::vector<std::pair<long, long>> registerShiftMiChain(
    const Image2D *anchor, const std::vector<Image2D> &slices,
    const MiParams &params = {});

/**
 * Reference exhaustive search scoring every candidate with the
 * re-quantizing MI (same tie-break rule).  Retained for the
 * equivalence tests.
 */
std::pair<long, long> registerShiftMiReference(
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
