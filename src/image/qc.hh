/**
 * @file
 * Per-slice image quality control for FIB/SEM acquisition.
 *
 * Real campaigns are dominated by imaging pathologies (curtaining,
 * charging, focus loss, detector dropout, stage excursions — §IV-B/C
 * of the paper), so the acquisition loop needs an online detector that
 * decides, slice by slice, whether a frame is usable or must be
 * re-imaged.  The metrics here are all reference-free or
 * neighbour-relative: a real microscope has no clean ground truth.
 *
 *  - SNR estimate: scene variance over noise variance, with the noise
 *    sigma estimated from the median absolute Laplacian (immune to the
 *    scene's own edges).
 *  - Focus score: mean squared gradient (Tenengrad); defocus is
 *    detected *relative* to the recent history median, since the
 *    absolute value depends on the scene.
 *  - Saturation fraction: pixels at or above the detector rail;
 *    charging blooms push whole regions there.
 *  - Dead-row fraction: constant rows, the signature of detector
 *    dropout (a fully blank frame scores 1.0 and also fails SNR).
 *  - Stripe score: low-frequency column-mean modulation (curtaining);
 *    flagged on the *differential* profile vs the previous accepted
 *    slice, aligned by the recovered neighbour shift, so the scene's
 *    own vertical structure — and its drift — cancels out.
 *  - MI vs previous slice + recovered shift: slice skips collapse the
 *    mutual information; drift excursions show up as a neighbour shift
 *    beyond the instrument's re-registration bound.
 *
 * All functions are deterministic and, through the parallel kernels
 * they call, thread-count invariant.  QcMonitor keeps the accepted
 * reference's quantized MI plane across calls, so evaluate() quantizes
 * only the candidate.
 */

#ifndef HIFI_IMAGE_QC_HH
#define HIFI_IMAGE_QC_HH

#include <cstddef>
#include <vector>

#include "image/image2d.hh"
#include "image/registration.hh"

namespace hifi
{
namespace image
{

/** Decision thresholds for the QC detector. */
struct QcThresholds
{
    /// Minimum estimated SNR (scene variance / noise variance).
    double minSnr = 0.8;

    /// Intensity at/above which a pixel counts as saturated.
    double saturationLevel = 1.05;

    /// Maximum tolerated saturated-pixel fraction.
    double maxSaturationFraction = 0.01;

    /// Maximum tolerated fraction of constant (dead) rows.
    double maxDeadRowFraction = 0.02;

    /// Maximum differential stripe score vs the previous accepted
    /// slice (absolute threshold is 4x this when no history exists).
    double maxStripeScore = 0.02;

    /// Defocus: focus score below this fraction of the history median.
    double minFocusRatio = 0.45;

    /// Content break: MI below this fraction of the history median.
    double minMiRatio = 0.55;

    /// Largest credible per-slice neighbour shift (px, per axis).
    long maxNeighborShiftPx = 3;

    /// Half-width of the neighbour shift search (px).
    long shiftSearchPx = 8;

    /// Histogram bins for the MI computations.
    size_t miBins = 16;

    /// Accepted-slice history window for the relative thresholds.
    size_t history = 5;
};

/// Which QC checks fired; OR-ed into QcMetrics::flags.
enum QcFlag : unsigned
{
    kQcLowSnr = 1u << 0,
    kQcSaturation = 1u << 1,
    kQcDeadRows = 1u << 2,
    kQcStripes = 1u << 3,
    kQcDefocus = 1u << 4,
    kQcLowMi = 1u << 5,
    kQcShift = 1u << 6,
};

/** Per-slice QC measurements plus the fired-check bitmask. */
struct QcMetrics
{
    double snr = 0.0;
    double focusScore = 0.0;
    double saturationFraction = 0.0;
    double deadRowFraction = 0.0;
    double stripeScore = 0.0;

    /// MI vs the previous accepted slice; -1 when no reference exists.
    double miVsPrev = -1.0;

    /// Recovered shift vs the previous accepted slice (MI search).
    long shiftX = 0;
    long shiftY = 0;

    unsigned flags = 0;
    bool flagged() const { return flags != 0; }
};

/// Noise sigma estimate from the median absolute interior Laplacian
/// (the median is common::median's, found without sorting).
double estimateNoiseSigma(const Image2D &img);

/// Mean squared gradient (Tenengrad focus measure).
double gradientEnergy(const Image2D &img);

/// Fraction of pixels with intensity >= level.
double saturationFraction(const Image2D &img, double level);

/// Fraction of rows whose intensity range is (numerically) zero.
double deadRowFraction(const Image2D &img);

/**
 * Low-frequency column-mean modulation: the RMS deviation of the
 * moving-average-smoothed column-mean profile from its mean.  High for
 * curtaining stripes, low for scenes whose vertical structure is
 * higher-frequency than width/8.
 */
double stripeScore(const Image2D &img);

/// Smoothed column-mean profile used by stripeScore (for diffing).
std::vector<double> smoothedColumnProfile(const Image2D &img);

/// RMS of the mean-removed difference between two column profiles
/// (0 when the sizes differ or the profiles are empty).
double profileDifferenceRms(const std::vector<double> &a,
                            const std::vector<double> &b);

/// Intrinsic (reference-free) metrics with their absolute flags set.
QcMetrics computeQcMetrics(const Image2D &img,
                           const QcThresholds &t = {});

/**
 * Stateful online detector: evaluates each candidate slice against the
 * absolute thresholds and against a short history of *accepted*
 * slices (focus/MI medians, previous-slice stripe profile and shift).
 * The caller decides acceptance and feeds accepted slices back via
 * accept(); rejected attempts never pollute the baselines.
 */
class QcMonitor
{
  public:
    explicit QcMonitor(QcThresholds thresholds = {});

    /// Evaluate a candidate slice.  Does not update the history.
    QcMetrics evaluate(const Image2D &slice) const;

    /// Commit an accepted slice (and its metrics) to the history.
    void accept(const Image2D &slice, const QcMetrics &metrics);

    /**
     * Record that a whole slice was given up on (no attempt accepted).
     * Widens the credible-shift bound by one pixel per rejected slice:
     * the scene legitimately advances between the stale reference and
     * the next candidate, and without this allowance one bad slice
     * would cascade shift rejections through a laterally moving scene.
     */
    void noteRejected();

    bool hasReference() const { return hasPrev_; }
    const QcThresholds &thresholds() const { return thresholds_; }

  private:
    QcThresholds thresholds_;
    QuantizedPlane prevPlane_; ///< the accepted reference, for MI
    std::vector<double> prevProfile_;
    bool hasPrev_ = false;
    size_t gapSinceAccept_ = 0;
    std::vector<double> focusHistory_;
    std::vector<double> miHistory_;
};

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_QC_HH
