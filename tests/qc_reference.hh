/**
 * @file
 * Re-quantizing reference for the per-slice QC monitor, kept only for
 * the tests.  It runs image::QcMonitor's decision logic with the plain
 * building blocks: the noise sigma through common::median, the
 * neighbour shift through testref::registerShiftMiReference and MI vs
 * the previous slice through testref::mutualInformationAtShiftReference,
 * re-quantizing both frames on every call.  tests/test_image.cc holds
 * the library monitor bitwise equal to it.
 */

#ifndef HIFI_TESTS_QC_REFERENCE_HH
#define HIFI_TESTS_QC_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/stats.hh"
#include "image/qc.hh"

#include "mi_reference.hh"

namespace hifi
{
namespace testref
{

/// estimateNoiseSigma with the median taken by common::median.
inline double
noiseSigmaReference(const image::Image2D &img)
{
    if (img.width() < 3 || img.height() < 3)
        return 0.0;
    std::vector<double> lap;
    for (size_t y = 1; y + 1 < img.height(); ++y) {
        for (size_t x = 1; x + 1 < img.width(); ++x) {
            const double l = img.at(x - 1, y) + img.at(x + 1, y) +
                img.at(x, y - 1) + img.at(x, y + 1) -
                4.0 * img.at(x, y);
            lap.push_back(std::abs(l));
        }
    }
    return 1.4826 * common::median(std::move(lap)) /
        4.47213595499957939;
}

inline double
profileRmsReference(const std::vector<double> &profile)
{
    if (profile.empty())
        return 0.0;
    double mean = 0.0;
    for (double v : profile)
        mean += v;
    mean /= static_cast<double>(profile.size());
    double var = 0.0;
    for (double v : profile) {
        const double d = v - mean;
        var += d * d;
    }
    return std::sqrt(var / static_cast<double>(profile.size()));
}

/// image::computeQcMetrics with noiseSigmaReference.
inline image::QcMetrics
qcMetricsReference(const image::Image2D &img,
                   const image::QcThresholds &t)
{
    image::QcMetrics m;
    if (img.empty()) {
        m.flags |= image::kQcLowSnr;
        return m;
    }
    const double sigma = noiseSigmaReference(img);
    const double mean = img.meanValue();
    double var = 0.0;
    for (float v : img.data()) {
        const double d = v - mean;
        var += d * d;
    }
    var /= static_cast<double>(img.size());
    const double noise_var = sigma * sigma;
    m.snr = noise_var > 1e-12
        ? std::max(0.0, var - noise_var) / noise_var
        : (var > 1e-12 ? 1e6 : 0.0);
    m.focusScore = image::gradientEnergy(img);
    m.saturationFraction =
        image::saturationFraction(img, t.saturationLevel);
    m.deadRowFraction = image::deadRowFraction(img);
    m.stripeScore = image::stripeScore(img);
    if (m.snr < t.minSnr)
        m.flags |= image::kQcLowSnr;
    if (m.saturationFraction > t.maxSaturationFraction)
        m.flags |= image::kQcSaturation;
    if (m.deadRowFraction > t.maxDeadRowFraction)
        m.flags |= image::kQcDeadRows;
    return m;
}

/// image::QcMonitor that keeps the previous frame itself and
/// re-quantizes it on every evaluation.
class ReferenceQcMonitor
{
  public:
    explicit ReferenceQcMonitor(image::QcThresholds thresholds)
        : t_(thresholds)
    {
    }

    image::QcMetrics
    evaluate(const image::Image2D &slice) const
    {
        image::QcMetrics m = qcMetricsReference(slice, t_);
        bool aligned_stripes = false;
        if (hasPrev_ && prev_.width() == slice.width() &&
            prev_.height() == slice.height()) {
            const auto shift = registerShiftMiReference(
                prev_, slice, {t_.miBins, t_.shiftSearchPx});
            m.shiftX = shift.first;
            m.shiftY = shift.second;
            const image::Image2D aligned =
                slice.shifted(shift.first, shift.second);
            m.miVsPrev = mutualInformationAtShiftReference(
                prev_, aligned, 0, 0, t_.miBins);
            const long max_shift =
                t_.maxNeighborShiftPx + static_cast<long>(gap_);
            if (std::labs(m.shiftX) > max_shift ||
                std::labs(m.shiftY) > max_shift)
                m.flags |= image::kQcShift;
            if (!miHistory_.empty()) {
                const double med = common::median(miHistory_);
                if (med > 0.0 && m.miVsPrev < t_.minMiRatio * med)
                    m.flags |= image::kQcLowMi;
            }
            const std::vector<double> profile =
                image::smoothedColumnProfile(aligned);
            const size_t w = profile.size();
            const size_t margin = std::max<size_t>(3, w / 8) / 2 +
                static_cast<size_t>(std::labs(shift.first));
            if (w == prevProfile_.size() && w > 2 * margin + 4) {
                std::vector<double> diff;
                for (size_t i = margin; i + margin < w; ++i)
                    diff.push_back(profile[i] - prevProfile_[i]);
                if (profileRmsReference(diff) > t_.maxStripeScore)
                    m.flags |= image::kQcStripes;
                aligned_stripes = true;
            }
        }
        if (!aligned_stripes && m.stripeScore > 4.0 * t_.maxStripeScore)
            m.flags |= image::kQcStripes;
        if (!focusHistory_.empty()) {
            const double med = common::median(focusHistory_);
            if (med > 0.0 && m.focusScore < t_.minFocusRatio * med)
                m.flags |= image::kQcDefocus;
        }
        return m;
    }

    void
    accept(const image::Image2D &slice, const image::QcMetrics &m)
    {
        prev_ = slice;
        prevProfile_ = image::smoothedColumnProfile(slice);
        hasPrev_ = true;
        gap_ = 0;
        const auto push = [this](std::vector<double> &hist, double v) {
            hist.push_back(v);
            if (hist.size() > t_.history)
                hist.erase(hist.begin());
        };
        push(focusHistory_, m.focusScore);
        if (m.miVsPrev >= 0.0)
            push(miHistory_, m.miVsPrev);
    }

    void noteRejected() { ++gap_; }

  private:
    image::QcThresholds t_;
    image::Image2D prev_;
    std::vector<double> prevProfile_;
    bool hasPrev_ = false;
    size_t gap_ = 0;
    std::vector<double> focusHistory_;
    std::vector<double> miHistory_;
};

} // namespace testref
} // namespace hifi

#endif // HIFI_TESTS_QC_REFERENCE_HH
