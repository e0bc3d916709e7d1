#include "image/qc.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/stats.hh"

namespace hifi
{
namespace image
{

namespace
{

/// 1.4826 * MAD -> sigma for a Gaussian; the Laplacian kernel
/// [0,1,0;1,-4,1;0,1,0] has an L2 norm of sqrt(20).
constexpr double kMadToSigma = 1.4826;
constexpr double kLaplacianNorm = 4.47213595499957939; // sqrt(20)

std::vector<double>
columnMeans(const Image2D &img)
{
    std::vector<double> means(img.width(), 0.0);
    for (size_t y = 0; y < img.height(); ++y)
        for (size_t x = 0; x < img.width(); ++x)
            means[x] += img.at(x, y);
    const double inv_h = img.height()
        ? 1.0 / static_cast<double>(img.height())
        : 0.0;
    for (double &m : means)
        m *= inv_h;
    return means;
}

double
profileRms(const std::vector<double> &profile)
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

} // namespace

double
estimateNoiseSigma(const Image2D &img)
{
    if (img.width() < 3 || img.height() < 3)
        return 0.0;
    const size_t w = img.width();
    std::vector<uint64_t> keys((w - 2) * (img.height() - 2));
    uint64_t *out = keys.data();
    for (size_t y = 1; y + 1 < img.height(); ++y) {
        const float *up = img.row(y - 1), *mid = img.row(y),
                    *down = img.row(y + 1);
        for (size_t x = 1; x + 1 < w; ++x) {
            const double l =
                mid[x - 1] + mid[x + 1] + up[x] + down[x] - 4.0 * mid[x];
            *out++ = std::bit_cast<uint64_t>(std::abs(l));
        }
    }
    // common::median's order statistics, on the bit patterns: they
    // order like the non-negative values and select faster.
    const auto mid = keys.begin() + static_cast<long>(keys.size() / 2);
    std::nth_element(keys.begin(), mid, keys.end());
    double med = std::bit_cast<double>(*mid);
    if (keys.size() % 2 == 0)
        med = 0.5 *
            (std::bit_cast<double>(*std::max_element(keys.begin(), mid)) +
             med);
    return kMadToSigma * med / kLaplacianNorm;
}

double
gradientEnergy(const Image2D &img)
{
    if (img.width() < 2 || img.height() < 2)
        return 0.0;
    double sum = 0.0;
    size_t n = 0;
    for (size_t y = 0; y + 1 < img.height(); ++y) {
        for (size_t x = 0; x + 1 < img.width(); ++x) {
            const double gx = img.at(x + 1, y) - img.at(x, y);
            const double gy = img.at(x, y + 1) - img.at(x, y);
            sum += gx * gx + gy * gy;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
saturationFraction(const Image2D &img, double level)
{
    if (img.empty())
        return 0.0;
    size_t sat = 0;
    for (float v : img.data())
        if (static_cast<double>(v) >= level)
            ++sat;
    return static_cast<double>(sat) /
        static_cast<double>(img.size());
}

double
deadRowFraction(const Image2D &img)
{
    if (img.empty())
        return 0.0;
    size_t dead = 0;
    for (size_t y = 0; y < img.height(); ++y) {
        float lo = img.at(0, y), hi = lo;
        for (size_t x = 1; x < img.width(); ++x) {
            lo = std::min(lo, img.at(x, y));
            hi = std::max(hi, img.at(x, y));
        }
        if (hi - lo < 1e-7f)
            ++dead;
    }
    return static_cast<double>(dead) /
        static_cast<double>(img.height());
}

std::vector<double>
smoothedColumnProfile(const Image2D &img)
{
    const std::vector<double> means = columnMeans(img);
    const size_t w = means.size();
    const size_t window = std::max<size_t>(3, w / 8);
    const long half = static_cast<long>(window / 2);
    std::vector<double> smooth(w, 0.0);
    for (size_t x = 0; x < w; ++x) {
        double sum = 0.0;
        size_t n = 0;
        for (long d = -half; d <= half; ++d) {
            const long xx = static_cast<long>(x) + d;
            if (xx < 0 || xx >= static_cast<long>(w))
                continue;
            sum += means[static_cast<size_t>(xx)];
            ++n;
        }
        smooth[x] = n ? sum / static_cast<double>(n) : 0.0;
    }
    return smooth;
}

double
stripeScore(const Image2D &img)
{
    return profileRms(smoothedColumnProfile(img));
}

double
profileDifferenceRms(const std::vector<double> &a,
                     const std::vector<double> &b)
{
    if (a.size() != b.size() || a.empty())
        return 0.0;
    std::vector<double> diff(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        diff[i] = a[i] - b[i];
    return profileRms(diff);
}

QcMetrics
computeQcMetrics(const Image2D &img, const QcThresholds &t)
{
    QcMetrics m;
    if (img.empty()) {
        m.flags |= kQcLowSnr;
        return m;
    }

    const double sigma = estimateNoiseSigma(img);
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

    m.focusScore = gradientEnergy(img);
    m.saturationFraction = saturationFraction(img, t.saturationLevel);
    m.deadRowFraction = deadRowFraction(img);
    m.stripeScore = stripeScore(img);

    if (m.snr < t.minSnr)
        m.flags |= kQcLowSnr;
    if (m.saturationFraction > t.maxSaturationFraction)
        m.flags |= kQcSaturation;
    if (m.deadRowFraction > t.maxDeadRowFraction)
        m.flags |= kQcDeadRows;
    return m;
}

QcMonitor::QcMonitor(QcThresholds thresholds)
    : thresholds_(thresholds)
{
}

QcMetrics
QcMonitor::evaluate(const Image2D &slice) const
{
    QcMetrics m = computeQcMetrics(slice, thresholds_);

    // Neighbour consistency first: the recovered shift also aligns the
    // stripe differential below, so ordinary stage drift between
    // consecutive slices does not masquerade as curtaining.
    bool aligned_stripes = false;
    if (hasPrev_ && prevPlane_.width == slice.width() &&
        prevPlane_.height == slice.height()) {
        const auto shift = registerShiftMi(
            prevPlane_, quantizePlane(slice, thresholds_.miBins),
            thresholds_.shiftSearchPx);
        m.shiftX = shift.first;
        m.shiftY = shift.second;
        const Image2D aligned =
            slice.shifted(shift.first, shift.second);
        m.miVsPrev = mutualInformation(
            prevPlane_, quantizePlane(aligned, thresholds_.miBins));
        // The reference goes stale by one slice per rejected slice;
        // allow the credible shift to grow by one pixel of scene
        // motion per gap slice.  (Growing it faster also covers
        // coincident drift steps, but widens the bound enough for a
        // minimum-magnitude excursion to slip through — a false flag
        // here only costs a re-image, a missed excursion poisons the
        // reference.)
        const long max_shift = thresholds_.maxNeighborShiftPx +
            static_cast<long>(gapSinceAccept_);
        if (std::labs(m.shiftX) > max_shift ||
            std::labs(m.shiftY) > max_shift)
            m.flags |= kQcShift;
        if (!miHistory_.empty()) {
            const double med = common::median(miHistory_);
            if (med > 0.0 &&
                m.miVsPrev < thresholds_.minMiRatio * med)
                m.flags |= kQcLowMi;
        }

        // Curtaining: differential low-frequency column profile vs the
        // previous accepted slice, on the aligned overlap so the
        // scene's own structure (and its drift) cancels.  Columns
        // invalidated by the x-shift and the smoothing half-window are
        // trimmed from the comparison.
        const std::vector<double> profile =
            smoothedColumnProfile(aligned);
        const size_t w = profile.size();
        const size_t margin =
            std::max<size_t>(3, w / 8) / 2 +
            static_cast<size_t>(std::labs(shift.first));
        if (w == prevProfile_.size() && w > 2 * margin + 4) {
            std::vector<double> diff;
            diff.reserve(w - 2 * margin);
            for (size_t i = margin; i + margin < w; ++i)
                diff.push_back(profile[i] - prevProfile_[i]);
            if (profileRms(diff) > thresholds_.maxStripeScore)
                m.flags |= kQcStripes;
            aligned_stripes = true;
        }
    }
    if (!aligned_stripes &&
        m.stripeScore > 4.0 * thresholds_.maxStripeScore)
        m.flags |= kQcStripes;

    // Defocus relative to the accepted-history median.
    if (!focusHistory_.empty()) {
        const double med = common::median(focusHistory_);
        if (med > 0.0 &&
            m.focusScore < thresholds_.minFocusRatio * med)
            m.flags |= kQcDefocus;
    }
    return m;
}

void
QcMonitor::accept(const Image2D &slice, const QcMetrics &metrics)
{
    prevPlane_ = quantizePlane(slice, thresholds_.miBins);
    prevProfile_ = smoothedColumnProfile(slice);
    hasPrev_ = true;
    gapSinceAccept_ = 0;

    auto push = [this](std::vector<double> &hist, double v) {
        hist.push_back(v);
        if (hist.size() > thresholds_.history)
            hist.erase(hist.begin());
    };
    push(focusHistory_, metrics.focusScore);
    if (metrics.miVsPrev >= 0.0)
        push(miHistory_, metrics.miVsPrev);
}

void
QcMonitor::noteRejected()
{
    ++gapSinceAccept_;
}

} // namespace image
} // namespace hifi
