/**
 * @file
 * Re-quantizing reference for mutual-information registration, kept
 * only for the tests: every candidate offset bins both images pixel by
 * pixel and fills a double joint histogram, the original algorithm.
 * The library's quantized-plane scorer (image/registration.cc) must
 * reproduce these scores and shifts bit for bit; both include
 * image/mi_bins.hh, so they share the bin assignment and nothing else.
 */

#ifndef HIFI_TESTS_MI_REFERENCE_HH
#define HIFI_TESTS_MI_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "image/image2d.hh"
#include "image/mi_bins.hh"
#include "image/registration.hh"

namespace hifi
{
namespace testref
{

/// MI (nats) over the overlap of `a` and `b` translated by (dx, dy).
inline double
mutualInformationAtShiftReference(const image::Image2D &a,
                                  const image::Image2D &b, long dx,
                                  long dy, size_t bins = 32)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(
            "mutualInformationAtShiftReference: shape mismatch");
    if (bins < 2)
        throw std::invalid_argument(
            "mutualInformationAtShiftReference: bins < 2");
    const image::detail::BinRange ra = image::detail::binRange(a);
    const image::detail::BinRange rb = image::detail::binRange(b);
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());

    std::vector<double> joint(bins * bins, 0.0);
    std::vector<double> pa(bins, 0.0), pb(bins, 0.0);
    size_t n = 0;

    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    for (long y = y0; y < y1; ++y) {
        for (long x = x0; x < x1; ++x) {
            const size_t ia = image::detail::quantize(
                a.at(static_cast<size_t>(x), static_cast<size_t>(y)),
                ra.lo, ra.inv, bins);
            const size_t ib = image::detail::quantize(
                b.at(static_cast<size_t>(x - dx),
                     static_cast<size_t>(y - dy)),
                rb.lo, rb.inv, bins);
            joint[ia * bins + ib] += 1.0;
            ++n;
        }
    }
    if (n == 0)
        return 0.0;

    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < bins; ++i) {
        for (size_t j = 0; j < bins; ++j) {
            const double p = joint[i * bins + j] * inv_n;
            pa[i] += p;
            pb[j] += p;
        }
    }
    double mi = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        if (pa[i] <= 0.0)
            continue;
        for (size_t j = 0; j < bins; ++j) {
            const double p = joint[i * bins + j] * inv_n;
            if (p > 0.0 && pb[j] > 0.0)
                mi += p * std::log(p / (pa[i] * pb[j]));
        }
    }
    return mi;
}

/**
 * Exhaustive search over [-maxShift, maxShift]^2 scoring every
 * candidate with the re-quantizing MI.  Ties (within 1e-12) go to the
 * smallest |dx| + |dy|, then lexicographically by (dy, dx).
 */
inline std::pair<long, long>
registerShiftMiReference(const image::Image2D &fixed,
                         const image::Image2D &moving,
                         const image::MiParams &params = {})
{
    if (fixed.width() != moving.width() ||
        fixed.height() != moving.height())
        throw std::invalid_argument(
            "registerShiftMiReference: shape mismatch");
    const long s = params.maxShift;
    double best = 0.0;
    long best_dx = 0, best_dy = 0, best_l1 = 0;
    bool have = false;
    for (long dy = -s; dy <= s; ++dy) {
        for (long dx = -s; dx <= s; ++dx) {
            const double score = mutualInformationAtShiftReference(
                fixed, moving, dx, dy, params.bins);
            const long l1 = std::labs(dx) + std::labs(dy);
            const bool wins = !have || score > best + 1e-12;
            const bool tied = have && !wins && score >= best - 1e-12;
            if (wins ||
                (tied && (l1 < best_l1 ||
                          (l1 == best_l1 &&
                           std::make_pair(dy, dx) <
                               std::make_pair(best_dy, best_dx))))) {
                best = std::max(have ? best : score, score);
                best_dx = dx;
                best_dy = dy;
                best_l1 = l1;
                have = true;
            }
        }
    }
    return {best_dx, best_dy};
}

} // namespace testref
} // namespace hifi

#endif // HIFI_TESTS_MI_REFERENCE_HH
