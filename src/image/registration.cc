#include "image/registration.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace image
{

namespace
{

/// Candidate offsets per parallel chunk in the MI shift search.
constexpr size_t kCandidateGrain = 4;

/// Pyramid levels stop once either downsampled dimension would drop
/// below this: with fewer pixels the joint histogram is too sparse for
/// the coarse MI peak to be trustworthy.
constexpr size_t kPyramidMinDim = 16;

/// Refinement radius around the upsampled coarse optimum, per level.
/// ±2 covers the upsampling rounding (±1) plus one pixel of detail
/// that only resolves at the finer level.
constexpr long kPyramidRefineRadius = 2;

/// Quantize an intensity into [0, bins).
inline size_t
quantize(float v, float lo, float inv_range, size_t bins)
{
    double t = (v - lo) * inv_range;
    t = std::clamp(t, 0.0, 1.0 - 1e-9);
    return static_cast<size_t>(t * static_cast<double>(bins));
}

/// Intensity ranges of both images, hoisted out of the shift search.
struct MiRanges
{
    float alo, ainv, blo, binv;
};

MiRanges
miRanges(const Image2D &a, const Image2D &b)
{
    MiRanges r;
    r.alo = a.minValue();
    const float ahi = a.maxValue();
    r.blo = b.minValue();
    const float bhi = b.maxValue();
    r.ainv = (ahi > r.alo) ? 1.0f / (ahi - r.alo) : 0.0f;
    r.binv = (bhi > r.blo) ? 1.0f / (bhi - r.blo) : 0.0f;
    return r;
}

/**
 * Reference MI at a shift: quantizes both images pixel by pixel for
 * this one candidate.  Every fast path below must reproduce its
 * result bit for bit (asserted by tests/test_image.cc).
 */
double
miAtShiftRef(const Image2D &a, const Image2D &b, const MiRanges &r,
             long dx, long dy, size_t bins)
{
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());

    std::vector<double> joint(bins * bins, 0.0);
    std::vector<double> pa(bins, 0.0), pb(bins, 0.0);
    size_t n = 0;

    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    for (long y = y0; y < y1; ++y) {
        for (long x = x0; x < x1; ++x) {
            const size_t ia = quantize(
                a.at(static_cast<size_t>(x), static_cast<size_t>(y)),
                r.alo, r.ainv, bins);
            const size_t ib = quantize(
                b.at(static_cast<size_t>(x - dx),
                     static_cast<size_t>(y - dy)),
                r.blo, r.binv, bins);
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

/// Reusable per-worker buffers for the quantized MI accumulation.
struct MiWorkspace
{
    std::vector<uint32_t> joint;
    std::vector<uint32_t> idx; ///< per-row joint indices (SIMD path)
    std::vector<double> pa, pb;
};

/// SIMD bin-index math runs in epi32 lanes: gate at 4096 bins so
/// ia * bins + ib stays far below 2^31 (4096^2 ~ 2^24).  Larger bin
/// counts (rare; quantizePlane allows up to 65535) take the scalar
/// loop, which uses size_t throughout.
constexpr size_t kMiSimdMaxBins = 4096;

#if HIFI_SIMD_AVX2_COMPILED

/// idx[k] = ra[k] * bins + rb[k] over pre-quantized uint16 rows,
/// eight pairs per step.  Pure integer arithmetic, so the indices are
/// trivially identical to the scalar loop's.
HIFI_AVX2_TARGET inline void
jointIndicesAvx2(const uint16_t *ra, const uint16_t *rb, size_t count,
                 uint32_t bins, uint32_t *out)
{
    const __m256i vbins = _mm256_set1_epi32(static_cast<int>(bins));
    size_t k = 0;
    for (; k + 8 <= count; k += 8) {
        const __m256i ia = _mm256_cvtepu16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(ra + k)));
        const __m256i ib = _mm256_cvtepu16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rb + k)));
        const __m256i idx =
            _mm256_add_epi32(_mm256_mullo_epi32(ia, vbins), ib);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + k), idx);
    }
    for (; k < count; ++k)
        out[k] = static_cast<uint32_t>(ra[k]) * bins + rb[k];
}

/**
 * Vector form of quantize() for four floats: the float subtract /
 * multiply, the widening to double, the std::clamp comparison order,
 * and the truncating cast are each reproduced exactly, so every lane
 * lands in the same bin the scalar call would pick.
 */
HIFI_AVX2_TARGET inline __m128i
quantize4Avx2(__m128 v, __m128 vlo, __m128 vinv, __m256d vbins,
              __m256d zero, __m256d top)
{
    const __m128 tf = _mm_mul_ps(_mm_sub_ps(v, vlo), vinv);
    __m256d t = _mm256_cvtps_pd(tf);
    t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(t, zero, _CMP_LT_OQ));
    t = _mm256_blendv_pd(t, top, _mm256_cmp_pd(top, t, _CMP_LT_OQ));
    return _mm256_cvttpd_epi32(_mm256_mul_pd(t, vbins));
}

/// Fused one-shot row kernel: quantize both images on the fly and emit
/// joint indices, no intermediate QuantizedPlane.
HIFI_AVX2_TARGET inline void
quantIndicesAvx2(const float *pa, const float *pb, size_t count,
                 const MiRanges &r, uint32_t bins, uint32_t *out)
{
    const __m128 alo = _mm_set1_ps(r.alo), ainv = _mm_set1_ps(r.ainv);
    const __m128 blo = _mm_set1_ps(r.blo), binv = _mm_set1_ps(r.binv);
    const __m256d vbins = _mm256_set1_pd(static_cast<double>(bins));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d top = _mm256_set1_pd(1.0 - 1e-9);
    const __m256i ibins = _mm256_set1_epi32(static_cast<int>(bins));
    size_t k = 0;
    for (; k + 8 <= count; k += 8) {
        const __m256i ia = _mm256_set_m128i(
            quantize4Avx2(_mm_loadu_ps(pa + k + 4), alo, ainv, vbins,
                          zero, top),
            quantize4Avx2(_mm_loadu_ps(pa + k), alo, ainv, vbins, zero,
                          top));
        const __m256i ib = _mm256_set_m128i(
            quantize4Avx2(_mm_loadu_ps(pb + k + 4), blo, binv, vbins,
                          zero, top),
            quantize4Avx2(_mm_loadu_ps(pb + k), blo, binv, vbins, zero,
                          top));
        const __m256i idx =
            _mm256_add_epi32(_mm256_mullo_epi32(ia, ibins), ib);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + k), idx);
    }
    for (; k < count; ++k) {
        out[k] = static_cast<uint32_t>(
                     quantize(pa[k], r.alo, r.ainv, bins)) * bins +
            static_cast<uint32_t>(quantize(pb[k], r.blo, r.binv, bins));
    }
}

#endif // HIFI_SIMD_AVX2_COMPILED

/**
 * Marginals + entropy sum over an integer joint histogram.  Shared by
 * every quantized path (pre-quantized planes and the fused one-shot)
 * so they cannot drift: the loop structure mirrors miAtShiftRef term
 * for term, and each uint32 count converts to the same double the
 * reference accumulated by repeated `+= 1.0`.
 */
double
miFromJointCounts(MiWorkspace &ws, size_t bins, size_t n)
{
    const double inv_n = 1.0 / static_cast<double>(n);
    ws.pa.assign(bins, 0.0);
    ws.pb.assign(bins, 0.0);
    for (size_t i = 0; i < bins; ++i) {
        for (size_t j = 0; j < bins; ++j) {
            const double p =
                static_cast<double>(ws.joint[i * bins + j]) * inv_n;
            ws.pa[i] += p;
            ws.pb[j] += p;
        }
    }
    double mi = 0.0;
    for (size_t i = 0; i < bins; ++i) {
        if (ws.pa[i] <= 0.0)
            continue;
        for (size_t j = 0; j < bins; ++j) {
            const double p =
                static_cast<double>(ws.joint[i * bins + j]) * inv_n;
            if (p > 0.0 && ws.pb[j] > 0.0)
                mi += p * std::log(p / (ws.pa[i] * ws.pb[j]));
        }
    }
    return mi;
}

/**
 * Fast MI at a shift over pre-quantized planes.  The joint histogram
 * is accumulated as integers (each reference bin count is a double
 * incremented by 1.0, hence an exact integer), and the marginal / MI
 * arithmetic below mirrors the reference loop structure term for
 * term, so the returned score is bitwise identical to miAtShiftRef.
 */
double
miAtShiftQ(const QuantizedPlane &a, const QuantizedPlane &b, long dx,
           long dy, MiWorkspace &ws)
{
    const size_t bins = a.bins;
    const long w = static_cast<long>(a.width);
    const long h = static_cast<long>(a.height);

    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    if (x0 >= x1 || y0 >= y1)
        return 0.0;

    ws.joint.assign(bins * bins, 0);
    const size_t count = static_cast<size_t>(x1 - x0);
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2() && bins <= kMiSimdMaxBins) {
        ws.idx.resize(count);
        for (long y = y0; y < y1; ++y) {
            const uint16_t *ra =
                a.idx.data() + static_cast<size_t>(y) * a.width + x0;
            const uint16_t *rb = b.idx.data() +
                static_cast<size_t>(y - dy) * b.width + (x0 - dx);
            jointIndicesAvx2(ra, rb, count,
                             static_cast<uint32_t>(bins),
                             ws.idx.data());
            for (size_t k = 0; k < count; ++k)
                ++ws.joint[ws.idx[k]];
        }
    } else
#endif
    {
        for (long y = y0; y < y1; ++y) {
            const uint16_t *ra =
                a.idx.data() + static_cast<size_t>(y) * a.width;
            const uint16_t *rb =
                b.idx.data() + static_cast<size_t>(y - dy) * b.width;
            for (long x = x0; x < x1; ++x) {
                ++ws.joint[static_cast<size_t>(ra[x]) * bins +
                           rb[x - dx]];
            }
        }
    }
    return miFromJointCounts(ws, bins,
                             count * static_cast<size_t>(y1 - y0));
}

/**
 * Fused one-shot MI: quantizes both images on the fly straight into
 * the integer joint histogram, skipping the QuantizedPlane
 * allocations entirely.  For a single evaluation (mutualInformation /
 * mutualInformationAtShift) the plane build costs more than it saves,
 * so this path undoes that regression; quantize() arithmetic is
 * shared, so the bin counts — and via miFromJointCounts the score —
 * are bitwise identical to the pre-quantized and reference paths.
 */
double
miOneShotQ(const Image2D &a, const Image2D &b, long dx, long dy,
           size_t bins, MiWorkspace &ws)
{
    const MiRanges r = miRanges(a, b);
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());
    const long x0 = std::max(0l, dx), x1 = std::min(w, w + dx);
    const long y0 = std::max(0l, dy), y1 = std::min(h, h + dy);
    if (x0 >= x1 || y0 >= y1)
        return 0.0;

    ws.joint.assign(bins * bins, 0);
    const size_t count = static_cast<size_t>(x1 - x0);
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2() && bins <= kMiSimdMaxBins) {
        ws.idx.resize(count);
        for (long y = y0; y < y1; ++y) {
            const float *pa = a.row(static_cast<size_t>(y)) + x0;
            const float *pb =
                b.row(static_cast<size_t>(y - dy)) + (x0 - dx);
            quantIndicesAvx2(pa, pb, count, r,
                             static_cast<uint32_t>(bins),
                             ws.idx.data());
            for (size_t k = 0; k < count; ++k)
                ++ws.joint[ws.idx[k]];
        }
    } else
#endif
    {
        for (long y = y0; y < y1; ++y) {
            const float *pa = a.row(static_cast<size_t>(y));
            const float *pb = b.row(static_cast<size_t>(y - dy));
            for (long x = x0; x < x1; ++x) {
                ++ws.joint[quantize(pa[x], r.alo, r.ainv, bins) * bins +
                           quantize(pb[x - dx], r.blo, r.binv, bins)];
            }
        }
    }
    return miFromJointCounts(ws, bins,
                             count * static_cast<size_t>(y1 - y0));
}

/// Score candidate shifts (dx, dy) in parallel over quantized planes.
std::vector<double>
scoreCandidates(const QuantizedPlane &qa, const QuantizedPlane &qb,
                const std::vector<std::pair<long, long>> &cands)
{
    std::vector<double> score(cands.size());
    common::parallelFor(0, cands.size(), kCandidateGrain,
                        [&](size_t i0, size_t i1) {
        MiWorkspace ws;
        for (size_t i = i0; i < i1; ++i)
            score[i] = miAtShiftQ(qa, qb, cands[i].first,
                                  cands[i].second, ws);
    });
    return score;
}

/**
 * Winner selection shared by every search: the highest score, with
 * ties (within 1e-12) broken by the smallest |dx| + |dy| and then
 * lexicographically by (dy, dx).  A serial scan over precomputed
 * scores, so the result never depends on the thread count.
 */
std::pair<long, long>
pickBest(const std::vector<std::pair<long, long>> &cands,
         const std::vector<double> &score)
{
    double best = 0.0;
    long best_dx = 0, best_dy = 0, best_l1 = 0;
    bool have = false;
    for (size_t i = 0; i < cands.size(); ++i) {
        const long dx = cands[i].first, dy = cands[i].second;
        const long l1 = std::labs(dx) + std::labs(dy);
        const bool wins = !have || score[i] > best + 1e-12;
        const bool tied = have && !wins && score[i] >= best - 1e-12;
        if (wins ||
            (tied && (l1 < best_l1 ||
                      (l1 == best_l1 &&
                       std::make_pair(dy, dx) <
                           std::make_pair(best_dy, best_dx))))) {
            best = std::max(have ? best : score[i], score[i]);
            best_dx = dx;
            best_dy = dy;
            best_l1 = l1;
            have = true;
        }
    }
    return {best_dx, best_dy};
}

/// All (dx, dy) with |dx - cx| <= r, |dy - cy| <= r, clamped to the
/// full-window bound, enumerated in the exhaustive scan order.
std::vector<std::pair<long, long>>
windowCandidates(long cx, long cy, long r, long bound)
{
    std::vector<std::pair<long, long>> cands;
    const long dy0 = std::max(-bound, cy - r);
    const long dy1 = std::min(bound, cy + r);
    const long dx0 = std::max(-bound, cx - r);
    const long dx1 = std::min(bound, cx + r);
    cands.reserve(static_cast<size_t>(dy1 - dy0 + 1) *
                  static_cast<size_t>(dx1 - dx0 + 1));
    for (long dy = dy0; dy <= dy1; ++dy)
        for (long dx = dx0; dx <= dx1; ++dx)
            cands.emplace_back(dx, dy);
    return cands;
}

/// 2x2 box downsample (truncating odd edges), for the MI pyramid.
Image2D
downsample2(const Image2D &in)
{
    const size_t w2 = in.width() / 2;
    const size_t h2 = in.height() / 2;
    Image2D out(w2, h2);
    for (size_t y = 0; y < h2; ++y) {
        const float *r0 = in.row(2 * y);
        const float *r1 = in.row(2 * y + 1);
        float *o = out.row(y);
        for (size_t x = 0; x < w2; ++x)
            o[x] = 0.25f * (r0[2 * x] + r0[2 * x + 1] + r1[2 * x] +
                            r1[2 * x + 1]);
    }
    return out;
}

/// Ceil-divide a shift bound by 2^level.
long
levelShift(long max_shift, size_t level)
{
    return (max_shift + (1l << level) - 1) >> level;
}

std::pair<long, long>
registerShiftMiPyramid(const Image2D &fixed, const Image2D &moving,
                       const MiParams &params)
{
    // Build the pyramid until the coarse window is trivial or the
    // images get too small to histogram meaningfully.
    std::vector<std::pair<Image2D, Image2D>> levels;
    levels.emplace_back(fixed, moving);
    while (levelShift(params.maxShift, levels.size() - 1) > 2 &&
           levels.back().first.width() / 2 >= kPyramidMinDim &&
           levels.back().first.height() / 2 >= kPyramidMinDim) {
        levels.emplace_back(downsample2(levels.back().first),
                            downsample2(levels.back().second));
    }

    size_t evals = 0;
    auto search = [&](size_t level, long cx, long cy, long radius) {
        const Image2D &f = levels[level].first;
        const Image2D &m = levels[level].second;
        const QuantizedPlane qf = quantizePlane(f, params.bins);
        const QuantizedPlane qm = quantizePlane(m, params.bins);
        const auto cands = windowCandidates(
            cx, cy, radius, levelShift(params.maxShift, level));
        evals += cands.size();
        return pickBest(cands, scoreCandidates(qf, qm, cands));
    };

    // Exhaustive at the coarsest level, then refine downward.
    const size_t coarsest = levels.size() - 1;
    std::pair<long, long> best = search(
        coarsest, 0, 0, levelShift(params.maxShift, coarsest));
    for (size_t level = coarsest; level-- > 0;) {
        best = search(level, 2 * best.first, 2 * best.second,
                      kPyramidRefineRadius);
    }

    if (telemetry::enabled()) {
        telemetry::registry().counter("mi.pyramid.levels")
            .add(levels.size());
        telemetry::registry().counter("mi.pyramid.evals").add(evals);
    }
    return best;
}

} // namespace

QuantizedPlane
quantizePlane(const Image2D &img, size_t bins)
{
    if (bins < 2)
        throw std::invalid_argument("quantizePlane: bins < 2");
    if (bins > 65535)
        throw std::invalid_argument(
            "quantizePlane: bins exceed uint16_t indices");
    QuantizedPlane q;
    q.width = img.width();
    q.height = img.height();
    q.bins = bins;
    q.idx.resize(img.size());
    const float lo = img.minValue();
    const float hi = img.maxValue();
    const float inv = (hi > lo) ? 1.0f / (hi - lo) : 0.0f;
    const std::vector<float> &d = img.data();
    for (size_t i = 0; i < d.size(); ++i)
        q.idx[i] = static_cast<uint16_t>(quantize(d[i], lo, inv, bins));
    return q;
}

double
mutualInformation(const Image2D &a, const Image2D &b, size_t bins)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument("mutualInformation: shape mismatch");
    if (bins < 2)
        throw std::invalid_argument("mutualInformation: bins < 2");
    if (bins > 65535)
        throw std::invalid_argument("mutualInformation: too many bins");
    // One evaluation: the fused path skips the quantized-plane build.
    MiWorkspace ws;
    return miOneShotQ(a, b, 0, 0, bins, ws);
}

double
mutualInformationAtShift(const Image2D &a, const Image2D &b, long dx,
                         long dy, size_t bins)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(
            "mutualInformationAtShift: shape mismatch");
    if (bins < 2)
        throw std::invalid_argument(
            "mutualInformationAtShift: bins < 2");
    if (bins > 65535)
        throw std::invalid_argument(
            "mutualInformationAtShift: too many bins");
    MiWorkspace ws;
    return miOneShotQ(a, b, dx, dy, bins, ws);
}

double
mutualInformationAtShiftReference(const Image2D &a, const Image2D &b,
                                  long dx, long dy, size_t bins)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(
            "mutualInformationAtShiftReference: shape mismatch");
    if (bins < 2)
        throw std::invalid_argument(
            "mutualInformationAtShiftReference: bins < 2");
    return miAtShiftRef(a, b, miRanges(a, b), dx, dy, bins);
}

std::pair<long, long>
registerShiftMi(const Image2D &fixed, const Image2D &moving,
                const MiParams &params)
{
    if (fixed.width() != moving.width() ||
        fixed.height() != moving.height()) {
        throw std::invalid_argument("registerShiftMi: shape mismatch");
    }
    if (params.strategy == MiStrategy::Pyramid)
        return registerShiftMiPyramid(fixed, moving, params);

    // Quantize each image exactly once; every candidate offset is
    // independent, so score them all in parallel and pick the winner
    // with the serial tie-break scan.
    const QuantizedPlane qf = quantizePlane(fixed, params.bins);
    const QuantizedPlane qm = quantizePlane(moving, params.bins);
    const auto cands =
        windowCandidates(0, 0, params.maxShift, params.maxShift);
    const std::vector<double> score = scoreCandidates(qf, qm, cands);
    if (telemetry::enabled())
        telemetry::registry().counter("mi.exhaustive.evals")
            .add(cands.size());
    return pickBest(cands, score);
}

std::pair<long, long>
registerShiftMiReference(const Image2D &fixed, const Image2D &moving,
                         const MiParams &params)
{
    if (fixed.width() != moving.width() ||
        fixed.height() != moving.height()) {
        throw std::invalid_argument(
            "registerShiftMiReference: shape mismatch");
    }
    const MiRanges ranges = miRanges(fixed, moving);
    const auto cands =
        windowCandidates(0, 0, params.maxShift, params.maxShift);
    std::vector<double> score(cands.size());
    common::parallelFor(0, cands.size(), kCandidateGrain,
                        [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            score[i] = miAtShiftRef(fixed, moving, ranges,
                                    cands[i].first, cands[i].second,
                                    params.bins);
    });
    return pickBest(cands, score);
}

std::pair<double, double>
registerShiftMiSubpixel(const Image2D &fixed, const Image2D &moving,
                        const MiParams &params)
{
    const auto best = registerShiftMi(fixed, moving, params);
    const QuantizedPlane qf = quantizePlane(fixed, params.bins);
    const QuantizedPlane qm = quantizePlane(moving, params.bins);
    MiWorkspace ws;

    auto mi_at = [&](long dx, long dy) {
        return miAtShiftQ(qf, qm, dx, dy, ws);
    };
    auto refine = [&](double m_minus, double m_0, double m_plus) {
        const double denom = m_minus - 2.0 * m_0 + m_plus;
        if (std::abs(denom) < 1e-12)
            return 0.0;
        const double delta = 0.5 * (m_minus - m_plus) / denom;
        return std::clamp(delta, -0.5, 0.5);
    };

    const double m0 = mi_at(best.first, best.second);
    const double fx = refine(mi_at(best.first - 1, best.second), m0,
                             mi_at(best.first + 1, best.second));
    const double fy = refine(mi_at(best.first, best.second - 1), m0,
                             mi_at(best.first, best.second + 1));
    return {static_cast<double>(best.first) + fx,
            static_cast<double>(best.second) + fy};
}

double
alignmentResidual(const std::vector<std::pair<long, long>> &recovered,
                  const std::vector<std::pair<long, long>> &truth)
{
    if (recovered.size() != truth.size() || recovered.empty())
        throw std::invalid_argument("alignmentResidual: size mismatch");
    const long ox = truth[0].first - recovered[0].first;
    const long oy = truth[0].second - recovered[0].second;
    double sum = 0.0;
    for (size_t i = 0; i < recovered.size(); ++i) {
        const double ex = static_cast<double>(
            recovered[i].first + ox - truth[i].first);
        const double ey = static_cast<double>(
            recovered[i].second + oy - truth[i].second);
        sum += std::hypot(ex, ey);
    }
    return sum / static_cast<double>(recovered.size());
}

} // namespace image
} // namespace hifi
