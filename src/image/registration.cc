#include "image/registration.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

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

/// (pair, candidate) items per parallel chunk in the MI shift search.
constexpr size_t kCandidateGrain = 4;

/// Joint cells the byte planes can address: ia * bins + ib is one
/// byte add while bins * bins fits in a byte (bins <= 16).
constexpr size_t kMiByteCells = 256;

/// Sub-histograms the search counts into (pixel k goes to k % 4).
constexpr size_t kMiSubHists = 4;

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
    std::vector<uint32_t> sub;   ///< kMiSubHists joint histograms
    std::vector<uint32_t> joint; ///< their sum
    std::vector<uint32_t> idx;   ///< joint indices (one-shot SIMD path)
    std::vector<uint32_t> filled; ///< non-empty cells, row-major
    std::vector<double> pa, pb;
};

/// The one-shot SIMD index math runs in epi32 lanes: gate at 4096 bins
/// so ia * bins + ib stays far below 2^31 (4096^2 ~ 2^24).  Larger bin
/// counts (rare; the entry points allow up to 65535) take the scalar
/// loop, which uses size_t throughout.
constexpr size_t kMiSimdMaxBins = 4096;

#if HIFI_SIMD_AVX2_COMPILED

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
 * Count joint bins k in [0, count) into the kMiSubHists zeroed
 * sub-histograms of ws.sub, pixel k into sub-histogram k % 4.  Most
 * neighbouring pixels of a denoised frame share a joint bin; one
 * histogram would chain each increment on the previous store.
 */
template <typename JointBin>
inline void
countBins(MiWorkspace &ws, size_t cells, size_t count, JointBin bin)
{
    uint32_t *h0 = ws.sub.data(), *h1 = h0 + cells, *h2 = h1 + cells,
             *h3 = h2 + cells;
    size_t k = 0;
    for (; k + 4 <= count; k += 4) {
        ++h0[bin(k)];
        ++h1[bin(k + 1)];
        ++h2[bin(k + 2)];
        ++h3[bin(k + 3)];
    }
    for (; k < count; ++k)
        ++h0[bin(k)];
}

/**
 * MI from the counted sub-histograms of n pixels: their sum is the
 * integer joint histogram (each reference bin count is a double
 * incremented by 1.0, hence an exact integer that converts to the same
 * double).  The marginals add every cell in miAtShiftRef's order.  The
 * reference's entropy loop adds a term exactly for the non-empty cells
 * (their marginals are >= p > 0), so visiting only those, row-major,
 * adds the same terms in the same order.  Shared by the search and the
 * one-shot path, so neither can drift from the reference.
 */
double
miFromCounts(MiWorkspace &ws, size_t bins, size_t n)
{
    const size_t cells = bins * bins;
    const uint32_t *sub = ws.sub.data();
    ws.joint.resize(cells);
    for (size_t c = 0; c < cells; ++c)
        ws.joint[c] = sub[c] + sub[cells + c] + sub[2 * cells + c] +
            sub[3 * cells + c];

    // The marginal pass also lists the non-empty cells, branch-free:
    // QC frames fill ~40% of the cells, so a branch would mispredict.
    const double inv_n = 1.0 / static_cast<double>(n);
    ws.pa.resize(bins);
    ws.pb.assign(bins, 0.0);
    ws.filled.resize(cells);
    size_t m = 0;
    for (size_t i = 0; i < bins; ++i) {
        double row = 0.0;
        for (size_t j = 0; j < bins; ++j) {
            const uint32_t c = ws.joint[i * bins + j];
            const double p = static_cast<double>(c) * inv_n;
            row += p;
            ws.pb[j] += p;
            ws.filled[m] = static_cast<uint32_t>(i * bins + j);
            m += c != 0;
        }
        ws.pa[i] = row;
    }
    double mi = 0.0;
    for (size_t k = 0; k < m; ++k) {
        const size_t cell = ws.filled[k];
        const double p = static_cast<double>(ws.joint[cell]) * inv_n;
        mi += p * std::log(p / (ws.pa[cell / bins] * ws.pb[cell % bins]));
    }
    return mi;
}

/**
 * The shift search's score: MI of fixed plane `a` against moving plane
 * `b` translated by (dx, dy), counted over the overlap.  Bitwise
 * identical to miAtShiftRef (see miFromCounts).
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

    const size_t cells = bins * bins;
    const size_t count = static_cast<size_t>(x1 - x0);
    ws.sub.assign(kMiSubHists * cells, 0);
    auto countRows = [&](const auto *fixed, const auto *moving,
                         auto joint) {
        for (long y = y0; y < y1; ++y) {
            const auto *ra = fixed + static_cast<size_t>(y) * a.width + x0;
            const auto *rb = moving +
                static_cast<size_t>(y - dy) * b.width + (x0 - dx);
            countBins(ws, cells, count,
                      [&](size_t k) { return joint(ra[k], rb[k]); });
        }
    };
    if (!a.fixedBytes.empty()) {
        countRows(a.fixedBytes.data(), b.movingBytes.data(),
                  [](uint8_t ia, uint8_t ib) {
                      return static_cast<size_t>(ia + ib);
                  });
    } else {
        countRows(a.idx.data(), b.idx.data(),
                  [bins](uint16_t ia, uint16_t ib) {
                      return static_cast<size_t>(ia) * bins + ib;
                  });
    }
    return miFromCounts(ws, bins, count * static_cast<size_t>(y1 - y0));
}

/**
 * Fused one-shot MI of two same-shape images: quantizes both on the
 * fly straight into the joint counts.  For a single evaluation (QC's
 * miVsPrev, the re-image check in fib.cc) a QuantizedPlane build costs
 * more than it saves.  quantize() arithmetic is shared, so the counts
 * — and via miFromCounts the score — match the search and the
 * reference bit for bit.
 */
double
miOneShot(const Image2D &a, const Image2D &b, size_t bins)
{
    const size_t n = a.size();
    if (n == 0)
        return 0.0;
    const MiRanges r = miRanges(a, b);
    const float *pa = a.data().data();
    const float *pb = b.data().data();
    const size_t cells = bins * bins;
    MiWorkspace ws;
    ws.sub.assign(kMiSubHists * cells, 0);
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2() && bins <= kMiSimdMaxBins) {
        ws.idx.resize(n);
        quantIndicesAvx2(pa, pb, n, r, static_cast<uint32_t>(bins),
                         ws.idx.data());
        countBins(ws, cells, n, [&](size_t k) { return ws.idx[k]; });
    } else
#endif
    {
        countBins(ws, cells, n, [&](size_t k) {
            return quantize(pa[k], r.alo, r.ainv, bins) * bins +
                quantize(pb[k], r.blo, r.binv, bins);
        });
    }
    return miFromCounts(ws, bins, n);
}

/**
 * Winner selection shared by every search: the highest score, with
 * ties (within 1e-12) broken by the smallest |dx| + |dy| and then
 * lexicographically by (dy, dx).  A serial scan over precomputed
 * scores, so the result never depends on the thread count.
 */
std::pair<long, long>
pickBest(const std::vector<std::pair<long, long>> &cands,
         const double *score)
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

/// Every (dx, dy) in [-s, s]^2, in the scan order (dy outer).
std::vector<std::pair<long, long>>
windowCandidates(long s)
{
    std::vector<std::pair<long, long>> cands;
    cands.reserve(static_cast<size_t>(2 * s + 1) *
                  static_cast<size_t>(2 * s + 1));
    for (long dy = -s; dy <= s; ++dy)
        for (long dx = -s; dx <= s; ++dx)
            cands.emplace_back(dx, dy);
    return cands;
}

/**
 * The one shift search: register planes[k + 1] (moving) against
 * planes[k] (fixed) for every k.  All (pair, candidate) items are
 * scored in one fan-out, so a short chain still spreads over the pool,
 * and each pair's winner is then picked by the serial scan.
 */
std::vector<std::pair<long, long>>
searchConsecutive(const std::vector<QuantizedPlane> &planes,
                  long max_shift)
{
    if (planes.size() < 2)
        return {};
    const size_t pairs = planes.size() - 1;
    const auto cands = windowCandidates(max_shift);
    const size_t nc = cands.size();
    std::vector<double> score(pairs * nc);
    common::parallelFor(0, score.size(), kCandidateGrain,
                        [&](size_t i0, size_t i1) {
        MiWorkspace ws;
        for (size_t i = i0; i < i1; ++i) {
            const size_t k = i / nc;
            score[i] = miAtShiftQ(planes[k], planes[k + 1],
                                  cands[i % nc].first,
                                  cands[i % nc].second, ws);
        }
    });
    if (telemetry::enabled())
        telemetry::registry().counter("mi.exhaustive.evals")
            .add(score.size());
    std::vector<std::pair<long, long>> best(pairs);
    for (size_t k = 0; k < pairs; ++k)
        best[k] = pickBest(cands, score.data() + k * nc);
    return best;
}

void
checkBins(size_t bins, const char *what)
{
    if (bins < 2)
        throw std::invalid_argument(std::string(what) + ": bins < 2");
    if (bins > 65535)
        throw std::invalid_argument(std::string(what) +
                                    ": bins exceed uint16_t indices");
}

} // namespace

QuantizedPlane
quantizePlane(const Image2D &img, size_t bins)
{
    checkBins(bins, "quantizePlane");
    QuantizedPlane q;
    q.width = img.width();
    q.height = img.height();
    q.bins = bins;
    const float lo = img.minValue();
    const float hi = img.maxValue();
    const float inv = (hi > lo) ? 1.0f / (hi - lo) : 0.0f;
    const std::vector<float> &d = img.data();
    if (bins * bins <= kMiByteCells) {
        q.fixedBytes.resize(d.size());
        q.movingBytes.resize(d.size());
        for (size_t i = 0; i < d.size(); ++i) {
            const size_t b = quantize(d[i], lo, inv, bins);
            q.fixedBytes[i] = static_cast<uint8_t>(b * bins);
            q.movingBytes[i] = static_cast<uint8_t>(b);
        }
    } else {
        q.idx.resize(d.size());
        for (size_t i = 0; i < d.size(); ++i)
            q.idx[i] =
                static_cast<uint16_t>(quantize(d[i], lo, inv, bins));
    }
    return q;
}

double
mutualInformation(const Image2D &a, const Image2D &b, size_t bins)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument("mutualInformation: shape mismatch");
    checkBins(bins, "mutualInformation");
    return miOneShot(a, b, bins);
}

double
mutualInformationAtShift(const Image2D &a, const Image2D &b, long dx,
                         long dy, size_t bins)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument(
            "mutualInformationAtShift: shape mismatch");
    checkBins(bins, "mutualInformationAtShift");
    MiWorkspace ws;
    return miAtShiftQ(quantizePlane(a, bins), quantizePlane(b, bins), dx,
                      dy, ws);
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
    std::vector<QuantizedPlane> planes;
    planes.reserve(2);
    planes.push_back(quantizePlane(fixed, params.bins));
    planes.push_back(quantizePlane(moving, params.bins));
    return searchConsecutive(planes, params.maxShift).front();
}

std::vector<std::pair<long, long>>
registerShiftMiChain(const Image2D *anchor,
                     const std::vector<Image2D> &slices,
                     const MiParams &params)
{
    if (slices.empty())
        return {};
    const Image2D &first = anchor ? *anchor : slices.front();
    for (const Image2D &s : slices)
        if (s.width() != first.width() || s.height() != first.height())
            throw std::invalid_argument(
                "registerShiftMiChain: shape mismatch");

    // Quantize every slice once: it is the moving image of its own
    // pair and the fixed image of the next.
    const size_t lead = anchor ? 1 : 0;
    std::vector<QuantizedPlane> planes(lead + slices.size());
    common::parallelFor(0, planes.size(), 1, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            planes[i] = quantizePlane(i < lead ? *anchor
                                               : slices[i - lead],
                                      params.bins);
    });
    std::vector<std::pair<long, long>> shifts =
        searchConsecutive(planes, params.maxShift);
    if (!anchor)
        shifts.insert(shifts.begin(), {0, 0});
    return shifts;
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
    const auto cands = windowCandidates(params.maxShift);
    std::vector<double> score(cands.size());
    common::parallelFor(0, cands.size(), kCandidateGrain,
                        [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            score[i] = miAtShiftRef(fixed, moving, ranges,
                                    cands[i].first, cands[i].second,
                                    params.bins);
    });
    return pickBest(cands, score.data());
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
