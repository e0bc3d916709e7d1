#include "image/registration.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "image/mi_bins.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace image
{

namespace
{

using detail::quantize;

/// (pair, candidate) items per parallel chunk in the MI shift search.
constexpr size_t kCandidateGrain = 4;

/// Joint cells the byte planes can address: ia * bins + ib is one
/// byte add while bins * bins fits in a byte (bins <= 16).  Each byte
/// sub-histogram spans all 256 cells, so every offset is a constant.
constexpr size_t kMiByteCells = 256;

/// Interleaved sub-histograms the counting loop spreads pixels over
/// (pixel k into k % kMiSubHists, one per byte of an 8-byte load).
/// Neighbouring pixels often share a joint bin; one histogram would
/// chain each increment on the previous store.  Eight beat four on
/// denoised frames (81-85% of neighbours share a bin) and tie on raw
/// QC frames.
constexpr size_t kMiSubHists = 8;

/// Buffers for the quantized MI accumulation, reused by every
/// evaluation of one fan-out chunk.  (Keeping one per pool worker in
/// thread_local storage instead raised recon_clean's peak RSS.)
struct MiWorkspace
{
    std::vector<uint8_t> bytes;   ///< joint bins of the overlap
    std::vector<uint32_t> sub;    ///< joint sub-histograms
    std::vector<uint32_t> joint;  ///< their sum
    std::vector<uint32_t> filled; ///< non-empty cells, row-major
    std::vector<double> pa, pb;
};

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

/**
 * binRange of d[0, n), n > 0, in one vector pass.  Without NaNs the
 * minimum and maximum are the values std::min_element and
 * std::max_element find, up to the sign of a zero, which no bin
 * depends on: lo only enters as v - lo and hi - lo.
 */
HIFI_AVX2_TARGET detail::BinRange
binRangeAvx2(const float *d, size_t n)
{
    __m256 vlo = _mm256_set1_ps(d[0]), vhi = vlo;
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256 v = _mm256_loadu_ps(d + k);
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
    }
    alignas(32) float lanes_lo[8], lanes_hi[8];
    _mm256_store_ps(lanes_lo, vlo);
    _mm256_store_ps(lanes_hi, vhi);
    float lo = lanes_lo[0], hi = lanes_hi[0];
    for (size_t i = 1; i < 8; ++i) {
        lo = std::min(lo, lanes_lo[i]);
        hi = std::max(hi, lanes_hi[i]);
    }
    for (; k < n; ++k) {
        lo = std::min(lo, d[k]);
        hi = std::max(hi, d[k]);
    }
    return detail::binRange(lo, hi);
}

/// Bins of the eight floats at d, as unsigned 16-bit lanes.
HIFI_AVX2_TARGET inline __m128i
quantize8Avx2(const float *d, __m128 vlo, __m128 vinv, __m256d vbins,
              __m256d zero, __m256d top)
{
    return _mm_packus_epi32(
        quantize4Avx2(_mm_loadu_ps(d), vlo, vinv, vbins, zero, top),
        quantize4Avx2(_mm_loadu_ps(d + 4), vlo, vinv, vbins, zero, top));
}

/**
 * quantizePlane's pixel loop for the byte planes, sixteen pixels at a
 * time (bins * bins <= 256, so no pack saturates); returns the pixels
 * done, the scalar loop takes the rest and every uint16_t idx plane.
 */
HIFI_AVX2_TARGET size_t
quantizePixelsAvx2(const float *d, size_t n, detail::BinRange r,
                   size_t bins, uint8_t *fixed, uint8_t *moving)
{
    const __m128 vlo = _mm_set1_ps(r.lo), vinv = _mm_set1_ps(r.inv);
    const __m256d vbins = _mm256_set1_pd(static_cast<double>(bins));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d top = _mm256_set1_pd(1.0 - 1e-9);
    const __m128i scale = _mm_set1_epi16(static_cast<short>(bins));
    size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        const __m128i lo8 =
            quantize8Avx2(d + k, vlo, vinv, vbins, zero, top);
        const __m128i hi8 =
            quantize8Avx2(d + k + 8, vlo, vinv, vbins, zero, top);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(moving + k),
                         _mm_packus_epi16(lo8, hi8));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(fixed + k),
            _mm_packus_epi16(_mm_mullo_epi16(lo8, scale),
                             _mm_mullo_epi16(hi8, scale)));
    }
    return k;
}

/// out[0, 32) = a[0, 32) + b[0, 32), bytewise.
HIFI_AVX2_TARGET inline void
add32Avx2(const uint8_t *a, const uint8_t *b, uint8_t *out)
{
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(out),
        _mm256_add_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b))));
}

/// Phase one of the byte kernel over `rows` rows of `count` bytes
/// (row r at a + r * stride, b + r * stride): out[k] = a[k] + b[k],
/// row after row (never wraps for valid planes).  Rows of 32 or more
/// end on one overlapping vector instead of a scalar tail.
HIFI_AVX2_TARGET void
joinBytesAvx2(const uint8_t *a, const uint8_t *b, size_t stride,
              size_t count, size_t rows, uint8_t *out)
{
    for (size_t r = 0; r < rows; ++r, a += stride, b += stride,
                out += count) {
        if (count < 32) {
            for (size_t k = 0; k < count; ++k)
                out[k] = static_cast<uint8_t>(a[k] + b[k]);
            continue;
        }
        size_t k = 0;
        for (; k + 32 <= count; k += 32)
            add32Avx2(a + k, b + k, out + k);
        if (k < count)
            add32Avx2(a + count - 32, b + count - 32, out + count - 32);
    }
}

#endif // HIFI_SIMD_AVX2_COMPILED

/// Phase one, dispatched once per evaluation.
void
joinBytes(const uint8_t *a, const uint8_t *b, size_t stride, size_t count,
          size_t rows, uint8_t *out)
{
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2()) {
        joinBytesAvx2(a, b, stride, count, rows, out);
        return;
    }
#endif
    for (size_t r = 0; r < rows; ++r, a += stride, b += stride,
                out += count)
        for (size_t k = 0; k < count; ++k)
            out[k] = static_cast<uint8_t>(a[k] + b[k]);
}

/**
 * Phase two: count the joint bytes p[0, n) into the kMiSubHists
 * zeroed byte sub-histograms at `sub` (pixel k into k % kMiSubHists;
 * the tail into the first), reading eight bytes per load.  Unrolled by
 * hand: -O2 leaves the byte loop rolled.
 */
void
countBytes(const uint8_t *p, size_t n, uint32_t *sub)
{
    static_assert(8 % kMiSubHists == 0);
    const auto hist = [sub](size_t j) {
        return sub + (j % kMiSubHists) * kMiByteCells;
    };
    uint32_t *h0 = hist(0), *h1 = hist(1), *h2 = hist(2), *h3 = hist(3),
             *h4 = hist(4), *h5 = hist(5), *h6 = hist(6), *h7 = hist(7);
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        uint64_t v;
        std::memcpy(&v, p + k, sizeof(v));
        ++h0[v & 0xff];
        ++h1[(v >> 8) & 0xff];
        ++h2[(v >> 16) & 0xff];
        ++h3[(v >> 24) & 0xff];
        ++h4[(v >> 32) & 0xff];
        ++h5[(v >> 40) & 0xff];
        ++h6[(v >> 48) & 0xff];
        ++h7[v >> 56];
    }
    for (; k < n; ++k)
        ++sub[p[k]];
}

/**
 * MI from `subs` counted sub-histograms (`stride` cells apart) of n
 * pixels: their sum is the integer joint histogram (each reference bin
 * count is a double incremented by 1.0, hence an exact integer that
 * converts to the same double).  The marginals add every cell in the
 * reference's order.  The reference's entropy loop adds a term exactly
 * for the non-empty cells (their marginals are >= p > 0), so visiting
 * only those, row-major, adds the same terms in the same order.
 */
double
miFromCounts(MiWorkspace &ws, size_t bins, size_t n, size_t subs,
             size_t stride)
{
    const size_t cells = bins * bins;
    const uint32_t *sub = ws.sub.data();
    ws.joint.assign(sub, sub + cells);
    for (size_t s = 1; s < subs; ++s)
        for (size_t c = 0; c < cells; ++c)
            ws.joint[c] += sub[s * stride + c];

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
 * The one MI score: fixed plane `a` against moving plane `b`
 * translated by (dx, dy), counted over the overlap.  Byte planes take
 * the two-phase kernel (joint bytes of the whole overlap, then one
 * counting loop); the uint16_t planes (bins > 16, which no production
 * search runs) count pixel by pixel into one histogram.  Bitwise
 * identical to the re-quantizing reference (see miFromCounts).
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

    // At dx == 0 the overlap rows are contiguous in both planes.
    size_t count = static_cast<size_t>(x1 - x0);
    size_t rows = static_cast<size_t>(y1 - y0);
    if (dx == 0) {
        count *= rows;
        rows = 1;
    }
    const size_t n = count * rows;
    const size_t oa =
        static_cast<size_t>(y0) * a.width + static_cast<size_t>(x0);
    const size_t ob = static_cast<size_t>(y0 - dy) * b.width +
        static_cast<size_t>(x0 - dx);
    if (!a.fixedBytes.empty()) {
        ws.bytes.resize(n);
        joinBytes(a.fixedBytes.data() + oa, b.movingBytes.data() + ob,
                  a.width, count, rows, ws.bytes.data());
        ws.sub.assign(kMiSubHists * kMiByteCells, 0);
        countBytes(ws.bytes.data(), n, ws.sub.data());
        return miFromCounts(ws, bins, n, kMiSubHists, kMiByteCells);
    }
    const size_t cells = bins * bins;
    ws.sub.assign(cells, 0);
    const uint16_t *ra = a.idx.data() + oa, *rb = b.idx.data() + ob;
    for (size_t r = 0; r < rows; ++r, ra += a.width, rb += a.width)
        for (size_t k = 0; k < count; ++k)
            ++ws.sub[ra[k] * bins + rb[k]];
    return miFromCounts(ws, bins, n, 1, cells);
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
 * The one shift search: register *planes[k + 1] (moving) against
 * *planes[k] (fixed) for every k.  All (pair, candidate) items are
 * scored in one fan-out, so a short chain still spreads over the pool,
 * and each pair's winner is then picked by the serial scan.
 */
std::vector<std::pair<long, long>>
searchConsecutive(const std::vector<const QuantizedPlane *> &planes,
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
            score[i] = miAtShiftQ(*planes[k], *planes[k + 1],
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

void
checkSameShape(const QuantizedPlane &a, const QuantizedPlane &b,
               const char *what)
{
    if (a.width != b.width || a.height != b.height || a.bins != b.bins)
        throw std::invalid_argument(std::string(what) +
                                    ": plane shape or bins mismatch");
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
    const float *d = img.data().data();
    const size_t n = img.size();
    const bool bytes = bins * bins <= kMiByteCells;
    if (bytes) {
        q.fixedBytes.resize(n);
        q.movingBytes.resize(n);
    } else {
        q.idx.resize(n);
    }
    detail::BinRange r;
    size_t i = 0;
#if HIFI_SIMD_AVX2_COMPILED
    if (common::simd::avx2() && n > 0) {
        r = binRangeAvx2(d, n);
        if (bytes)
            i = quantizePixelsAvx2(d, n, r, bins, q.fixedBytes.data(),
                                   q.movingBytes.data());
    } else
#endif
    {
        r = detail::binRange(img);
    }
    for (; i < n; ++i) {
        const size_t b = quantize(d[i], r.lo, r.inv, bins);
        if (bytes) {
            q.fixedBytes[i] = static_cast<uint8_t>(b * bins);
            q.movingBytes[i] = static_cast<uint8_t>(b);
        } else {
            q.idx[i] = static_cast<uint16_t>(b);
        }
    }
    return q;
}

double
mutualInformation(const QuantizedPlane &a, const QuantizedPlane &b)
{
    checkSameShape(a, b, "mutualInformation");
    MiWorkspace ws;
    return miAtShiftQ(a, b, 0, 0, ws);
}

double
mutualInformation(const Image2D &a, const Image2D &b, size_t bins)
{
    return mutualInformationAtShift(a, b, 0, 0, bins);
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

std::pair<long, long>
registerShiftMi(const QuantizedPlane &fixed, const QuantizedPlane &moving,
                long maxShift)
{
    checkSameShape(fixed, moving, "registerShiftMi");
    return searchConsecutive({&fixed, &moving}, maxShift).front();
}

std::pair<long, long>
registerShiftMi(const Image2D &fixed, const Image2D &moving,
                const MiParams &params)
{
    if (fixed.width() != moving.width() ||
        fixed.height() != moving.height()) {
        throw std::invalid_argument("registerShiftMi: shape mismatch");
    }
    return registerShiftMi(quantizePlane(fixed, params.bins),
                           quantizePlane(moving, params.bins),
                           params.maxShift);
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
    std::vector<const QuantizedPlane *> chain;
    chain.reserve(planes.size());
    for (const QuantizedPlane &p : planes)
        chain.push_back(&p);
    std::vector<std::pair<long, long>> shifts =
        searchConsecutive(chain, params.maxShift);
    if (!anchor)
        shifts.insert(shifts.begin(), {0, 0});
    return shifts;
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
