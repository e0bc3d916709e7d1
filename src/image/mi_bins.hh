/**
 * @file
 * Internal: the intensity-to-bin assignment every MI computation
 * shares.  The library's quantized planes and the tests' re-quantizing
 * reference both include this header, so they cannot bin a pixel
 * differently.  Not part of the public image API.
 */

#ifndef HIFI_IMAGE_MI_BINS_HH
#define HIFI_IMAGE_MI_BINS_HH

#include <algorithm>
#include <cstddef>

#include "image/image2d.hh"

namespace hifi
{
namespace image
{
namespace detail
{

/// Quantize an intensity into [0, bins).
inline size_t
quantize(float v, float lo, float inv_range, size_t bins)
{
    double t = (v - lo) * inv_range;
    t = std::clamp(t, 0.0, 1.0 - 1e-9);
    return static_cast<size_t>(t * static_cast<double>(bins));
}

/// An image's own intensity range, as quantize() takes it.
struct BinRange
{
    float lo, inv;
};

/// The range of intensities in [lo, hi].
inline BinRange
binRange(float lo, float hi)
{
    return {lo, (hi > lo) ? 1.0f / (hi - lo) : 0.0f};
}

inline BinRange
binRange(const Image2D &img)
{
    return binRange(img.minValue(), img.maxValue());
}

} // namespace detail
} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_MI_BINS_HH
