/**
 * @file
 * Serial reference for the post-process chain (Section IV-C), kept
 * only for the tests: denoise every slice, chain-align neighbours by
 * mutual information over the whole stack, then assemble.  The
 * library runs the same arithmetic window by window in
 * scope::StreamingPostprocessor; tests/test_volume.cc holds the two
 * bitwise equal.
 */

#ifndef HIFI_TESTS_POSTPROCESS_REFERENCE_HH
#define HIFI_TESTS_POSTPROCESS_REFERENCE_HH

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"
#include "scope/postprocess.hh"

namespace hifi
{
namespace testref
{

/**
 * Chained stack alignment: slice i is registered to slice i-1 and the
 * shifts are accumulated, exactly as the paper's per-slice procedure.
 *
 * @return absolute shift of every slice relative to slice 0
 *         (element 0 is always {0, 0})
 */
inline std::vector<std::pair<long, long>>
alignStack(const std::vector<image::Image2D> &slices,
           const image::MiParams &params = {})
{
    if (slices.empty())
        throw std::invalid_argument("alignStack: no slices");

    // Each neighbouring pair registers independently; only the prefix
    // accumulation into slice-0 coordinates is sequential.
    std::vector<std::pair<long, long>> pairwise(slices.size(),
                                                {0, 0});
    common::parallelFor(1, slices.size(), 1, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            pairwise[i] = image::registerShiftMi(slices[i - 1],
                                                 slices[i], params);
    });

    std::vector<std::pair<long, long>> shifts;
    shifts.reserve(slices.size());
    shifts.emplace_back(0, 0);
    long acc_x = 0, acc_y = 0;
    for (size_t i = 1; i < slices.size(); ++i) {
        acc_x += -pairwise[i].first;
        acc_y += -pairwise[i].second;
        shifts.emplace_back(acc_x, acc_y);
    }
    return shifts;
}

/**
 * Assemble an aligned slice stack into a volume; slice i is
 * translated by -shifts[i].
 */
inline image::Volume3D
assembleVolume(const std::vector<image::Image2D> &slices,
               const std::vector<std::pair<long, long>> &shifts)
{
    if (slices.empty())
        throw std::invalid_argument("assembleVolume: no slices");
    if (shifts.size() != slices.size())
        throw std::invalid_argument("assembleVolume: shift count");
    image::Volume3D vol(slices.size(), slices[0].width(),
                        slices[0].height());
    for (size_t i = 0; i < slices.size(); ++i)
        vol.setCrossSection(
            i, slices[i].shifted(-shifts[i].first, -shifts[i].second));
    return vol;
}

/// The whole chain, one stage at a time over the full stack.
inline scope::PostprocessResult
postprocess(const image::SliceStack &stack,
            const scope::PostprocessParams &params = {})
{
    scope::PostprocessResult result;
    if (stack.slices.empty())
        return result;

    std::vector<image::Image2D> denoised;
    denoised.reserve(stack.slices.size());
    for (const auto &slice : stack.slices) {
        switch (params.algo) {
          case scope::DenoiseAlgo::SplitBregman:
            denoised.push_back(
                image::denoiseSplitBregman(slice, params.tv));
            break;
          case scope::DenoiseAlgo::Chambolle:
            denoised.push_back(image::denoiseChambolle(slice, params.tv));
            break;
          case scope::DenoiseAlgo::None:
            denoised.push_back(slice);
            break;
        }
    }

    result.shifts = alignStack(denoised, params.mi);
    if (stack.trueDrift.size() == result.shifts.size())
        result.alignmentResidualPx =
            image::alignmentResidual(result.shifts, stack.trueDrift);
    result.volume = assembleVolume(denoised, result.shifts);
    return result;
}

} // namespace testref
} // namespace hifi

#endif // HIFI_TESTS_POSTPROCESS_REFERENCE_HH
