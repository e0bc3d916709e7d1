/**
 * @file
 * Image post-processing chain (Section IV-C): denoise each slice with
 * an edge-preserving TV filter, align the stack slice-to-slice with
 * mutual information, and assemble the planar-viewable volume.
 *
 * There is one chain, StreamingPostprocessor, and it assembles into
 * one of two sinks: a dense image::Volume3D, or a spill-to-disk
 * image::TiledVolume3D when a tile store is given (the
 * memory-budgeted pipeline).  Both sinks see the same per-slice
 * arithmetic, so the choice never changes an output bit.
 */

#ifndef HIFI_SCOPE_POSTPROCESS_HH
#define HIFI_SCOPE_POSTPROCESS_HH

#include <optional>
#include <utility>
#include <vector>

#include "common/result.hh"
#include "image/denoise.hh"
#include "image/registration.hh"
#include "image/tiled_volume.hh"
#include "image/volume3d.hh"

namespace hifi
{
namespace scope
{

/// Which TV denoiser to run (both are supported, as in the paper).
enum class DenoiseAlgo { SplitBregman, Chambolle, None };

/** Post-processing parameters. */
struct PostprocessParams
{
    DenoiseAlgo algo = DenoiseAlgo::Chambolle;
    image::TvParams tv{0.05, 50};
    image::MiParams mi{32, 6};
};

/** Post-processing output of either sink. */
struct PostprocessResult
{
    /// Assembled volume of the dense sink; empty on the tiled sink.
    image::Volume3D volume;

    /// Assembled volume of the tiled sink, sealed into its tile store
    /// (no owned voxel memory; toDense() opts back into RAM).  Empty
    /// on the dense sink.
    image::TiledVolume3D tiled;

    /// Recovered per-slice shifts relative to slice 0.
    std::vector<std::pair<long, long>> shifts;

    /// Mean pixel residual vs the stack's ground-truth drift.
    double alignmentResidualPx = 0.0;

    /// Paper requirement: residual below 0.77% of the slice height.
    bool meetsAlignmentBudget(size_t slice_height_px) const
    {
        return alignmentResidualPx <=
            0.0077 * static_cast<double>(slice_height_px);
    }
};

/**
 * Push-based post-processing: consumes slices in acquisition order
 * and runs denoise → chained-MI-register → assemble over a bounded
 * window, writing each corrected slice straight into the sink instead
 * of accumulating a denoised copy of the stack.
 *
 * Bit-identity: every slice is denoised by the same call, registered
 * against its predecessor by the same call, accumulated into slice-0
 * coordinates in slice order and written once — only the buffering
 * depends on the window — so the result is bitwise identical at any
 * window width, sink, tile size, budget and thread count (asserted
 * against the serial reference chain in tests/test_volume.cc).  The
 * working set is one window of raw + denoised frames, the previous
 * window's last denoised slice (the registration anchor) and the
 * sink: the dense volume, or the tiled volume's dirty tile budget.
 */
class StreamingPostprocessor
{
  public:
    /**
     * @param expectedSlices  total slices that will be pushed (the
     *                        volume's X extent)
     * @param store           tile store backing a tiled sink; null
     *                        assembles into a dense Volume3D (tileEdge
     *                        and dirtyBudgetBytes are then unused)
     * @param windowSlices    slices buffered per drain; 0 = the
     *                        chain's own width (tests override it to
     *                        prove width invariance)
     */
    StreamingPostprocessor(
        size_t expectedSlices, image::TileStore *store,
        const PostprocessParams &params = {},
        size_t tileEdge = image::TiledVolume3D::kDefaultTileEdge,
        size_t dirtyBudgetBytes = 0, size_t windowSlices = 0);

    /// Feed the next slice (strictly in order 0, 1, 2, ...).  A
    /// disengaged trueDrift marks ground truth unavailable, which
    /// suppresses the residual.  Typed InvalidArgument for a slice
    /// beyond the promised count or whose shape differs from the
    /// first slice's.
    std::optional<common::Error>
    push(image::Image2D &&frame,
         std::optional<std::pair<long, long>> trueDrift);

    /// Drain buffered slices, seal a tiled sink and finalize.  Typed
    /// FailedPrecondition when fewer slices arrived than promised.
    common::Result<PostprocessResult> finish();

  private:
    std::optional<common::Error> openSink(size_t width, size_t height);
    std::optional<common::Error> drainWindow();

    image::TileStore *store_ = nullptr;
    PostprocessParams params_;
    size_t expected_ = 0;
    size_t tileEdge_ = 0;
    size_t dirtyBudget_ = 0;
    size_t window_ = 0;

    size_t width_ = 0, height_ = 0; ///< shape of every slice
    size_t pushed_ = 0;    ///< slices received
    size_t assembled_ = 0; ///< slices written into the sink
    std::vector<image::Image2D> raw_; ///< current window buffer
    image::Image2D prevDenoised_;     ///< registration anchor
    bool havePrev_ = false;
    long accX_ = 0, accY_ = 0; ///< chained shift accumulator

    PostprocessResult out_; ///< sink volume and shifts so far
    std::vector<std::pair<long, long>> trueDrift_;
    bool finished_ = false;
};

/**
 * Push every slice of an in-RAM stack through one
 * StreamingPostprocessor.  `store` selects the sink as in the
 * constructor; typed errors for a ragged stack or a tile-store
 * failure.
 */
common::Result<PostprocessResult> postprocessChecked(
    const image::SliceStack &stack, image::TileStore *store,
    const PostprocessParams &params = {},
    size_t tileEdge = image::TiledVolume3D::kDefaultTileEdge,
    size_t dirtyBudgetBytes = 0, size_t windowSlices = 0);

/// Run the chain on an acquired stack into a dense volume.  Throws
/// std::invalid_argument when the slices differ in shape.
PostprocessResult postprocess(const image::SliceStack &stack,
                              const PostprocessParams &params = {});

} // namespace scope
} // namespace hifi

#endif // HIFI_SCOPE_POSTPROCESS_HH
