#include "scope/postprocess.hh"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/parallel.hh"
#include "common/telemetry.hh"

namespace hifi
{
namespace scope
{

namespace
{

/**
 * Slices per drain.  Each drain fans the window's denoise out over the
 * pool one slice per task, so the window must hold enough slices to
 * keep every worker busy; beyond that it only grows the buffered
 * frames.  (The registrations fan out per (pair, candidate) and spread
 * at any width.)  The width never changes a bit (see
 * StreamingPostprocessor).
 */
constexpr size_t kWindowSlices = 8;

image::Image2D
denoiseOne(const image::Image2D &slice, const PostprocessParams &p)
{
    switch (p.algo) {
      case DenoiseAlgo::SplitBregman:
        return image::denoiseSplitBregman(slice, p.tv);
      case DenoiseAlgo::Chambolle:
        return image::denoiseChambolle(slice, p.tv);
      case DenoiseAlgo::None:
        break;
    }
    return slice;
}

} // namespace

StreamingPostprocessor::StreamingPostprocessor(
    size_t expectedSlices, image::TileStore *store,
    const PostprocessParams &params, size_t tileEdge,
    size_t dirtyBudgetBytes, size_t windowSlices)
    : store_(store), params_(params), expected_(expectedSlices),
      tileEdge_(tileEdge), dirtyBudget_(dirtyBudgetBytes),
      window_(windowSlices ? windowSlices : kWindowSlices)
{
    out_.shifts.reserve(expectedSlices);
    trueDrift_.reserve(expectedSlices);
}

std::optional<common::Error>
StreamingPostprocessor::openSink(size_t width, size_t height)
{
    if (store_) {
        auto vol = image::TiledVolume3D::create(
            expected_, width, height, *store_, tileEdge_, dirtyBudget_);
        if (!vol.ok())
            return vol.error();
        out_.tiled = vol.takeValue();
    } else {
        auto vol = image::Volume3D::createChecked(expected_, width,
                                                  height);
        if (!vol.ok())
            return vol.error();
        out_.volume = vol.takeValue();
    }
    width_ = width;
    height_ = height;
    return std::nullopt;
}

std::optional<common::Error>
StreamingPostprocessor::push(
    image::Image2D &&frame,
    std::optional<std::pair<long, long>> trueDrift)
{
    if (finished_)
        return common::Error{common::ErrorCode::FailedPrecondition,
                             "StreamingPostprocessor: push after "
                             "finish"};
    if (pushed_ >= expected_)
        return common::Error{
            common::ErrorCode::InvalidArgument,
            "StreamingPostprocessor: more slices than promised (" +
                std::to_string(expected_) + ")"};

    // The volume's (Y, Z) extent comes from the first frame; every
    // later frame must match it.
    if (pushed_ == 0) {
        if (auto err = openSink(frame.width(), frame.height()))
            return err;
    } else if (frame.width() != width_ || frame.height() != height_) {
        return common::Error{
            common::ErrorCode::InvalidArgument,
            "StreamingPostprocessor: slice " + std::to_string(pushed_) +
                " is " + std::to_string(frame.width()) + "x" +
                std::to_string(frame.height()) + ", slice 0 is " +
                std::to_string(width_) + "x" +
                std::to_string(height_)};
    }

    if (trueDrift)
        trueDrift_.push_back(*trueDrift);
    raw_.push_back(std::move(frame));
    ++pushed_;
    if (raw_.size() >= window_)
        return drainWindow();
    return std::nullopt;
}

std::optional<common::Error>
StreamingPostprocessor::drainWindow()
{
    if (raw_.empty())
        return std::nullopt;
    const size_t n = raw_.size();

    // 1. Denoise the window (independent per slice, so thread-count
    //    invariant).
    std::vector<image::Image2D> den(n);
    {
        const telemetry::Span denoise_span("image.denoise");
        common::parallelFor(0, n, 1, [&](size_t i0, size_t i1) {
            for (size_t i = i0; i < i1; ++i)
                den[i] = denoiseOne(raw_[i], params_);
        });
    }

    // 2. Pairwise MI registration against each slice's predecessor
    //    (the previous window's last denoised slice anchors i == 0),
    //    then the sequential accumulation into slice-0 coordinates.
    {
        const telemetry::Span register_span("image.register");
        const auto pairwise = image::registerShiftMiChain(
            havePrev_ ? &prevDenoised_ : nullptr, den, params_.mi);
        for (size_t i = 0; i < n; ++i) {
            // The chain returns the offset of slice i relative to
            // slice i-1; accumulate to express it relative to slice 0.
            if (assembled_ + i > 0) {
                accX_ += -pairwise[i].first;
                accY_ += -pairwise[i].second;
            }
            out_.shifts.emplace_back(accX_, accY_);
        }
    }

    // 3. Assemble the corrected slices into the sink.
    {
        const telemetry::Span assemble_span("image.assemble");
        for (size_t i = 0; i < n; ++i) {
            const size_t x = assembled_ + i;
            const auto &shift = out_.shifts[x];
            const image::Image2D corrected =
                den[i].shifted(-shift.first, -shift.second);
            if (!store_)
                out_.volume.setCrossSection(x, corrected);
            else if (auto err = out_.tiled.setCrossSection(x, corrected))
                return err;
        }
    }

    prevDenoised_ = std::move(den.back());
    havePrev_ = true;
    assembled_ += n;
    raw_.clear();
    return std::nullopt;
}

common::Result<PostprocessResult>
StreamingPostprocessor::finish()
{
    using R = common::Result<PostprocessResult>;
    if (finished_)
        return R::failure(common::ErrorCode::FailedPrecondition,
                          "StreamingPostprocessor: already finished");
    finished_ = true;
    if (pushed_ != expected_)
        return R::failure(common::ErrorCode::FailedPrecondition,
                          "StreamingPostprocessor: got " +
                              std::to_string(pushed_) +
                              " slices, promised " +
                              std::to_string(expected_));
    if (auto err = drainWindow())
        return R(*err);

    if (!out_.tiled.empty()) {
        if (auto err = out_.tiled.sealAll())
            return R(*err);
    }
    if (trueDrift_.size() == out_.shifts.size() && !trueDrift_.empty()) {
        out_.alignmentResidualPx =
            image::alignmentResidual(out_.shifts, trueDrift_);
    }
    return R(std::move(out_));
}

common::Result<PostprocessResult>
postprocessChecked(const image::SliceStack &stack,
                   image::TileStore *store,
                   const PostprocessParams &params, size_t tileEdge,
                   size_t dirtyBudgetBytes, size_t windowSlices)
{
    using R = common::Result<PostprocessResult>;
    const telemetry::Span span("scope.postprocess");
    StreamingPostprocessor pp(stack.slices.size(), store, params,
                              tileEdge, dirtyBudgetBytes,
                              windowSlices);
    const bool have_truth =
        stack.trueDrift.size() == stack.slices.size();
    for (size_t i = 0; i < stack.slices.size(); ++i) {
        image::Image2D frame = stack.slices[i];
        std::optional<std::pair<long, long>> drift;
        if (have_truth)
            drift = stack.trueDrift[i];
        if (auto err = pp.push(std::move(frame), drift))
            return R(*err);
    }
    return pp.finish();
}

PostprocessResult
postprocess(const image::SliceStack &stack,
            const PostprocessParams &params)
{
    auto result = postprocessChecked(stack, nullptr, params);
    if (!result.ok())
        throw std::invalid_argument("postprocess: " +
                                    result.error().message);
    return result.takeValue();
}

} // namespace scope
} // namespace hifi
