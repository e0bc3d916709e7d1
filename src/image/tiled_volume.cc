#include "image/tiled_volume.hh"

#include <algorithm>

namespace hifi
{
namespace image
{

namespace
{

size_t
ceilDiv(size_t a, size_t b)
{
    return (a + b - 1) / b;
}

} // namespace

common::Result<TiledVolume3D>
TiledVolume3D::create(size_t nx, size_t ny, size_t nz,
                      TileStore &store, size_t tileEdge,
                      size_t dirtyBudgetBytes)
{
    using R = common::Result<TiledVolume3D>;
    if (nx == 0 || ny == 0 || nz == 0)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D: zero dimension (" +
                              std::to_string(nx) + " x " +
                              std::to_string(ny) + " x " +
                              std::to_string(nz) + ")");
    if (tileEdge == 0)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D: tileEdge must be > 0");
    const size_t tile_bytes =
        tileEdge * tileEdge * tileEdge * sizeof(float);
    if (dirtyBudgetBytes != 0 && dirtyBudgetBytes < tile_bytes)
        return R::failure(
            common::ErrorCode::InvalidArgument,
            "TiledVolume3D: dirty budget (" +
                std::to_string(dirtyBudgetBytes) +
                " bytes) smaller than one " +
                std::to_string(tileEdge) + "^3 tile (" +
                std::to_string(tile_bytes) + " bytes)");

    TiledVolume3D v;
    v.store_ = &store;
    v.nx_ = nx;
    v.ny_ = ny;
    v.nz_ = nz;
    v.edge_ = tileEdge;
    v.tx_ = ceilDiv(nx, tileEdge);
    v.ty_ = ceilDiv(ny, tileEdge);
    v.tz_ = ceilDiv(nz, tileEdge);
    v.tileBytes_ = tile_bytes;
    v.dirtyBudgetBytes_ = dirtyBudgetBytes;
    v.slots_.resize(v.tx_ * v.ty_ * v.tz_);
    return R(std::move(v));
}

common::Result<TiledVolume3D>
TiledVolume3D::fromDense(const Volume3D &dense, TileStore &store,
                         size_t tileEdge)
{
    using R = common::Result<TiledVolume3D>;
    auto made = create(dense.nx(), dense.ny(), dense.nz(), store,
                       tileEdge);
    if (!made.ok())
        return made;
    TiledVolume3D v = made.takeValue();
    // Fill tile by tile (no LRU churn: each tile is sealed as soon as
    // it is complete, so the working set is one tile).
    std::vector<float> buf;
    for (size_t tz = 0; tz < v.tz_; ++tz)
        for (size_t ty = 0; ty < v.ty_; ++ty)
            for (size_t tx = 0; tx < v.tx_; ++tx) {
                buf.assign(v.edge_ * v.edge_ * v.edge_, 0.0f);
                const size_t x0 = tx * v.edge_;
                const size_t y0 = ty * v.edge_;
                const size_t z0 = tz * v.edge_;
                const size_t x1 = std::min(x0 + v.edge_, v.nx_);
                const size_t y1 = std::min(y0 + v.edge_, v.ny_);
                const size_t z1 = std::min(z0 + v.edge_, v.nz_);
                for (size_t z = z0; z < z1; ++z)
                    for (size_t y = y0; y < y1; ++y)
                        for (size_t x = x0; x < x1; ++x)
                            buf[((z - z0) * v.edge_ + (y - y0)) *
                                    v.edge_ +
                                (x - x0)] = dense.at(x, y, z);
                auto put = store.put(buf);
                if (!put.ok())
                    return R(put.error());
                Slot &slot =
                    v.slots_[v.slotIndex(tx, ty, tz)];
                slot.state = SlotState::Sealed;
                slot.digest = put.value();
            }
    return R(std::move(v));
}

common::Result<TiledVolume3D>
TiledVolume3D::fromDigests(size_t nx, size_t ny, size_t nz,
                           size_t tileEdge,
                           std::vector<uint64_t> digests,
                           TileStore &store)
{
    using R = common::Result<TiledVolume3D>;
    // Match the grid against the digest count before create() sizes
    // the slot table: corrupt dimensions must not ask for a huge one.
    const size_t count = digests.size();
    const auto along = [&](size_t n) {
        return tileEdge == 0 ? 0 : n / tileEdge + (n % tileEdge != 0);
    };
    const size_t tx = along(nx), ty = along(ny), tz = along(nz);
    if (tx != 0 && ty != 0 && tz != 0 &&
        (ty > count / tx || tz > count / (tx * ty) ||
         tx * ty * tz != count))
        return R::failure(
            common::ErrorCode::DataLoss,
            "TiledVolume3D::fromDigests: " + std::to_string(count) +
                " digests for a " + std::to_string(tx) + " x " +
                std::to_string(ty) + " x " + std::to_string(tz) +
                " tile grid");
    auto made = create(nx, ny, nz, store, tileEdge);
    if (!made.ok())
        return made;
    TiledVolume3D v = made.takeValue();
    for (size_t i = 0; i < digests.size(); ++i) {
        if (!store.contains(digests[i]))
            return R::failure(
                common::ErrorCode::DataLoss,
                "TiledVolume3D::fromDigests: tile " +
                    std::to_string(i) +
                    " is missing from the tile store");
        v.slots_[i].state = SlotState::Sealed;
        v.slots_[i].digest = digests[i];
    }
    return R(std::move(v));
}

common::Result<const float *>
TiledVolume3D::tileFloats(size_t slot, TileRef &ref) const
{
    using R = common::Result<const float *>;
    const Slot &s = slots_[slot];
    switch (s.state) {
      case SlotState::Zero:
        return R(static_cast<const float *>(nullptr));
      case SlotState::Dirty:
        return R(static_cast<const float *>(s.dirty->data()));
      case SlotState::Sealed: {
        auto fetched = store_->fetch(s.digest);
        if (!fetched.ok())
            return R(fetched.error());
        ref = fetched.takeValue();
        return R(ref.floats());
      }
    }
    return R::failure(common::ErrorCode::Internal,
                      "TiledVolume3D: corrupt slot state");
}

common::Result<std::vector<float> *>
TiledVolume3D::tileMutable(size_t slot)
{
    using R = common::Result<std::vector<float> *>;
    Slot &s = slots_[slot];
    switch (s.state) {
      case SlotState::Dirty:
        touchDirty(slot);
        return R(s.dirty.get());
      case SlotState::Zero:
        s.dirty = std::make_shared<std::vector<float>>(
            edge_ * edge_ * edge_, 0.0f);
        break;
      case SlotState::Sealed: {
        auto fetched = store_->fetch(s.digest);
        if (!fetched.ok())
            return R(fetched.error());
        s.dirty =
            std::make_shared<std::vector<float>>(*fetched.value());
        break;
      }
    }
    s.state = SlotState::Dirty;
    s.digest = 0;
    dirtyBytes_ += tileBytes_;
    dirtyLru_.push_front(slot);
    s.lruIt = dirtyLru_.begin();
    return R(s.dirty.get());
}

void
TiledVolume3D::touchDirty(size_t slot)
{
    dirtyLru_.splice(dirtyLru_.begin(), dirtyLru_,
                     slots_[slot].lruIt);
}

std::optional<common::Error>
TiledVolume3D::sealSlot(size_t slot)
{
    Slot &s = slots_[slot];
    auto put = store_->put(std::move(*s.dirty));
    if (!put.ok())
        return put.error();
    s.dirty.reset();
    s.state = SlotState::Sealed;
    s.digest = put.value();
    dirtyBytes_ -= tileBytes_;
    dirtyLru_.erase(s.lruIt);
    return std::nullopt;
}

std::optional<common::Error>
TiledVolume3D::enforceDirtyBudget()
{
    if (dirtyBudgetBytes_ == 0)
        return std::nullopt;
    while (dirtyBytes_ > dirtyBudgetBytes_ && !dirtyLru_.empty()) {
        if (const auto err = sealSlot(dirtyLru_.back()))
            return err;
    }
    return std::nullopt;
}

std::optional<common::Error>
TiledVolume3D::setCrossSection(size_t x, const Image2D &img)
{
    if (store_ == nullptr || x >= nx_ || img.width() != ny_ ||
        img.height() != nz_)
        return common::Error{
            common::ErrorCode::InvalidArgument,
            "TiledVolume3D::setCrossSection: x=" + std::to_string(x) +
                " shape " + std::to_string(img.width()) + "x" +
                std::to_string(img.height()) + " into " +
                std::to_string(nx_) + "x" + std::to_string(ny_) +
                "x" + std::to_string(nz_)};

    const size_t tx = x / edge_;
    const size_t lx = x % edge_;
    for (size_t tz = 0; tz < tz_; ++tz)
        for (size_t ty = 0; ty < ty_; ++ty) {
            auto buf = tileMutable(slotIndex(tx, ty, tz));
            if (!buf.ok())
                return buf.error();
            float *t = buf.value()->data();
            const size_t y0 = ty * edge_;
            const size_t z0 = tz * edge_;
            const size_t y1 = std::min(y0 + edge_, ny_);
            const size_t z1 = std::min(z0 + edge_, nz_);
            for (size_t z = z0; z < z1; ++z)
                for (size_t y = y0; y < y1; ++y)
                    t[((z - z0) * edge_ + (y - y0)) * edge_ + lx] =
                        img.at(y, z);
            // Enforce per tile, not per slice: at a tile-layer
            // transition the whole previous layer is still dirty, so
            // deferring to the end of the slice would let the dirty
            // set peak at two full layers before any sealing.  The
            // tiles just written are at the LRU front, so the seals
            // always take the coldest (previous-layer) buffers.
            if (const auto err = enforceDirtyBudget())
                return err;
        }
    return std::nullopt;
}

common::Result<Image2D>
TiledVolume3D::crossSection(size_t x) const
{
    using R = common::Result<Image2D>;
    if (store_ == nullptr || x >= nx_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D::crossSection: x=" +
                              std::to_string(x) + " outside nx=" +
                              std::to_string(nx_));
    Image2D img(ny_, nz_);
    const size_t tx = x / edge_;
    const size_t lx = x % edge_;
    for (size_t tz = 0; tz < tz_; ++tz)
        for (size_t ty = 0; ty < ty_; ++ty) {
            TileRef ref;
            auto tf = tileFloats(slotIndex(tx, ty, tz), ref);
            if (!tf.ok())
                return R(tf.error());
            const float *t = tf.value();
            if (t == nullptr)
                continue; // zero tile; img is zero-initialized
            const size_t y0 = ty * edge_;
            const size_t z0 = tz * edge_;
            const size_t y1 = std::min(y0 + edge_, ny_);
            const size_t z1 = std::min(z0 + edge_, nz_);
            for (size_t z = z0; z < z1; ++z)
                for (size_t y = y0; y < y1; ++y)
                    img.at(y, z) =
                        t[((z - z0) * edge_ + (y - y0)) * edge_ +
                          lx];
        }
    return R(std::move(img));
}

common::Result<Image2D>
TiledVolume3D::planarView(size_t z) const
{
    using R = common::Result<Image2D>;
    if (store_ == nullptr || z >= nz_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D::planarView: z=" +
                              std::to_string(z) + " outside nz=" +
                              std::to_string(nz_));
    Image2D img(nx_, ny_);
    const size_t tz = z / edge_;
    const size_t lz = z % edge_;
    for (size_t ty = 0; ty < ty_; ++ty)
        for (size_t tx = 0; tx < tx_; ++tx) {
            TileRef ref;
            auto tf = tileFloats(slotIndex(tx, ty, tz), ref);
            if (!tf.ok())
                return R(tf.error());
            const float *t = tf.value();
            if (t == nullptr)
                continue;
            const size_t x0 = tx * edge_;
            const size_t y0 = ty * edge_;
            const size_t x1 = std::min(x0 + edge_, nx_);
            const size_t y1 = std::min(y0 + edge_, ny_);
            for (size_t y = y0; y < y1; ++y)
                for (size_t x = x0; x < x1; ++x)
                    img.at(x, y) =
                        t[(lz * edge_ + (y - y0)) * edge_ +
                          (x - x0)];
        }
    return R(std::move(img));
}

common::Result<Image2D>
TiledVolume3D::planarSlab(size_t z0, size_t z1) const
{
    using R = common::Result<Image2D>;
    if (store_ == nullptr || z1 <= z0 || z1 > nz_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D::planarSlab: bad range [" +
                              std::to_string(z0) + ", " +
                              std::to_string(z1) + ") over nz=" +
                              std::to_string(nz_));
    Image2D img(nx_, ny_, 0.0f);
    // Per output pixel the partial sums accumulate in strictly
    // increasing z — the same order as the dense triple loop — so the
    // float result is bitwise identical.
    for (size_t tz = z0 / edge_; tz * edge_ < z1; ++tz)
        for (size_t ty = 0; ty < ty_; ++ty)
            for (size_t tx = 0; tx < tx_; ++tx) {
                TileRef ref;
                auto tf = tileFloats(slotIndex(tx, ty, tz), ref);
                if (!tf.ok())
                    return R(tf.error());
                const float *t = tf.value();
                if (t == nullptr)
                    continue;
                const size_t zlo =
                    std::max(z0, tz * edge_);
                const size_t zhi =
                    std::min({z1, (tz + 1) * edge_, nz_});
                const size_t x0 = tx * edge_;
                const size_t y0 = ty * edge_;
                const size_t x1t = std::min(x0 + edge_, nx_);
                const size_t y1t = std::min(y0 + edge_, ny_);
                for (size_t z = zlo; z < zhi; ++z)
                    for (size_t y = y0; y < y1t; ++y)
                        for (size_t x = x0; x < x1t; ++x)
                            img.at(x, y) +=
                                t[((z - tz * edge_) * edge_ +
                                   (y - y0)) *
                                      edge_ +
                                  (x - x0)];
            }
    const float k = 1.0f / static_cast<float>(z1 - z0);
    for (float &v : img.data())
        v *= k;
    return R(std::move(img));
}

common::Result<float>
TiledVolume3D::at(size_t x, size_t y, size_t z) const
{
    using R = common::Result<float>;
    if (store_ == nullptr || x >= nx_ || y >= ny_ || z >= nz_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "TiledVolume3D::at: voxel out of range");
    TileRef ref;
    auto tf = tileFloats(
        slotIndex(x / edge_, y / edge_, z / edge_), ref);
    if (!tf.ok())
        return R(tf.error());
    const float *t = tf.value();
    if (t == nullptr)
        return R(0.0f);
    return R(float(t[((z % edge_) * edge_ + (y % edge_)) * edge_ +
                     (x % edge_)]));
}

common::Result<Volume3D>
TiledVolume3D::toDense() const
{
    using R = common::Result<Volume3D>;
    if (store_ == nullptr)
        return R::failure(common::ErrorCode::FailedPrecondition,
                          "TiledVolume3D::toDense: empty volume");
    Volume3D out(nx_, ny_, nz_);
    for (size_t tz = 0; tz < tz_; ++tz)
        for (size_t ty = 0; ty < ty_; ++ty)
            for (size_t tx = 0; tx < tx_; ++tx) {
                TileRef ref;
                auto tf = tileFloats(slotIndex(tx, ty, tz), ref);
                if (!tf.ok())
                    return R(tf.error());
                const float *t = tf.value();
                if (t == nullptr)
                    continue;
                const size_t x0 = tx * edge_;
                const size_t y0 = ty * edge_;
                const size_t z0 = tz * edge_;
                const size_t x1 = std::min(x0 + edge_, nx_);
                const size_t y1 = std::min(y0 + edge_, ny_);
                const size_t z1 = std::min(z0 + edge_, nz_);
                for (size_t z = z0; z < z1; ++z)
                    for (size_t y = y0; y < y1; ++y)
                        for (size_t x = x0; x < x1; ++x)
                            out.at(x, y, z) =
                                t[((z - z0) * edge_ + (y - y0)) *
                                      edge_ +
                                  (x - x0)];
            }
    return R(std::move(out));
}

std::optional<common::Error>
TiledVolume3D::sealAll()
{
    if (store_ == nullptr)
        return common::Error{common::ErrorCode::FailedPrecondition,
                             "TiledVolume3D::sealAll: empty volume"};
    // Deterministic slot order, not LRU order, so the digest list is
    // a pure function of the content.
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].state != SlotState::Dirty)
            continue;
        if (const auto err = sealSlot(i))
            return err;
    }
    return std::nullopt;
}

common::Result<std::vector<uint64_t>>
TiledVolume3D::digests()
{
    using R = common::Result<std::vector<uint64_t>>;
    if (const auto err = sealAll())
        return R(*err);
    // Zero slots seal as the shared all-zero tile (content addressing
    // collapses them into one stored tile).
    uint64_t zero_digest = 0;
    bool have_zero = false;
    std::vector<uint64_t> out;
    out.reserve(slots_.size());
    for (Slot &s : slots_) {
        if (s.state == SlotState::Zero) {
            if (!have_zero) {
                auto put = store_->put(std::vector<float>(
                    edge_ * edge_ * edge_, 0.0f));
                if (!put.ok())
                    return R(put.error());
                zero_digest = put.value();
                have_zero = true;
            }
            s.state = SlotState::Sealed;
            s.digest = zero_digest;
        }
        out.push_back(s.digest);
    }
    return R(std::move(out));
}

} // namespace image
} // namespace hifi
