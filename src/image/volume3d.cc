#include "image/volume3d.hh"

#include <stdexcept>
#include <string>

namespace hifi
{
namespace image
{

Volume3D::Volume3D(size_t nx, size_t ny, size_t nz, float fill)
    : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz, fill)
{
    if (nx == 0 || ny == 0 || nz == 0)
        throw std::invalid_argument("Volume3D: zero dimension");
}

common::Result<Volume3D>
Volume3D::createChecked(size_t nx, size_t ny, size_t nz, float fill)
{
    using R = common::Result<Volume3D>;
    if (nx == 0 || ny == 0 || nz == 0)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "Volume3D: zero dimension (" +
                              std::to_string(nx) + " x " +
                              std::to_string(ny) + " x " +
                              std::to_string(nz) + ")");
    return R(Volume3D(nx, ny, nz, fill));
}

Image2D
Volume3D::crossSection(size_t x) const
{
    if (x >= nx_)
        throw std::out_of_range("Volume3D::crossSection");
    Image2D img(ny_, nz_);
    for (size_t z = 0; z < nz_; ++z)
        for (size_t y = 0; y < ny_; ++y)
            img.at(y, z) = at(x, y, z);
    return img;
}

Image2D
Volume3D::planarView(size_t z) const
{
    if (z >= nz_)
        throw std::out_of_range("Volume3D::planarView");
    Image2D img(nx_, ny_);
    for (size_t y = 0; y < ny_; ++y)
        for (size_t x = 0; x < nx_; ++x)
            img.at(x, y) = at(x, y, z);
    return img;
}

common::Result<Image2D>
Volume3D::crossSectionChecked(size_t x) const
{
    using R = common::Result<Image2D>;
    if (x >= nx_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "Volume3D::crossSection: x=" +
                              std::to_string(x) + " outside nx=" +
                              std::to_string(nx_));
    return R(crossSection(x));
}

common::Result<Image2D>
Volume3D::planarViewChecked(size_t z) const
{
    using R = common::Result<Image2D>;
    if (z >= nz_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "Volume3D::planarView: z=" +
                              std::to_string(z) + " outside nz=" +
                              std::to_string(nz_));
    return R(planarView(z));
}

void
Volume3D::setCrossSection(size_t x, const Image2D &img)
{
    if (x >= nx_ || img.width() != ny_ || img.height() != nz_)
        throw std::invalid_argument("Volume3D::setCrossSection: shape");
    for (size_t z = 0; z < nz_; ++z)
        for (size_t y = 0; y < ny_; ++y)
            at(x, y, z) = img.at(y, z);
}

Image2D
Volume3D::planarSlab(size_t z0, size_t z1) const
{
    if (z1 <= z0 || z1 > nz_)
        throw std::invalid_argument("Volume3D::planarSlab: bad range");
    Image2D img(nx_, ny_, 0.0f);
    for (size_t z = z0; z < z1; ++z)
        for (size_t y = 0; y < ny_; ++y)
            for (size_t x = 0; x < nx_; ++x)
                img.at(x, y) += at(x, y, z);
    const float k = 1.0f / static_cast<float>(z1 - z0);
    for (float &v : img.data())
        v *= k;
    return img;
}

common::Result<Image2D>
Volume3D::planarSlabChecked(size_t z0, size_t z1) const
{
    using R = common::Result<Image2D>;
    if (z1 <= z0 || z1 > nz_)
        return R::failure(common::ErrorCode::InvalidArgument,
                          "Volume3D::planarSlab: bad range [" +
                              std::to_string(z0) + ", " +
                              std::to_string(z1) + ") over nz=" +
                              std::to_string(nz_));
    return R(planarSlab(z0, z1));
}

} // namespace image
} // namespace hifi
