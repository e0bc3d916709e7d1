/**
 * @file
 * 3-D float volume with reslicing, used for FIB/SEM volumetric
 * reconstruction.
 *
 * Axis convention: the FIB mills slices perpendicular to X (the bitline
 * direction), so a cross-section image lives in the (Y, Z) plane and the
 * stack index runs along X.  The planar (top-down) view the analyst works
 * with lives in the (X, Y) plane at a chosen Z (IC layer depth).
 */

#ifndef HIFI_IMAGE_VOLUME3D_HH
#define HIFI_IMAGE_VOLUME3D_HH

#include <cstddef>
#include <vector>

#include "common/result.hh"
#include "image/image2d.hh"

namespace hifi
{
namespace image
{

/** Dense float volume indexed as (x, y, z). */
class Volume3D
{
  public:
    Volume3D() = default;

    /// Throws std::invalid_argument on a zero dimension; prefer
    /// createChecked for a typed error.
    Volume3D(size_t nx, size_t ny, size_t nz, float fill = 0.0f);

    /// Typed-error construction: InvalidArgument on a zero dimension
    /// instead of a throw (the fuzz-facing entry point).
    static common::Result<Volume3D>
    createChecked(size_t nx, size_t ny, size_t nz, float fill = 0.0f);

    size_t nx() const { return nx_; }
    size_t ny() const { return ny_; }
    size_t nz() const { return nz_; }
    bool empty() const { return data_.empty(); }

    float &
    at(size_t x, size_t y, size_t z)
    {
        return data_[(z * ny_ + y) * nx_ + x];
    }

    float
    at(size_t x, size_t y, size_t z) const
    {
        return data_[(z * ny_ + y) * nx_ + x];
    }

    /// Raw storage, laid out (z * ny + y) * nx + x — for kernels that
    /// stride across rows (e.g. the SEM shading gather loop).
    const float *data() const { return data_.data(); }

    /// Mutable raw storage (same layout); used by the checkpoint
    /// codec to reassemble a volume from stored tiles.
    float *mutableData() { return data_.data(); }

    /// Cross-section at a given X: image over (Y, Z).  Throws
    /// std::out_of_range when x >= nx().
    Image2D crossSection(size_t x) const;

    /// Typed-error variant: InvalidArgument out of range.
    common::Result<Image2D> crossSectionChecked(size_t x) const;

    /// Planar (top-down) view at a given Z: image over (X, Y).
    /// Throws std::out_of_range when z >= nz().
    Image2D planarView(size_t z) const;

    /// Typed-error variant: InvalidArgument out of range.
    common::Result<Image2D> planarViewChecked(size_t z) const;

    /// Insert a cross-section image (Y, Z) at position x.
    void setCrossSection(size_t x, const Image2D &img);

    /// Average planar view over a z range [z0, z1): a "layer slab".
    /// Throws std::invalid_argument on an empty or out-of-range
    /// window.
    Image2D planarSlab(size_t z0, size_t z1) const;

    /// Typed-error variant: InvalidArgument on a bad range.
    common::Result<Image2D> planarSlabChecked(size_t z0,
                                              size_t z1) const;

  private:
    size_t nx_ = 0;
    size_t ny_ = 0;
    size_t nz_ = 0;
    std::vector<float> data_;
};

/**
 * Ground-truth fault/recovery provenance of one acquired slice, stamped
 * by the simulator so tests can score the QC detector against the
 * injected truth.  Fault kinds are scope::FaultKind values stored as
 * ints to keep the image layer free of scope dependencies; 0 is clean.
 */
struct SliceProvenance
{
    /// Fault injected into the *first* acquisition attempt (0 = none).
    int injectedFault = 0;

    /// Whether QC flagged the first attempt (the detection the tests
    /// score against injectedFault).
    bool firstAttemptFlagged = false;

    /// image::QcFlag bitmask of the first attempt (which checks fired).
    unsigned firstAttemptFlags = 0;

    /// Total imaging attempts spent on this slice (1 = no retry).
    size_t attempts = 1;

    /// Fault present on the finally accepted attempt (residual,
    /// undetected corruption; 0 if the accepted frame was clean).
    int acceptedFault = 0;

    /// Some attempt passed QC (false => interpolated or unrecoverable).
    bool accepted = true;

    /// Slice was replaced by neighbour interpolation.
    bool interpolated = false;

    /// No attempt passed QC and no neighbour was available.
    bool unrecoverable = false;
};

/**
 * Stack of cross-section images plus per-slice alignment shifts.
 *
 * This is the raw product of a FIB/SEM acquisition: slice i is the SEM
 * image of the cross-section after the i-th mill, drifted by an unknown
 * (dy, dz) relative to slice 0.
 */
struct SliceStack
{
    std::vector<Image2D> slices;

    /// Ground-truth drift of each slice (known only to the simulator).
    std::vector<std::pair<long, long>> trueDrift;

    /// Fault/recovery provenance per slice.  Empty for the plain
    /// `scope::acquire` path; filled by `scope::acquireRobust`.
    std::vector<SliceProvenance> provenance;

    /// nm of material removed per slice (10 or 20 in the paper).
    double sliceThicknessNm = 20.0;

    /// nm per pixel in the cross-section images.
    double pixelResolutionNm = 5.0;
};

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_VOLUME3D_HH
