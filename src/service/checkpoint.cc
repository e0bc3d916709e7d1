#include "service/checkpoint.hh"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "image/tiled_volume.hh"

namespace hifi
{
namespace service
{

namespace
{

constexpr uint64_t kMagic = 0x48494649434b5031ull; // "HIFICKP1"

/// Artifacts as tile digests.  Version 1 embedded the voxels inline;
/// it is retired, and such an image fails as an unsupported version.
constexpr uint32_t kVersion = 2;

// ---- Byte-stream primitives ---------------------------------------
// Native-endian binary encoding: a checkpoint resumes on the machine
// that wrote it (the service's crash-restart story), not across
// architectures.  The trailing digest catches torn writes; the config
// digest catches resumes under a different job configuration.

struct Writer
{
    std::string out;

    void
    u64(uint64_t v)
    {
        out.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void u32(uint32_t v)
    {
        out.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void u8(uint8_t v) { out.push_back(static_cast<char>(v)); }

    void
    d(double v)
    {
        out.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        out.append(s);
    }

    void
    rect(const common::Rect &r)
    {
        d(r.x0);
        d(r.y0);
        d(r.x1);
        d(r.y1);
    }
};

struct Reader
{
    const std::string &in;
    size_t pos = 0;
    bool ok = true;

    explicit Reader(const std::string &bytes) : in(bytes) {}

    bool
    take(void *dst, size_t n)
    {
        if (!ok || in.size() - pos < n) {
            ok = false;
            return false;
        }
        std::memcpy(dst, in.data() + pos, n);
        pos += n;
        return true;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    double
    d()
    {
        double v = 0;
        take(&v, sizeof(v));
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    std::string
    str()
    {
        const uint64_t n = u64();
        if (!ok || in.size() - pos < n) {
            ok = false;
            return {};
        }
        std::string s(in.data() + pos, n);
        pos += n;
        return s;
    }

    common::Rect
    rect()
    {
        common::Rect r;
        r.x0 = d();
        r.y0 = d();
        r.x1 = d();
        r.y1 = d();
        return r;
    }
};

uint64_t
fnv(const char *data, size_t n, uint64_t h = 1469598103934665603ull)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

// ---- Config identity ----------------------------------------------

void
writeFabIdentity(Writer &w, const core::PipelineConfig &c)
{
    w.str(c.chipId);
    w.u64(c.pairs);
    w.u64(c.stackedSas);
    w.u64(c.seed);
    w.u64(static_cast<uint64_t>(c.corner));
    w.d(c.voxelNm);
    w.u64(c.defects.seed);
    w.u64(c.defects.bitlineShorts);
    w.u64(c.defects.bitlineOpens);
    w.u64(c.defects.missingVias);
    w.u64(c.defects.particles);
    w.d(c.defects.particleDiameterNm);
}

void
writeConfigIdentity(Writer &w, const core::PipelineConfig &c)
{
    writeFabIdentity(w, c);
    w.u64(static_cast<uint64_t>(c.denoise));
    w.d(c.driftProbability);
    w.i64(c.detectorOverride);

    const scope::FaultParams &f = c.faults;
    w.u8(f.enabled);
    w.d(f.curtainingProbability);
    w.d(f.chargingProbability);
    w.d(f.focusLossProbability);
    w.d(f.dropoutProbability);
    w.d(f.sliceSkipProbability);
    w.d(f.driftExcursionProbability);
    w.d(f.curtainDepth);
    w.d(f.curtainPeriodFrac);
    w.d(f.chargeValue);
    w.d(f.chargeAreaFrac);
    w.u64(f.blurRadius);
    w.d(f.dropoutRowFraction);
    w.d(f.blankFrameFraction);
    w.u64(f.skipOvershootSlices);
    w.i64(f.excursionPx);

    // Result-affecting recovery policy only: reuseCleanFrames and the
    // cache capacity are bit-identity-neutral by contract and must
    // not invalidate a checkpoint.
    const scope::RecoveryParams &r = c.recovery;
    w.u64(r.maxRetries);
    w.u8(r.interpolate);
    const image::QcThresholds &q = r.qc;
    w.d(q.minSnr);
    w.d(q.saturationLevel);
    w.d(q.maxSaturationFraction);
    w.d(q.maxDeadRowFraction);
    w.d(q.maxStripeScore);
    w.d(q.minFocusRatio);
    w.d(q.minMiRatio);
    w.i64(q.maxNeighborShiftPx);
    w.i64(q.shiftSearchPx);
    w.u64(q.miBins);
    w.u64(q.history);
}

// ---- Report -------------------------------------------------------

void
writeReport(Writer &w, const core::PipelineReport &r)
{
    w.str(r.chipId);
    w.u64(static_cast<uint64_t>(r.trueTopology));
    w.u64(static_cast<uint64_t>(r.extractedTopology));
    w.u8(r.topologyCorrect);
    w.u64(r.trueCommonGateStrips);
    w.u64(r.extractedCommonGateStrips);
    w.u64(r.trueDevices);
    w.u64(r.extractedDevices);
    w.u64(r.bitlinesFound);
    w.u64(r.bitlinesTrue);
    w.u8(r.crossCouplingConsistent);
    w.str(r.matchedTemplate);
    w.d(r.matchScore);
    w.u64(r.slices);
    w.d(r.alignmentResidualPx);
    w.u8(r.alignmentBudgetMet);

    w.u64(r.roles.size());
    for (const auto &[role, rec] : r.roles) {
        w.u64(static_cast<uint64_t>(role));
        w.d(rec.trueW);
        w.d(rec.trueL);
        w.d(rec.measuredW);
        w.d(rec.measuredL);
    }
    w.d(r.maxDimErrorNm);

    w.u64(r.slicesRetried);
    w.u64(r.retries);
    w.u64(r.slicesInterpolated);
    w.u64(r.interpolatedSlices.size());
    for (const size_t s : r.interpolatedSlices)
        w.u64(s);
    w.u64(r.slicesUnrecoverable);
    w.u64(r.faultsInjected);
    w.u64(r.faultsDetected);
    w.d(r.qcConfidence);
    w.u8(r.degraded);

    const scope::CampaignCost &c = r.campaign;
    w.u64(c.slices);
    w.d(c.pixelsPerImage);
    w.d(c.millSecondsPerSlice);
    w.d(c.imageSecondsPerSlice);
    w.d(c.secondsPerSlice);
    w.u64(c.reimagedSlices);
    w.d(c.retryHours);
    w.d(c.totalHours);

    const core::SiliconDefectReport &sd = r.siliconDefects;
    w.u64(sd.planted.size());
    for (const auto &p : sd.planted) {
        w.u64(static_cast<uint64_t>(p.planted.kind));
        w.rect(p.planted.footprint);
        w.i64(p.planted.bitlineA);
        w.i64(p.planted.bitlineB);
        w.u8(p.detected);
    }
    w.u64(sd.detected.size());
    for (const auto &d : sd.detected) {
        w.u64(static_cast<uint64_t>(d.kind));
        w.rect(d.where);
        w.i64(d.bitlineA);
        w.i64(d.bitlineB);
    }
    w.u64(sd.matched);
    w.u64(sd.spurious);

    const re::RegionAnalysis &a = r.analysis;
    w.u64(static_cast<uint64_t>(a.topology));
    w.u64(a.commonGateStrips);
    w.u64(a.bitlines.size());
    for (const auto &b : a.bitlines)
        w.rect(b);
    w.u64(a.devices.size());
    for (const auto &dev : a.devices) {
        w.u64(static_cast<uint64_t>(dev.role));
        w.rect(dev.gate);
        w.d(dev.wNm);
        w.d(dev.lNm);
        w.i64(dev.bitline);
        w.i64(dev.couplesTo);
    }
    w.u64(a.defects.size());
    for (const auto &d : a.defects) {
        w.u64(static_cast<uint64_t>(d.kind));
        w.rect(d.where);
        w.i64(d.bitlineA);
        w.i64(d.bitlineB);
    }

    w.u64(r.qcAudit.size());
    for (const auto &dec : r.qcAudit) {
        w.u64(dec.slice);
        w.i64(dec.injectedFault);
        w.u8(dec.accepted);
        w.u8(dec.interpolated);
        w.u8(dec.unrecoverable);
        w.u64(dec.attempts.size());
        for (const auto &att : dec.attempts) {
            w.u64(att.attempt);
            w.i64(att.fault);
            w.u8(att.contentConfirmed);
            w.u8(att.accepted);
            const image::QcMetrics &m = att.metrics;
            w.d(m.snr);
            w.d(m.focusScore);
            w.d(m.saturationFraction);
            w.d(m.deadRowFraction);
            w.d(m.stripeScore);
            w.d(m.miVsPrev);
            w.i64(m.shiftX);
            w.i64(m.shiftY);
            w.u64(m.flags);
        }
    }
}

core::PipelineReport
readReport(Reader &rd)
{
    core::PipelineReport r;
    r.chipId = rd.str();
    r.trueTopology = static_cast<models::Topology>(rd.u64());
    r.extractedTopology = static_cast<models::Topology>(rd.u64());
    r.topologyCorrect = rd.u8();
    r.trueCommonGateStrips = rd.u64();
    r.extractedCommonGateStrips = rd.u64();
    r.trueDevices = rd.u64();
    r.extractedDevices = rd.u64();
    r.bitlinesFound = rd.u64();
    r.bitlinesTrue = rd.u64();
    r.crossCouplingConsistent = rd.u8();
    r.matchedTemplate = rd.str();
    r.matchScore = rd.d();
    r.slices = rd.u64();
    r.alignmentResidualPx = rd.d();
    r.alignmentBudgetMet = rd.u8();

    const uint64_t roles = rd.u64();
    for (uint64_t i = 0; rd.ok && i < roles; ++i) {
        const auto role = static_cast<models::Role>(rd.u64());
        core::RoleRecovery rec;
        rec.trueW = rd.d();
        rec.trueL = rd.d();
        rec.measuredW = rd.d();
        rec.measuredL = rd.d();
        r.roles[role] = rec;
    }
    r.maxDimErrorNm = rd.d();

    r.slicesRetried = rd.u64();
    r.retries = rd.u64();
    r.slicesInterpolated = rd.u64();
    const uint64_t interp = rd.u64();
    for (uint64_t i = 0; rd.ok && i < interp; ++i)
        r.interpolatedSlices.push_back(rd.u64());
    r.slicesUnrecoverable = rd.u64();
    r.faultsInjected = rd.u64();
    r.faultsDetected = rd.u64();
    r.qcConfidence = rd.d();
    r.degraded = rd.u8();

    scope::CampaignCost &c = r.campaign;
    c.slices = rd.u64();
    c.pixelsPerImage = rd.d();
    c.millSecondsPerSlice = rd.d();
    c.imageSecondsPerSlice = rd.d();
    c.secondsPerSlice = rd.d();
    c.reimagedSlices = rd.u64();
    c.retryHours = rd.d();
    c.totalHours = rd.d();

    core::SiliconDefectReport &sd = r.siliconDefects;
    const uint64_t planted = rd.u64();
    for (uint64_t i = 0; rd.ok && i < planted; ++i) {
        core::DefectOutcome out;
        out.planted.kind = static_cast<fab::DefectKind>(rd.u64());
        out.planted.footprint = rd.rect();
        out.planted.bitlineA = rd.i64();
        out.planted.bitlineB = rd.i64();
        out.detected = rd.u8();
        sd.planted.push_back(out);
    }
    const uint64_t detected = rd.u64();
    for (uint64_t i = 0; rd.ok && i < detected; ++i) {
        re::DetectedDefect d;
        d.kind = static_cast<fab::DefectKind>(rd.u64());
        d.where = rd.rect();
        d.bitlineA = rd.i64();
        d.bitlineB = rd.i64();
        sd.detected.push_back(d);
    }
    sd.matched = rd.u64();
    sd.spurious = rd.u64();

    re::RegionAnalysis &a = r.analysis;
    a.topology = static_cast<models::Topology>(rd.u64());
    a.commonGateStrips = rd.u64();
    const uint64_t bitlines = rd.u64();
    for (uint64_t i = 0; rd.ok && i < bitlines; ++i)
        a.bitlines.push_back(rd.rect());
    const uint64_t devices = rd.u64();
    for (uint64_t i = 0; rd.ok && i < devices; ++i) {
        re::ExtractedDevice dev;
        dev.role = static_cast<models::Role>(rd.u64());
        dev.gate = rd.rect();
        dev.wNm = rd.d();
        dev.lNm = rd.d();
        dev.bitline = rd.i64();
        dev.couplesTo = rd.i64();
        a.devices.push_back(dev);
    }
    const uint64_t adefects = rd.u64();
    for (uint64_t i = 0; rd.ok && i < adefects; ++i) {
        re::DetectedDefect d;
        d.kind = static_cast<fab::DefectKind>(rd.u64());
        d.where = rd.rect();
        d.bitlineA = rd.i64();
        d.bitlineB = rd.i64();
        a.defects.push_back(d);
    }

    const uint64_t audit = rd.u64();
    for (uint64_t i = 0; rd.ok && i < audit; ++i) {
        scope::SliceDecision dec;
        dec.slice = rd.u64();
        dec.injectedFault = static_cast<int>(rd.i64());
        dec.accepted = rd.u8();
        dec.interpolated = rd.u8();
        dec.unrecoverable = rd.u8();
        const uint64_t attempts = rd.u64();
        for (uint64_t j = 0; rd.ok && j < attempts; ++j) {
            scope::QcAttemptRecord att;
            att.attempt = rd.u64();
            att.fault = static_cast<int>(rd.i64());
            att.contentConfirmed = rd.u8();
            att.accepted = rd.u8();
            image::QcMetrics &m = att.metrics;
            m.snr = rd.d();
            m.focusScore = rd.d();
            m.saturationFraction = rd.d();
            m.deadRowFraction = rd.d();
            m.stripeScore = rd.d();
            m.miVsPrev = rd.d();
            m.shiftX = static_cast<long>(rd.i64());
            m.shiftY = static_cast<long>(rd.i64());
            m.flags = static_cast<unsigned>(rd.u64());
            dec.attempts.push_back(att);
        }
        r.qcAudit.push_back(dec);
    }
    return r;
}

// ---- Artifacts ----------------------------------------------------
// Voxels live in the content-addressed tile store; the checkpoint
// image holds dimensions + tile digests.  A corrupted or missing tile
// surfaces as DataLoss when fetched — the same taxonomy as a torn
// checkpoint file, and never a silent resume.

/// Artifact tags (which stage payload follows the report).  The values
/// are on disk; 3 belonged to the retired inline processed volume.
enum ArtifactTag : uint8_t
{
    kArtifactNone = 0,
    kArtifactMaterials = 1,
    kArtifactStack = 2,

    /// The postprocessed volume stays tiled across the resume
    /// (stageAnalyze re-pins it from the store on demand).
    kArtifactPostprocessed = 4,
};

/// The one artifact a run resumed at `next` reads.  The encoder
/// writes this tag and the decoder requires it, so an image whose
/// cursor and artifact disagree is lost data, not a state that
/// crashes the resumed stage.
ArtifactTag
artifactFor(core::Stage next)
{
    switch (next) {
      case core::Stage::Acquire:
        return kArtifactMaterials;
      case core::Stage::Postprocess:
        return kArtifactStack;
      case core::Stage::Analyze:
        return kArtifactPostprocessed;
      default: // Fab, Finalize, Done
        return kArtifactNone;
    }
}

common::Error
noTileStore()
{
    return {common::ErrorCode::FailedPrecondition,
            "checkpoint: no tile store for the artifact voxels"};
}

common::Error
truncated(const std::string &what)
{
    return {common::ErrorCode::DataLoss, "checkpoint: truncated " + what};
}

/// The store owns tile durability; a digest it cannot serve while a
/// checkpoint references it is lost data, not a lookup miss.
common::Error
asTileLoss(common::Error err)
{
    if (err.code == common::ErrorCode::NotFound)
        err.code = common::ErrorCode::DataLoss;
    err.message = "checkpoint: " + err.message;
    return err;
}

void
writeTileGrid(Writer &w, size_t nx, size_t ny, size_t nz, size_t edge,
              const std::vector<uint64_t> &digests)
{
    w.u64(nx);
    w.u64(ny);
    w.u64(nz);
    w.u64(edge);
    w.u64(digests.size());
    for (const uint64_t d : digests)
        w.u64(d);
}

std::optional<common::Error>
sealVolume(Writer &w, const image::Volume3D &v, image::TileStore &tiles)
{
    auto tiled = image::TiledVolume3D::fromDense(v, tiles);
    if (!tiled.ok())
        return tiled.error();
    image::TiledVolume3D tv = tiled.takeValue();
    auto digests = tv.digests();
    if (!digests.ok())
        return digests.error();
    writeTileGrid(w, v.nx(), v.ny(), v.nz(), tv.tileEdge(),
                  digests.value());
    return std::nullopt;
}

/// A tiled volume is usually already sealed into this very store (the
/// service installs its store as state.tileStore before the stages
/// run); only digests a *different* store produced, or a non-default
/// tile edge, need a dense round trip.
std::optional<common::Error>
sealTiled(Writer &w, image::TiledVolume3D &v, image::TileStore &tiles)
{
    auto digests = v.digests();
    if (!digests.ok())
        return digests.error();
    bool reusable =
        v.tileEdge() == image::TiledVolume3D::kDefaultTileEdge;
    for (const uint64_t d : digests.value())
        reusable = reusable && tiles.contains(d);
    if (reusable) {
        writeTileGrid(w, v.nx(), v.ny(), v.nz(), v.tileEdge(),
                      digests.value());
        return std::nullopt;
    }
    auto dense = v.toDense();
    if (!dense.ok())
        return dense.error();
    return sealVolume(w, dense.value(), tiles);
}

common::Result<image::TiledVolume3D>
readTileGrid(Reader &rd, image::TileStore &tiles)
{
    using R = common::Result<image::TiledVolume3D>;
    const uint64_t nx = rd.u64();
    const uint64_t ny = rd.u64();
    const uint64_t nz = rd.u64();
    const uint64_t edge = rd.u64();
    const uint64_t count = rd.u64();
    if (!rd.ok || count > rd.in.size())
        return R(truncated("tile grid"));
    // Every writer seals at the default edge; any other value would
    // index the fetched tiles with the wrong stride.
    if (edge != image::TiledVolume3D::kDefaultTileEdge)
        return R::failure(common::ErrorCode::DataLoss,
                          "checkpoint: unexpected tile edge " +
                              std::to_string(edge));
    std::vector<uint64_t> digests;
    digests.reserve(count);
    for (uint64_t i = 0; rd.ok && i < count; ++i)
        digests.push_back(rd.u64());
    if (!rd.ok)
        return R(truncated("tile grid"));
    auto tv = image::TiledVolume3D::fromDigests(
        nx, ny, nz, edge, std::move(digests), tiles);
    if (!tv.ok())
        return R(asTileLoss(tv.error()));
    return tv;
}

common::Result<std::shared_ptr<image::Volume3D>>
fetchVolume(Reader &rd, image::TileStore &tiles)
{
    using R = common::Result<std::shared_ptr<image::Volume3D>>;
    auto tv = readTileGrid(rd, tiles);
    if (!tv.ok())
        return R(tv.error());
    auto dense = tv.value().toDense();
    if (!dense.ok())
        return R(asTileLoss(dense.error()));
    return R(std::make_shared<image::Volume3D>(dense.takeValue()));
}

/// Slice digests, then the per-slice metadata.
std::optional<common::Error>
sealStack(Writer &w, const image::SliceStack &s, image::TileStore &tiles)
{
    w.u64(s.slices.size());
    for (const auto &img : s.slices) {
        w.u64(img.width());
        w.u64(img.height());
        auto digest = tiles.put(img.data());
        if (!digest.ok())
            return digest.error();
        w.u64(digest.value());
    }
    w.u64(s.trueDrift.size());
    for (const auto &[dy, dz] : s.trueDrift) {
        w.i64(dy);
        w.i64(dz);
    }
    w.u64(s.provenance.size());
    for (const auto &p : s.provenance) {
        w.i64(p.injectedFault);
        w.u8(p.firstAttemptFlagged);
        w.u64(p.firstAttemptFlags);
        w.u64(p.attempts);
        w.i64(p.acceptedFault);
        w.u8(p.accepted);
        w.u8(p.interpolated);
        w.u8(p.unrecoverable);
    }
    w.d(s.sliceThicknessNm);
    w.d(s.pixelResolutionNm);
    return std::nullopt;
}

common::Result<std::shared_ptr<image::SliceStack>>
fetchStack(Reader &rd, image::TileStore &tiles)
{
    using R = common::Result<std::shared_ptr<image::SliceStack>>;
    auto s = std::make_shared<image::SliceStack>();
    const uint64_t slices = rd.u64();
    if (!rd.ok || slices > rd.in.size())
        return R(truncated("stack"));
    for (uint64_t i = 0; rd.ok && i < slices; ++i) {
        const uint64_t width = rd.u64();
        const uint64_t height = rd.u64();
        const uint64_t digest = rd.u64();
        if (!rd.ok)
            break;
        auto tile = tiles.fetch(digest);
        if (!tile.ok())
            return R(asTileLoss(tile.error()));
        // The division keeps a wrapped width * height from passing.
        const size_t n = tile.value().size();
        if (width == 0 || n / width != height || n % width != 0)
            return R::failure(
                common::ErrorCode::DataLoss,
                "checkpoint: slice tile size " + std::to_string(n) +
                    " does not match " + std::to_string(width) +
                    " x " + std::to_string(height));
        image::Image2D img(width, height);
        img.data() = *tile.value();
        s->slices.push_back(std::move(img));
    }

    const uint64_t drifts = rd.u64();
    for (uint64_t i = 0; rd.ok && i < drifts; ++i) {
        const long dy = static_cast<long>(rd.i64());
        const long dz = static_cast<long>(rd.i64());
        s->trueDrift.emplace_back(dy, dz);
    }
    const uint64_t prov = rd.u64();
    for (uint64_t i = 0; rd.ok && i < prov; ++i) {
        image::SliceProvenance p;
        p.injectedFault = static_cast<int>(rd.i64());
        p.firstAttemptFlagged = rd.u8();
        p.firstAttemptFlags = static_cast<unsigned>(rd.u64());
        p.attempts = rd.u64();
        p.acceptedFault = static_cast<int>(rd.i64());
        p.accepted = rd.u8();
        p.interpolated = rd.u8();
        p.unrecoverable = rd.u8();
        s->provenance.push_back(p);
    }
    s->sliceThicknessNm = rd.d();
    s->pixelResolutionNm = rd.d();
    if (!rd.ok)
        return R(truncated("stack"));
    return R(std::move(s));
}

/// Seal the artifact artifactFor(state.next) names and write its tag
/// and reference.
std::optional<common::Error>
writeArtifact(Writer &w, const core::StagedState &state,
              image::TileStore &tiles)
{
    const ArtifactTag tag = artifactFor(state.next);
    w.u8(tag);
    const auto missing = [&] {
        return common::Error{common::ErrorCode::FailedPrecondition,
                             std::string("checkpoint: no artifact for "
                                         "stage ") +
                                 core::stageName(state.next)};
    };
    switch (tag) {
      case kArtifactNone:
        break;
      case kArtifactMaterials:
        if (!state.materials)
            return missing();
        return sealVolume(w, *state.materials, tiles);
      case kArtifactStack:
        if (!state.stack)
            return missing();
        return sealStack(w, *state.stack, tiles);
      case kArtifactPostprocessed:
        if (state.processedTiled)
            return sealTiled(w, *state.processedTiled, tiles);
        if (!state.processed)
            return missing();
        return sealVolume(w, *state.processed, tiles);
    }
    return std::nullopt;
}

} // namespace

uint64_t
configDigest(const core::PipelineConfig &config)
{
    Writer w;
    writeConfigIdentity(w, config);
    return fnv(w.out.data(), w.out.size());
}

uint64_t
fabDigest(const core::PipelineConfig &config)
{
    Writer w;
    writeFabIdentity(w, config);
    return fnv(w.out.data(), w.out.size());
}

common::Result<std::string>
encodeCheckpoint(const core::PipelineConfig &config,
                 const core::StagedState &state,
                 const std::shared_ptr<image::TileStore> &tiles)
{
    using R = common::Result<std::string>;
    if (!tiles)
        return R(noTileStore());

    Writer w;
    w.u64(kMagic);
    w.u32(kVersion);
    w.u64(configDigest(config));
    w.u32(static_cast<uint32_t>(state.next));
    w.d(state.voxelNm);
    w.d(state.sliceThicknessNm);
    writeReport(w, state.report);
    if (auto err = writeArtifact(w, state, *tiles))
        return R(*err);

    w.u64(fnv(w.out.data(), w.out.size()));
    return R(std::move(w.out));
}

common::Result<core::StagedState>
decodeCheckpoint(const std::string &bytes,
                 const core::PipelineConfig &config,
                 const std::shared_ptr<image::TileStore> &tiles)
{
    using R = common::Result<core::StagedState>;
    if (!tiles)
        return R(noTileStore());
    if (bytes.size() < sizeof(uint64_t) * 3)
        return R(truncated("file"));
    uint64_t stored = 0;
    const size_t payload = bytes.size() - sizeof(stored);
    std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
    if (fnv(bytes.data(), payload) != stored)
        return R::failure(common::ErrorCode::DataLoss,
                          "checkpoint: payload digest mismatch "
                          "(torn or corrupted file)");

    Reader rd(bytes);
    if (rd.u64() != kMagic)
        return R::failure(common::ErrorCode::DataLoss,
                          "checkpoint: bad magic");
    if (rd.u32() != kVersion)
        return R::failure(common::ErrorCode::FailedPrecondition,
                          "checkpoint: unsupported version");
    if (rd.u64() != configDigest(config))
        return R::failure(common::ErrorCode::FailedPrecondition,
                          "checkpoint: written under a different "
                          "configuration");

    core::StagedState state;
    state.next = static_cast<core::Stage>(rd.u32());
    if (state.next > core::Stage::Done)
        return R::failure(common::ErrorCode::DataLoss,
                          "checkpoint: stage cursor out of range");
    state.voxelNm = rd.d();
    state.sliceThicknessNm = rd.d();
    state.report = readReport(rd);

    const uint8_t tag = rd.u8();
    if (!rd.ok)
        return R(truncated("payload"));
    if (tag != artifactFor(state.next))
        return R::failure(common::ErrorCode::DataLoss,
                          std::string("checkpoint: artifact does not "
                                      "match the stage cursor (") +
                              core::stageName(state.next) + ")");
    switch (tag) {
      case kArtifactMaterials: {
        auto v = fetchVolume(rd, *tiles);
        if (!v.ok())
            return R(v.error());
        state.materials = v.takeValue();
        break;
      }
      case kArtifactStack: {
        auto s = fetchStack(rd, *tiles);
        if (!s.ok())
            return R(s.error());
        state.stack = s.takeValue();
        break;
      }
      case kArtifactPostprocessed: {
        // Resume re-pins: the volume references the store's tiles
        // and fetches them when the Analyze stage reads, instead of
        // re-reading every voxel here.
        auto tv = readTileGrid(rd, *tiles);
        if (!tv.ok())
            return R(tv.error());
        state.processedTiled =
            std::make_shared<image::TiledVolume3D>(tv.takeValue());
        state.tileStore = tiles;
        break;
      }
      default:
        break;
    }
    if (!rd.ok || rd.pos != payload)
        return R(truncated("payload"));
    return R(std::move(state));
}

std::optional<common::Error>
saveCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const core::StagedState &state,
               const std::shared_ptr<image::TileStore> &tiles)
{
    auto encoded = encodeCheckpoint(config, state, tiles);
    if (!encoded.ok())
        return encoded.error();
    const std::string bytes = encoded.takeValue();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return common::Error{common::ErrorCode::Internal,
                                 "checkpoint: cannot open " + tmp};
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out)
            return common::Error{common::ErrorCode::Internal,
                                 "checkpoint: short write to " + tmp};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return common::Error{common::ErrorCode::Internal,
                             "checkpoint: rename to " + path +
                                 " failed"};
    return std::nullopt;
}

common::Result<core::StagedState>
loadCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const std::shared_ptr<image::TileStore> &tiles)
{
    using R = common::Result<core::StagedState>;
    if (!tiles)
        return R(noTileStore());
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return R::failure(common::ErrorCode::NotFound,
                          "checkpoint: no file at " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return decodeCheckpoint(bytes, config, tiles);
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace service
} // namespace hifi
