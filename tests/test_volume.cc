/**
 * @file
 * Tests for the out-of-core tiled volume subsystem: the
 * content-addressed TileStore (LRU, pinning, spill, corruption
 * taxonomy), TiledVolume3D vs the dense Volume3D (bitwise, at several
 * tile sizes), the streaming acquisition vs its collected form, the
 * post-process chain's dense and tiled sinks vs the serial reference
 * chain in postprocess_reference.hh (bitwise, at several thread counts
 * and window widths), and the memory-budgeted pipeline end to end.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/stages.hh"
#include "image/image2d.hh"
#include "image/noise.hh"
#include "image/tile_store.hh"
#include "image/tiled_volume.hh"
#include "image/volume3d.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

#include "postprocess_reference.hh"

namespace
{

using namespace hifi;
using common::ErrorCode;
using image::Image2D;
using image::TiledVolume3D;
using image::TileStore;
using image::TileStoreConfig;
using image::Volume3D;

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
        ("hifi_test_volume_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// Deterministic pseudo-random tile payload.
std::vector<float>
tileData(uint64_t seed, size_t n = 64)
{
    common::Rng rng(seed, 7);
    std::vector<float> v(n);
    for (float &f : v)
        f = static_cast<float>(rng.uniform());
    return v;
}

/// The drifting multi-material scene used by the robustness tests.
Volume3D
makeScene(size_t nx = 120, size_t ny = 48, size_t nz = 40)
{
    Volume3D vol(nx, ny, nz, 1.0f);
    for (size_t x = 0; x < nx; ++x) {
        const size_t s = x / 2;
        const size_t tri = s % 58 < 29 ? s % 58 : 58 - s % 58;
        const size_t bar_y = 4 + tri;
        for (size_t y = 0; y < ny; ++y)
            for (size_t z = 0; z < nz; ++z) {
                float v = 1.0f;
                if (z >= 12 && z < 16)
                    v = 0.0f;
                else if (z >= 22 && z < 26)
                    v = 2.0f;
                else if (z >= 16 && z < 22 && (y + 2000 - s) % 20 < 3)
                    v = 3.0f;
                if (z >= 30 && z < 34 && y >= bar_y && y < bar_y + 4)
                    v = 4.0f;
                vol.at(x, y, z) = v;
            }
    }
    return vol;
}

scope::FibSemParams
sceneParams()
{
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.3;
    params.maxDriftPx = 3;
    return params;
}

/// Faults tuned to exercise retry, interpolation and recovery.
scope::FaultParams
noisyFaults()
{
    scope::FaultParams faults;
    faults.enabled = true;
    faults.curtainingProbability = 0.12;
    faults.chargingProbability = 0.08;
    faults.focusLossProbability = 0.08;
    faults.dropoutProbability = 0.06;
    return faults;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
        0;
}

bool
bitwiseEqual(const Image2D &a, const Image2D &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
        bitwiseEqual(a.data(), b.data());
}

bool
bitwiseEqual(const Volume3D &a, const Volume3D &b)
{
    if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
        return false;
    const size_t n = a.nx() * a.ny() * a.nz();
    return std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

// ---- TileStore --------------------------------------------------------

TEST(TileStore, PutFetchRoundtripAndContentAddressing)
{
    TileStore store(TileStoreConfig{}); // memory-only, unbounded
    const auto data = tileData(1);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest.value(), TileStore::digestOf(data));

    // Content addressing: a duplicate put changes nothing.
    const auto again = store.put(data);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), digest.value());
    EXPECT_EQ(store.residentTiles(), 1u);

    auto ref = store.fetch(digest.value());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), data));
    EXPECT_EQ(ref.value().digest(), digest.value());
    EXPECT_EQ(store.stats().hits, 1u);

    // Unknown digest in a memory-only store: NotFound.
    auto missing = store.fetch(digest.value() ^ 1);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::NotFound);
}

TEST(TileStore, SpillsToDiskAndReloadsAfterDrop)
{
    TileStoreConfig cfg;
    cfg.dir = scratchDir("spill");
    TileStore store(std::move(cfg));

    const auto data = tileData(2);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    EXPECT_GT(store.stats().spilledBytes, data.size() * 4);

    store.dropResident();
    EXPECT_EQ(store.residentTiles(), 0u);
    EXPECT_TRUE(store.contains(digest.value())); // on disk

    auto ref = store.fetch(digest.value());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), data));
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(TileStore, LruEvictsColdTilesUnderBudget)
{
    const auto data = tileData(3, 256);
    const size_t tile_bytes = data.size() * sizeof(float);

    TileStoreConfig cfg;
    cfg.dir = scratchDir("lru");
    cfg.budgetBytes = 2 * tile_bytes;
    TileStore store(std::move(cfg));

    std::vector<uint64_t> digests;
    for (uint64_t s = 0; s < 4; ++s) {
        auto d = store.put(tileData(100 + s, 256));
        ASSERT_TRUE(d.ok());
        digests.push_back(d.value());
    }
    EXPECT_LE(store.residentBytes(), store.budgetBytes());
    EXPECT_GE(store.stats().evictions, 2u);

    // Evicted tiles reload transparently from the disk tier.
    auto ref = store.fetch(digests.front());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), tileData(100, 256)));
}

TEST(TileStore, MemoryOnlyStoreRefusesLossyEviction)
{
    const auto data = tileData(4, 256);
    TileStoreConfig cfg; // no dir
    cfg.budgetBytes = data.size() * sizeof(float);
    TileStore store(std::move(cfg));

    ASSERT_TRUE(store.put(data).ok());
    auto second = store.put(tileData(5, 256));
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::ResourceExhausted);
    // The failed insert rolled back; the first tile survived.
    EXPECT_EQ(store.residentTiles(), 1u);
}

TEST(TileStore, PinsBlockEvictionAndOverflowIsTyped)
{
    const auto data = tileData(6, 256);
    const size_t tile_bytes = data.size() * sizeof(float);

    TileStoreConfig cfg;
    cfg.dir = scratchDir("pins");
    cfg.budgetBytes = tile_bytes; // room for exactly one pinned tile
    TileStore store(std::move(cfg));

    const auto d1 = store.put(data);
    const auto d2 = store.put(tileData(7, 256));
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok());

    {
        auto pinned = store.fetch(d1.value());
        ASSERT_TRUE(pinned.ok());
        EXPECT_EQ(store.pinnedBytes(), tile_bytes);

        // A second pinned tile would exceed the budget: typed error,
        // and the first pin is untouched.
        auto overflow = store.fetch(d2.value());
        ASSERT_FALSE(overflow.ok());
        EXPECT_EQ(overflow.error().code,
                  ErrorCode::ResourceExhausted);
        EXPECT_EQ(store.pinnedBytes(), tile_bytes);
    }

    // Pin released: the same fetch now succeeds.
    EXPECT_EQ(store.pinnedBytes(), 0u);
    auto ok = store.fetch(d2.value());
    EXPECT_TRUE(ok.ok());
}

TEST(TileStore, CorruptTileFilesSurfaceAsDataLoss)
{
    const std::string dir = scratchDir("corrupt");
    TileStoreConfig cfg;
    cfg.dir = dir;
    TileStore store(std::move(cfg));

    const auto data = tileData(8);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.tile",
                  static_cast<unsigned long long>(digest.value()));
    const std::string path = dir + "/" + name;

    // Truncated file.
    store.dropResident();
    std::filesystem::resize_file(path, 16);
    auto truncated = store.fetch(digest.value());
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code, ErrorCode::DataLoss);

    // Bit flip in the payload: header parses, content digest fails.
    ASSERT_TRUE(store.put(data).ok()); // rewrite... still dedup-skipped?
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(24); // first payload byte (3 x u64 header)
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(24);
        byte = static_cast<char>(byte ^ 0x40);
        f.write(&byte, 1);
    }
    store.dropResident();
    auto flipped = store.fetch(digest.value());
    ASSERT_FALSE(flipped.ok());
    EXPECT_EQ(flipped.error().code, ErrorCode::DataLoss);

    // A valid tile renamed to the wrong digest: header digest check.
    const auto other = store.put(tileData(9));
    ASSERT_TRUE(other.ok());
    char othername[32];
    std::snprintf(othername, sizeof(othername), "%016llx.tile",
                  static_cast<unsigned long long>(other.value()));
    std::filesystem::copy_file(
        dir + "/" + othername, path,
        std::filesystem::copy_options::overwrite_existing);
    store.dropResident();
    auto misnamed = store.fetch(digest.value());
    ASSERT_FALSE(misnamed.ok());
    EXPECT_EQ(misnamed.error().code, ErrorCode::DataLoss);
}

// ---- TiledVolume3D ----------------------------------------------------

TEST(TiledVolume, DenseRoundTripIsBitwiseAtSeveralTileSizes)
{
    // Dims deliberately not multiples of any tile edge.
    Volume3D dense(37, 23, 11);
    common::Rng rng(11, 0);
    for (size_t i = 0; i < 37 * 23 * 11; ++i)
        dense.mutableData()[i] = static_cast<float>(rng.uniform());

    for (const size_t edge : {8u, 16u, 64u}) {
        TileStore store(TileStoreConfig{});
        auto tiled = TiledVolume3D::fromDense(dense, store, edge);
        ASSERT_TRUE(tiled.ok()) << "edge " << edge;
        auto back = tiled.value().toDense();
        ASSERT_TRUE(back.ok());
        EXPECT_TRUE(bitwiseEqual(back.value(), dense))
            << "tile edge " << edge;

        // Per-view reads match the dense views bitwise.
        for (const size_t x : {0u, 17u, 36u}) {
            auto cs = tiled.value().crossSection(x);
            ASSERT_TRUE(cs.ok());
            EXPECT_TRUE(
                bitwiseEqual(cs.value(), dense.crossSection(x)));
        }
        for (const size_t z : {0u, 7u, 10u}) {
            auto pv = tiled.value().planarView(z);
            ASSERT_TRUE(pv.ok());
            EXPECT_TRUE(
                bitwiseEqual(pv.value(), dense.planarView(z)));
        }
        auto slab = tiled.value().planarSlab(2, 9);
        ASSERT_TRUE(slab.ok());
        EXPECT_TRUE(
            bitwiseEqual(slab.value(), dense.planarSlab(2, 9)));
    }
}

TEST(TiledVolume, StreamedWritesMatchDenseUnderDirtyBudget)
{
    Volume3D dense(30, 19, 13);
    common::Rng rng(13, 1);
    for (size_t i = 0; i < 30 * 19 * 13; ++i)
        dense.mutableData()[i] = static_cast<float>(rng.uniform());

    // Resident budget of two 8^3 tiles, dirty budget of one: every
    // cross-section write churns seals and evictions, which must
    // neither change the content nor let the store outgrow its
    // budget.
    const size_t tile_bytes = 8 * 8 * 8 * sizeof(float);
    TileStoreConfig cfg;
    cfg.dir = scratchDir("streamwrite");
    cfg.budgetBytes = 2 * tile_bytes;
    TileStore store(std::move(cfg));

    auto made = TiledVolume3D::create(30, 19, 13, store, 8, tile_bytes);
    ASSERT_TRUE(made.ok());
    TiledVolume3D tiled = made.takeValue();
    for (size_t x = 0; x < 30; ++x) {
        ASSERT_FALSE(
            tiled.setCrossSection(x, dense.crossSection(x)));
        ASSERT_LE(store.residentBytes(), store.budgetBytes())
            << "after cross-section " << x;
    }
    ASSERT_FALSE(tiled.sealAll());
    EXPECT_GT(store.stats().evictions, 0u);

    auto back = tiled.toDense();
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(bitwiseEqual(back.value(), dense));

    // digests() round-trips through fromDigests.
    auto digests = tiled.digests();
    ASSERT_TRUE(digests.ok());
    auto relinked = TiledVolume3D::fromDigests(
        30, 19, 13, 8, digests.value(), store);
    ASSERT_TRUE(relinked.ok());
    auto again = relinked.value().toDense();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(bitwiseEqual(again.value(), dense));
}

TEST(TiledVolume, ZeroTilesCollapseToOneStoredTile)
{
    TileStore store(TileStoreConfig{});
    auto made = TiledVolume3D::create(20, 20, 20, store, 8);
    ASSERT_TRUE(made.ok());
    TiledVolume3D v = made.takeValue();
    auto digests = v.digests();
    ASSERT_TRUE(digests.ok());
    ASSERT_EQ(digests.value().size(), 27u);
    for (const uint64_t d : digests.value())
        EXPECT_EQ(d, digests.value().front());
    EXPECT_EQ(store.residentTiles(), 1u);
}

TEST(TiledVolume, TypedErrors)
{
    TileStore store(TileStoreConfig{});
    auto zero = TiledVolume3D::create(0, 4, 4, store);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.error().code, ErrorCode::InvalidArgument);

    auto made = TiledVolume3D::create(4, 4, 4, store, 4);
    ASSERT_TRUE(made.ok());
    TiledVolume3D v = made.takeValue();
    EXPECT_EQ(v.crossSection(4).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarView(7).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarSlab(2, 2).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.at(0, 0, 9).error().code,
              ErrorCode::InvalidArgument);

    auto short_list = TiledVolume3D::fromDigests(
        4, 4, 4, 4, std::vector<uint64_t>{1, 2}, store);
    ASSERT_FALSE(short_list.ok());
    EXPECT_EQ(short_list.error().code, ErrorCode::DataLoss);

    auto unknown = TiledVolume3D::fromDigests(
        4, 4, 4, 4, std::vector<uint64_t>{42}, store);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code, ErrorCode::DataLoss);

    // Corrupt dimensions meet the digest count before any slot table
    // is sized: a 2^60-tile grid is DataLoss, not an allocation.
    const size_t huge = size_t{1} << 22;
    auto giant = TiledVolume3D::fromDigests(
        huge, huge, huge, 4, std::vector<uint64_t>{42}, store);
    ASSERT_FALSE(giant.ok());
    EXPECT_EQ(giant.error().code, ErrorCode::DataLoss);
}

// ---- Volume3D typed validation ---------------------------------------

TEST(Volume3DChecked, ConstructionAndViewRangesAreTyped)
{
    auto zero = Volume3D::createChecked(0, 3, 3);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.error().code, ErrorCode::InvalidArgument);

    auto ok = Volume3D::createChecked(4, 3, 2, 0.5f);
    ASSERT_TRUE(ok.ok());
    const Volume3D &v = ok.value();

    EXPECT_TRUE(v.crossSectionChecked(3).ok());
    EXPECT_EQ(v.crossSectionChecked(4).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(v.planarViewChecked(1).ok());
    EXPECT_EQ(v.planarViewChecked(2).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(v.planarSlabChecked(0, 2).ok());
    EXPECT_EQ(v.planarSlabChecked(1, 1).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarSlabChecked(0, 3).error().code,
              ErrorCode::InvalidArgument);
}

// ---- Streaming acquisition -------------------------------------------

TEST(StreamingAcquire, MatchesCollectedAcquireBitwise)
{
    const auto vol = makeScene();
    const auto params = sceneParams();
    const auto faults = noisyFaults();
    scope::RecoveryParams recovery;

    const auto reference =
        scope::acquireRobust(vol, params, faults, recovery, 33);

    std::vector<scope::StreamedSlice> streamed;
    const auto stats = scope::acquireRobustStreamed(
        vol, params, faults, recovery, 33,
        [&](scope::StreamedSlice &&s) {
            streamed.push_back(std::move(s));
        });

    ASSERT_EQ(streamed.size(), reference.stack.slices.size());
    for (size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].index, i);
        EXPECT_TRUE(bitwiseEqual(streamed[i].frame,
                                 reference.stack.slices[i]))
            << "slice " << i;
        EXPECT_EQ(streamed[i].drift, reference.stack.trueDrift[i]);
    }
    EXPECT_EQ(stats.slicesRetried, reference.slicesRetried);
    EXPECT_EQ(stats.retries, reference.retries);
    EXPECT_EQ(stats.slicesInterpolated,
              reference.slicesInterpolated);
    EXPECT_EQ(stats.slicesUnrecoverable,
              reference.slicesUnrecoverable);
    EXPECT_EQ(stats.faultsInjected, reference.faultsInjected);
    EXPECT_EQ(stats.faultsDetected, reference.faultsDetected);
    EXPECT_EQ(stats.interpolatedSlices,
              reference.interpolatedSlices);
    EXPECT_DOUBLE_EQ(stats.qcConfidence, reference.qcConfidence);
    EXPECT_GT(stats.slicesInterpolated, 0u)
        << "scene/faults no longer exercise the interpolation path";
}

// ---- Serial reference chain ------------------------------------------

/// Noisy bars-and-block pattern for the reference-chain tests.
Image2D
referencePattern(size_t w, size_t h, uint64_t seed)
{
    Image2D img(w, h, 0.1f);
    for (size_t x = 6; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0, static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    img.fillRect(10, 12, 30, 26, 0.5f);
    common::Rng rng(seed);
    image::addGaussianNoise(img, 0.02, rng);
    return img;
}

TEST(ReferenceChain, AlignStackRecoversDriftWalk)
{
    const Image2D base = referencePattern(60, 50, 10);
    const std::vector<std::pair<long, long>> drift = {
        {0, 0}, {1, 0}, {2, 1}, {2, 2}, {1, 2}, {0, 1}};
    std::vector<Image2D> slices;
    for (const auto &d : drift)
        slices.push_back(base.shifted(d.first, d.second));

    const auto recovered = testref::alignStack(slices);
    EXPECT_NEAR(image::alignmentResidual(recovered, drift), 0.0, 0.5);
}

TEST(ReferenceChain, AlignStackIsThreadInvariant)
{
    const Image2D base = referencePattern(48, 40, 5);
    std::vector<Image2D> slices;
    for (const auto &d : std::vector<std::pair<long, long>>{
             {0, 0}, {1, 0}, {2, 1}, {1, 2}})
        slices.push_back(base.shifted(d.first, d.second));

    std::vector<std::vector<std::pair<long, long>>> runs;
    for (const size_t threads : {1u, 2u, 8u}) {
        common::ScopedThreads scoped(threads);
        runs.push_back(testref::alignStack(slices, {16, 4}));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(ReferenceChain, AssembleVolumeAppliesCorrections)
{
    Image2D a(6, 6, 0.0f);
    a.at(3, 3) = 1.0f;
    // Slice 1 drifted by (+1, +1); assembly with the recorded drift
    // must put the bright pixel back at (3, 3).
    const std::vector<Image2D> slices = {a, a.shifted(1, 1)};
    const auto vol = testref::assembleVolume(slices, {{0, 0}, {1, 1}});
    EXPECT_FLOAT_EQ(vol.at(0, 3, 3), 1.0f);
    EXPECT_FLOAT_EQ(vol.at(1, 3, 3), 1.0f);
}

// ---- Streaming post-processing ---------------------------------------

TEST(StreamingPostprocess, BitwiseIdenticalToSerialReference)
{
    const auto vol = makeScene();
    const auto robust = scope::acquireRobust(
        vol, sceneParams(), noisyFaults(), scope::RecoveryParams{},
        33);
    const size_t n = robust.stack.slices.size();

    // Window widths: one slice per drain, an odd width, the chain's
    // own width (0) and one wider than the whole stack.
    const size_t windows[] = {1, 5, 0, n + 7};
    // Tiled sink: 16^3 tiles with a two-tile dirty budget, so
    // assembly churns seal/reload.
    const size_t edge = 16;
    const size_t dirty = 2 * edge * edge * edge * sizeof(float);
    // The default parameters (32 bins) and the pipeline's own (16
    // bins, maxShift 6: core/stages.cc), which take the byte-plane
    // MI kernel.
    scope::PostprocessParams production;
    production.mi.bins = 16;
    production.mi.maxShift = 6;
    for (const scope::PostprocessParams &pp :
         {scope::PostprocessParams{}, production}) {
        const auto reference = testref::postprocess(robust.stack, pp);
        for (const bool tiled : {false, true}) {
            for (const size_t threads : {1u, 2u, 8u}) {
                for (const size_t window : windows) {
                    const std::string label =
                        std::string(tiled ? "tiled" : "dense") +
                        " bins=" + std::to_string(pp.mi.bins) +
                        " threads=" + std::to_string(threads) +
                        " window=" + std::to_string(window);
                    common::ScopedThreads scoped(threads);
                    std::optional<TileStore> store;
                    if (tiled) {
                        TileStoreConfig cfg;
                        cfg.dir = scratchDir(
                            "pp_" + std::to_string(threads) + "_" +
                            std::to_string(window));
                        store.emplace(std::move(cfg));
                    }
                    auto result = scope::postprocessChecked(
                        robust.stack, store ? &*store : nullptr, pp,
                        edge, dirty, window);
                    ASSERT_TRUE(result.ok()) << label;
                    const scope::PostprocessResult &r = result.value();
                    EXPECT_EQ(r.shifts, reference.shifts) << label;
                    EXPECT_EQ(r.alignmentResidualPx,
                              reference.alignmentResidualPx)
                        << label;
                    EXPECT_EQ(r.tiled.empty(), !tiled) << label;
                    EXPECT_EQ(r.volume.empty(), tiled) << label;
                    if (tiled) {
                        auto back = r.tiled.toDense();
                        ASSERT_TRUE(back.ok()) << label;
                        EXPECT_TRUE(bitwiseEqual(back.value(),
                                                 reference.volume))
                            << label;
                    } else {
                        EXPECT_TRUE(
                            bitwiseEqual(r.volume, reference.volume))
                            << label;
                    }
                }
            }
        }
    }
}

TEST(StreamingPostprocess, MismatchedSliceShapeIsTypedOnEverySink)
{
    for (const bool tiled : {false, true}) {
        std::optional<TileStore> store;
        if (tiled) {
            TileStoreConfig cfg;
            cfg.dir = scratchDir("pp_shape");
            store.emplace(std::move(cfg));
        }
        // Window of 2: the odd frame would reach registration and the
        // sink in the first drain if push let it through.
        scope::StreamingPostprocessor pp(
            3, store ? &*store : nullptr, {},
            TiledVolume3D::kDefaultTileEdge, 0, 2);
        ASSERT_FALSE(pp.push(Image2D(24, 20, 0.5f), std::nullopt));
        const auto err = pp.push(Image2D(24, 21, 0.5f), std::nullopt);
        ASSERT_TRUE(err.has_value()) << (tiled ? "tiled" : "dense");
        EXPECT_EQ(err->code, ErrorCode::InvalidArgument);

        // The rejected frame was not consumed: the chain still
        // finishes once the promised count of well-shaped frames
        // arrives.
        ASSERT_FALSE(pp.push(Image2D(24, 20, 0.5f), std::nullopt));
        ASSERT_FALSE(pp.push(Image2D(24, 20, 0.5f), std::nullopt));
        auto done = pp.finish();
        ASSERT_TRUE(done.ok());
        EXPECT_EQ(done.value().shifts.size(), 3u);
    }

    // The throwing dense wrapper keeps its invalid_argument contract.
    image::SliceStack ragged;
    ragged.slices = {Image2D(12, 10), Image2D(11, 10)};
    EXPECT_THROW(scope::postprocess(ragged), std::invalid_argument);
}

// ---- Memory-budgeted pipeline ----------------------------------------

TEST(MemoryBudget, BudgetedPipelineReportMatchesInRam)
{
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.faults.enabled = true;
    config.seed = 42;
    config.threads = 2;

    auto baseline = core::runPipelineChecked(config);
    ASSERT_TRUE(baseline.ok());

    core::PipelineConfig budgeted = config;
    budgeted.memoryBudget = 32ull << 20;
    budgeted.spillDir = scratchDir("budgeted");
    auto tiled = core::runPipelineChecked(budgeted);
    ASSERT_TRUE(tiled.ok());

    EXPECT_EQ(core::reportDigest(baseline.value()),
              core::reportDigest(tiled.value()));
}

TEST(MemoryBudget, ConfigValidationIsTyped)
{
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.seed = 1;

    config.memoryBudget = 1024; // below the floor
    auto small = core::runPipelineChecked(config);
    ASSERT_FALSE(small.ok());
    EXPECT_EQ(small.error().code, ErrorCode::InvalidArgument);

    config.memoryBudget = 0;
    config.spillDir = "/tmp/never-used"; // spill dir without budget
    auto orphan = core::runPipelineChecked(config);
    ASSERT_FALSE(orphan.ok());
    EXPECT_EQ(orphan.error().code, ErrorCode::InvalidArgument);
}

} // namespace
