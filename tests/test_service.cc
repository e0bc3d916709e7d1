/**
 * @file
 * Campaign service, staged pipeline and checkpoint tests.
 *
 * The contract under test is bit-identity: the staged pipeline, a
 * checkpoint/resume cycle (in-process, across chaos kills, or across
 * service restarts), the shared caches and any thread count must all
 * produce a report whose seed-pure digest equals the uninterrupted
 * monolithic run's.  On top of that: typed failure taxonomy for the
 * checkpoint codec, admission control / backpressure, cancellation,
 * the watchdog, deterministic seed namespaces, and a replay of the
 * fuzz regression corpus through the service path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/fuzz.hh"
#include "core/stages.hh"
#include "image/tiled_volume.hh"
#include "scope/fib.hh"
#include "service/campaign.hh"
#include "service/checkpoint.hh"

#ifndef HIFI_FUZZ_CORPUS
#define HIFI_FUZZ_CORPUS "tests/fuzz_corpus.txt"
#endif

namespace
{

using hifi::common::ErrorCode;
using hifi::core::PipelineConfig;
using hifi::core::Stage;
using hifi::core::StagedState;
using hifi::service::CampaignService;
using hifi::service::JobState;
using hifi::service::ServiceConfig;

/** Standard test job: small but exercises every stage. */
PipelineConfig
testConfig(uint64_t seed, size_t pairs = 2)
{
    PipelineConfig config;
    config.chipId = "B5";
    config.pairs = pairs;
    config.faults.enabled = true;
    config.seed = seed;
    config.threads = 2;
    return config;
}

/**
 * Digest of the uninterrupted direct run, memoized on the config
 * identity so every test comparing against "the monolith" pays for
 * the reference run once.
 */
uint64_t
directDigest(const PipelineConfig &config)
{
    static std::map<uint64_t, uint64_t> memo;
    static std::mutex mu;
    const uint64_t key = hifi::service::configDigest(config);
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
    }
    const auto run = hifi::core::runPipelineChecked(config);
    EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().message);
    const uint64_t digest =
        run.ok() ? hifi::core::reportDigest(run.value()) : 0;
    std::lock_guard<std::mutex> lock(mu);
    memo.emplace(key, digest);
    return digest;
}

/// Fresh (pre-cleaned) per-test scratch directory.
std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
        ("hifi_test_service_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// Run the staged pipeline to completion; returns the final digest.
uint64_t
runStagedToEnd(const PipelineConfig &config, StagedState &state)
{
    while (state.next != Stage::Done) {
        const auto err = hifi::core::runStage(config, state);
        EXPECT_FALSE(err) << (err ? err->message : "");
        if (err)
            return 0;
    }
    return hifi::core::reportDigest(state.report);
}

/// Tile store over `<dir>/tiles`, the layout the service keeps beside
/// its checkpoints.  A fresh instance over the same directory models
/// a restarted process that re-pins the tiles from disk.
std::shared_ptr<hifi::image::TileStore>
tileStore(const std::string &dir)
{
    hifi::image::TileStoreConfig tc;
    tc.dir = dir + "/tiles";
    return std::make_shared<hifi::image::TileStore>(std::move(tc));
}

/// Byte offsets in a checkpoint image: u64 magic, u32 version, u64
/// config digest, u32 stage cursor.
constexpr size_t kVersionOffset = 8;
constexpr size_t kCursorOffset = 20;

/// Recompute an edited image's trailing FNV-1a payload digest, so the
/// edit reaches the parser instead of the torn-file check.
void
reseal(std::string &image)
{
    const size_t payload = image.size() - sizeof(uint64_t);
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < payload; ++i) {
        h ^= static_cast<unsigned char>(image[i]);
        h *= 1099511628211ull;
    }
    std::memcpy(&image[payload], &h, sizeof(h));
}

/// Overwrite the field at `offset` with `value`, then reseal.
template <typename T>
void
patch(std::string &image, size_t offset, T value)
{
    std::memcpy(&image[offset], &value, sizeof(value));
    reseal(image);
}

/// Run `config` to completion, encoding a checkpoint image into
/// `tiles` at every boundary the service checkpoints at.
std::vector<std::string>
boundaryImages(const PipelineConfig &config,
               const std::shared_ptr<hifi::image::TileStore> &tiles)
{
    auto init = hifi::core::initStagedRun(config);
    if (!init.ok())
        return {};
    StagedState state = init.takeValue();
    std::vector<std::string> images;
    while (!hifi::core::runStage(config, state) &&
           state.next != Stage::Done) {
        auto image =
            hifi::service::encodeCheckpoint(config, state, tiles);
        if (!image.ok())
            return {};
        images.push_back(image.takeValue());
    }
    return images;
}

} // namespace

// ---------------------------------------------------------------
// Staged decomposition.
// ---------------------------------------------------------------

TEST(Stages, StagedRunMatchesMonolithAcrossThreadCounts)
{
    const PipelineConfig base = testConfig(42);
    const uint64_t reference = directDigest(base);
    ASSERT_NE(reference, 0u);

    for (size_t threads : {size_t{1}, size_t{8}}) {
        PipelineConfig config = base;
        config.threads = threads;
        auto init = hifi::core::initStagedRun(config);
        ASSERT_TRUE(init.ok()) << init.error().message;
        StagedState state = init.takeValue();
        // The cursor walks the stages in declared order.
        EXPECT_EQ(state.next, Stage::Fab);
        EXPECT_EQ(runStagedToEnd(config, state), reference)
            << "threads=" << threads;
        EXPECT_EQ(state.next, Stage::Done);
    }
}

TEST(Stages, RunStageOnDoneIsTypedError)
{
    const PipelineConfig config = testConfig(1);
    StagedState state;
    state.next = Stage::Done;
    const auto err = hifi::core::runStage(config, state);
    ASSERT_TRUE(err);
    EXPECT_EQ(err->code, ErrorCode::FailedPrecondition);
}

TEST(Stages, StageNamesAreStable)
{
    EXPECT_STREQ(hifi::core::stageName(Stage::Fab), "fab");
    EXPECT_STREQ(hifi::core::stageName(Stage::Acquire), "acquire");
    EXPECT_STREQ(hifi::core::stageName(Stage::Postprocess),
                 "postprocess");
    EXPECT_STREQ(hifi::core::stageName(Stage::Analyze), "analyze");
    EXPECT_STREQ(hifi::core::stageName(Stage::Finalize), "finalize");
}

// ---------------------------------------------------------------
// Checkpoint codec.
// ---------------------------------------------------------------

TEST(Checkpoint, TiledImagesResumeAtEveryStageBoundary)
{
    PipelineConfig config = testConfig(42);
    config.threads = 1;
    const std::string dir = scratchDir("tiled_codec");

    // Save a checkpoint at every boundary the service checkpoints at.
    auto tiles = tileStore(dir);
    auto init = hifi::core::initStagedRun(config);
    ASSERT_TRUE(init.ok());
    StagedState state = init.takeValue();
    std::vector<std::string> paths;
    uint64_t fabTileBytes = 0;
    while (state.next != Stage::Done) {
        ASSERT_FALSE(hifi::core::runStage(config, state));
        if (state.next != Stage::Done) {
            const std::string path = dir + "/boundary_" +
                std::to_string(paths.size()) + ".ckpt";
            ASSERT_FALSE(hifi::service::saveCheckpoint(
                path, config, state, tiles));
            paths.push_back(path);
            if (paths.size() == 1)
                fabTileBytes = tiles->stats().spilledBytes;
        }
    }
    const uint64_t reference = hifi::core::reportDigest(state.report);
    EXPECT_EQ(reference, directDigest(testConfig(42)));
    ASSERT_EQ(paths.size(), hifi::core::kNumStages - 1);

    // The voxels live in the store and the image holds digests, so
    // the image stays small at the bulky boundaries.  The footprint
    // shrinks once the bulky early artifacts are dropped: the
    // post-Fab checkpoint is its image plus the material tiles it
    // sealed, the post-Analyze one an image with no artifact at all.
    for (const std::string &path : paths)
        EXPECT_LT(std::filesystem::file_size(path), 1u << 20)
            << path;
    EXPECT_LT(std::filesystem::file_size(paths.back()),
              std::filesystem::file_size(paths.front()) + fabTileBytes);

    // Resume from every boundary with a FRESH store instance over the
    // same directory (a restarted process re-pins from disk), cycling
    // thread counts; the final report must be bitwise-identical.
    const size_t threadCycle[] = {1, 2, 8};
    for (size_t i = 0; i < paths.size(); ++i) {
        PipelineConfig resumed = config;
        resumed.threads = threadCycle[i % 3];
        auto loaded = hifi::service::loadCheckpoint(paths[i], resumed,
                                                    tileStore(dir));
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
        StagedState replay = loaded.takeValue();
        EXPECT_EQ(static_cast<size_t>(replay.next), i + 1);
        EXPECT_EQ(runStagedToEnd(resumed, replay), reference)
            << "boundary " << i << ", threads "
            << threadCycle[i % 3];
    }

    // Re-saving an unchanged artifact dedups against the store: no
    // new tile bytes are spilled.
    const uint64_t spilledBefore = tiles->stats().spilledBytes;
    auto reinit = hifi::core::initStagedRun(config);
    ASSERT_TRUE(reinit.ok());
    StagedState again = reinit.takeValue();
    ASSERT_FALSE(hifi::core::runStage(config, again)); // Fab
    ASSERT_FALSE(hifi::service::saveCheckpoint(
        dir + "/resave.ckpt", config, again, tiles));
    EXPECT_EQ(tiles->stats().spilledBytes, spilledBefore);
}

TEST(Checkpoint, TypedFailureTaxonomy)
{
    PipelineConfig config = testConfig(7, 1);
    config.threads = 1;
    const std::string dir = scratchDir("codec");
    const auto tiles = tileStore(dir);
    const std::vector<std::string> images =
        boundaryImages(config, tiles);
    ASSERT_EQ(images.size(), hifi::core::kNumStages - 1);
    const std::string &image = images.front(); // after Fab

    // Pristine image decodes.
    EXPECT_TRUE(
        hifi::service::decodeCheckpoint(image, config, tiles).ok());

    // Threads are operational, not identity: a different thread
    // count still accepts the checkpoint.
    PipelineConfig rethreaded = config;
    rethreaded.threads = 8;
    EXPECT_TRUE(
        hifi::service::decodeCheckpoint(image, rethreaded, tiles).ok());

    // A flipped payload byte is DataLoss.
    std::string corrupt = image;
    corrupt[corrupt.size() / 2] ^= 0x5a;
    auto bad = hifi::service::decodeCheckpoint(corrupt, config, tiles);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::DataLoss);

    // Truncation (torn write) is DataLoss.
    auto torn = hifi::service::decodeCheckpoint(
        image.substr(0, image.size() - 9), config, tiles);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.error().code, ErrorCode::DataLoss);

    // A result-affecting config change is FailedPrecondition.
    PipelineConfig reseeded = config;
    reseeded.seed = config.seed + 1;
    auto mismatch =
        hifi::service::decodeCheckpoint(image, reseeded, tiles);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.error().code, ErrorCode::FailedPrecondition);
    EXPECT_NE(hifi::service::configDigest(config),
              hifi::service::configDigest(reseeded));

    // A version-1 image (voxels inline, a retired format) is refused
    // up front, and the service restarts such a job from scratch.
    std::string v1 = image;
    patch(v1, kVersionOffset, uint32_t{1});
    auto retired = hifi::service::decodeCheckpoint(v1, config, tiles);
    ASSERT_FALSE(retired.ok());
    EXPECT_EQ(retired.error().code, ErrorCode::FailedPrecondition);

    // A tile grid whose edge is not the one every writer seals at is
    // DataLoss: the fetched tiles would be read with the wrong stride.
    // The grid ends the image: edge, count, digests, payload digest.
    auto analyze =
        hifi::service::decodeCheckpoint(images[2], config, tiles);
    ASSERT_TRUE(analyze.ok()) << analyze.error().message;
    const hifi::image::TiledVolume3D &grid =
        *analyze.value().processedTiled;
    const size_t edgeAt = images[2].size() -
        sizeof(uint64_t) *
            (grid.tilesX() * grid.tilesY() * grid.tilesZ() + 3);
    uint64_t edge = 0;
    std::memcpy(&edge, &images[2][edgeAt], sizeof(edge));
    ASSERT_EQ(edge, hifi::image::TiledVolume3D::kDefaultTileEdge);
    std::string skewed = images[2];
    patch(skewed, edgeAt, edge + 1);
    auto strided =
        hifi::service::decodeCheckpoint(skewed, config, tiles);
    ASSERT_FALSE(strided.ok());
    EXPECT_EQ(strided.error().code, ErrorCode::DataLoss);

    // File round trip: save atomically, load, re-encode byte-equal.
    const std::string path = dir + "/job.ckpt";
    auto fab = hifi::service::decodeCheckpoint(image, config, tiles);
    ASSERT_TRUE(fab.ok()) << fab.error().message;
    EXPECT_FALSE(
        hifi::service::saveCheckpoint(path, config, fab.value(), tiles));
    auto loaded = hifi::service::loadCheckpoint(path, config, tiles);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    auto reencoded =
        hifi::service::encodeCheckpoint(config, loaded.value(), tiles);
    ASSERT_TRUE(reencoded.ok()) << reencoded.error().message;
    EXPECT_EQ(reencoded.value(), image);

    // A stage cursor rewritten to any stage either still names the
    // artifact the image carries, and the state runs its next stage,
    // or it is DataLoss: never a state missing what the resumed stage
    // dereferences.
    for (size_t i = 0; i < images.size(); ++i) {
        for (uint32_t cursor = 0; cursor <= hifi::core::kNumStages;
             ++cursor) {
            std::string moved = images[i];
            patch(moved, kCursorOffset, cursor);
            auto decoded =
                hifi::service::decodeCheckpoint(moved, config, tiles);
            SCOPED_TRACE("boundary " + std::to_string(i) +
                         ", cursor " + std::to_string(cursor));
            if (!decoded.ok()) {
                EXPECT_EQ(decoded.error().code, ErrorCode::DataLoss)
                    << decoded.error().message;
                continue;
            }
            StagedState state = decoded.takeValue();
            const Stage next = state.next;
            EXPECT_EQ(state.materials != nullptr,
                      next == Stage::Acquire);
            EXPECT_EQ(state.stack != nullptr,
                      next == Stage::Postprocess);
            EXPECT_EQ(state.processedTiled != nullptr,
                      next == Stage::Analyze);
            if (next != Stage::Done) {
                EXPECT_FALSE(hifi::core::runStage(config, state));
            }
        }
    }

    // Every codec entry point refuses a null tile store up front
    // (FailedPrecondition), rather than crash or guess.
    const std::shared_ptr<hifi::image::TileStore> none;
    auto encNone =
        hifi::service::encodeCheckpoint(config, loaded.value(), none);
    ASSERT_FALSE(encNone.ok());
    EXPECT_EQ(encNone.error().code, ErrorCode::FailedPrecondition);
    auto decNone = hifi::service::decodeCheckpoint(image, config, none);
    ASSERT_FALSE(decNone.ok());
    EXPECT_EQ(decNone.error().code, ErrorCode::FailedPrecondition);
    const auto saveNone = hifi::service::saveCheckpoint(
        dir + "/none.ckpt", config, loaded.value(), none);
    ASSERT_TRUE(saveNone);
    EXPECT_EQ(saveNone->code, ErrorCode::FailedPrecondition);
    auto loadNone = hifi::service::loadCheckpoint(path, config, none);
    ASSERT_FALSE(loadNone.ok());
    EXPECT_EQ(loadNone.error().code, ErrorCode::FailedPrecondition);

    // So does the encoder for a state without its cursor's artifact.
    StagedState hollow;
    hollow.next = Stage::Postprocess;
    auto encHollow =
        hifi::service::encodeCheckpoint(config, hollow, tiles);
    ASSERT_FALSE(encHollow.ok());
    EXPECT_EQ(encHollow.error().code, ErrorCode::FailedPrecondition);

    // Removal yields NotFound, the "start from scratch" signal.
    hifi::service::removeCheckpoint(path);
    auto gone = hifi::service::loadCheckpoint(path, config, tiles);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.error().code, ErrorCode::NotFound);
}

TEST(Checkpoint, MutatedImagesFailTyped)
{
    // Single-bit flips anywhere before the trailing digest, which is
    // then recomputed so each flip reaches the parser.  Every trial
    // must decode and run to completion, or stop at a typed error; an
    // escaping exception or a crash fails the test.  A fault-free
    // one-pair job keeps the images small, so more flips land in the
    // structure rather than in report values, and the replays short.
    PipelineConfig config = testConfig(3, 1);
    config.faults.enabled = false;
    config.threads = 4;
    const auto tiles = tileStore(scratchDir("mutated"));
    const std::vector<std::string> images =
        boundaryImages(config, tiles);
    ASSERT_EQ(images.size(), hifi::core::kNumStages - 1);

    constexpr uint64_t kFlipsPerBoundary = 8;
    size_t decoded = 0, rejected = 0;
    for (size_t i = 0; i < images.size(); ++i) {
        hifi::common::Rng rng(0x5eed, i);
        const size_t bits = (images[i].size() - sizeof(uint64_t)) * 8;
        for (uint64_t t = 0; t < kFlipsPerBoundary; ++t) {
            const size_t bit = rng.below(bits);
            std::string image = images[i];
            image[bit / 8] ^= static_cast<char>(1u << (bit % 8));
            reseal(image);
            SCOPED_TRACE("boundary " + std::to_string(i) + ", bit " +
                         std::to_string(bit));
            auto state = hifi::service::decodeCheckpoint(image, config,
                                                         tiles);
            if (!state.ok()) {
                const ErrorCode code = state.error().code;
                EXPECT_TRUE(code == ErrorCode::DataLoss ||
                            code == ErrorCode::FailedPrecondition)
                    << state.error().message;
                ++rejected;
                continue;
            }
            ++decoded;
            StagedState replay = state.takeValue();
            while (replay.next != Stage::Done)
                if (hifi::core::runStage(config, replay))
                    break;
        }
    }
    // The fixed flip set reaches both outcomes.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Checkpoint, MissingOrCorruptTilesSurfaceAsDataLoss)
{
    PipelineConfig config = testConfig(11);
    config.threads = 1;
    const std::string dir = scratchDir("tiled_corrupt");
    const std::string tileDir = dir + "/tiles";

    // Checkpoint right after Postprocess: the image references the
    // processed volume's tiles.
    auto tiles = tileStore(dir);
    auto init = hifi::core::initStagedRun(config);
    ASSERT_TRUE(init.ok());
    StagedState state = init.takeValue();
    while (state.next != Stage::Analyze)
        ASSERT_FALSE(hifi::core::runStage(config, state));
    const std::string path = dir + "/job.ckpt";
    ASSERT_FALSE(
        hifi::service::saveCheckpoint(path, config, state, tiles));

    std::vector<std::filesystem::path> tileFiles;
    for (const auto &entry :
         std::filesystem::directory_iterator(tileDir))
        if (entry.path().extension() == ".tile")
            tileFiles.push_back(entry.path());
    ASSERT_FALSE(tileFiles.empty());

    // Baseline: an intact set of tiles loads and finishes.
    {
        auto loaded =
            hifi::service::loadCheckpoint(path, config, tileStore(dir));
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    }

    auto corruptedRunFails = [&](const char *what) {
        // The decode may defer tile reads, so the loss is allowed to
        // surface either at load or when the resumed stage touches
        // the tile — but it must be typed DataLoss, never a crash or
        // a silently wrong resume.
        auto loaded =
            hifi::service::loadCheckpoint(path, config, tileStore(dir));
        if (!loaded.ok()) {
            EXPECT_EQ(loaded.error().code, ErrorCode::DataLoss)
                << what << ": " << loaded.error().message;
            return;
        }
        StagedState replay = loaded.takeValue();
        std::optional<hifi::common::Error> err;
        while (replay.next != Stage::Done) {
            err = hifi::core::runStage(config, replay);
            if (err)
                break;
        }
        ASSERT_TRUE(err.has_value())
            << what << ": corrupted tile resumed silently";
        EXPECT_EQ(err->code, ErrorCode::DataLoss)
            << what << ": " << err->message;
    };

    const auto victim = tileFiles.front();
    std::vector<char> original;
    {
        std::ifstream in(victim, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), {});
    }

    // Truncated tile (torn write).
    std::filesystem::resize_file(victim, original.size() / 2);
    corruptedRunFails("truncated");

    // Bit flip in the payload.
    {
        std::vector<char> flipped = original;
        flipped[flipped.size() - 7] ^= 0x20;
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(flipped.data(),
                  static_cast<std::streamsize>(flipped.size()));
    }
    corruptedRunFails("bit-flipped");

    // Missing tile file.
    std::filesystem::remove(victim);
    corruptedRunFails("missing");

    // Restore the original bytes: the same checkpoint resumes again
    // (proves the failures above came from the injected damage).
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(original.data(),
                  static_cast<std::streamsize>(original.size()));
    }
    auto healed =
        hifi::service::loadCheckpoint(path, config, tileStore(dir));
    ASSERT_TRUE(healed.ok()) << healed.error().message;
    StagedState replay = healed.takeValue();
    EXPECT_EQ(runStagedToEnd(config, replay),
              directDigest(testConfig(11)));
}

// ---------------------------------------------------------------
// Campaign service.
// ---------------------------------------------------------------

TEST(Service, CompletesJobsAndSharesTheFabCache)
{
    ServiceConfig cfg;
    cfg.workers = 1; // serialize so the 2nd job sees the 1st's fab
    cfg.volumeCacheCapacity = 2;
    CampaignService service(cfg);

    const PipelineConfig job = testConfig(42);
    const auto a = service.submit("cache-a", job);
    const auto b = service.submit("cache-b", job);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    service.drain();

    const auto sa = service.status(a.value());
    const auto sb = service.status(b.value());
    ASSERT_EQ(sa.state, JobState::Completed);
    ASSERT_EQ(sb.state, JobState::Completed);

    const uint64_t reference = directDigest(job);
    EXPECT_EQ(sa.reportDigest, reference);
    EXPECT_EQ(sb.reportDigest, reference);

    // The first job ran all stages; the second was admitted to the
    // content-addressed volume cache and skipped Fab entirely.
    EXPECT_EQ(sa.stagesRun, hifi::core::kNumStages);
    EXPECT_EQ(sb.stagesRun, hifi::core::kNumStages - 1);

    // result() hands out the completed report.
    auto report = service.result(b.value());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(hifi::core::reportDigest(report.value()), reference);

    const std::string health = service.healthJson();
    EXPECT_NE(health.find("service.jobs.completed"),
              std::string::npos);
    EXPECT_NE(health.find("service.cache.volume.hit"),
              std::string::npos);
}

TEST(Service, ChaosKillAtEveryBoundaryResumesBitIdentical)
{
    // killProbability 1.0 crashes the job after every checkpoint, so
    // each attempt advances exactly one stage: the whole run is an
    // exact, deterministic tour of the recovery machinery.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.checkpointDir = scratchDir("chaos");
    cfg.chaos.enabled = true;
    cfg.chaos.killProbability = 1.0;
    cfg.retry.maxAttempts = hifi::core::kNumStages + 2;
    cfg.retry.backoffBaseMs = 0.1;
    CampaignService service(cfg);

    const PipelineConfig job = testConfig(42);
    const auto id = service.submit("chaos", job);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.wait(id.value(), 240.0));

    const auto st = service.status(id.value());
    ASSERT_EQ(st.state, JobState::Completed)
        << (st.error ? st.error->message : "");
    EXPECT_EQ(st.reportDigest, directDigest(job));
    EXPECT_EQ(st.attempts, hifi::core::kNumStages);
    EXPECT_EQ(st.stagesRun, hifi::core::kNumStages);
    EXPECT_EQ(st.chaosKills, hifi::core::kNumStages - 1);
    EXPECT_EQ(st.resumes, hifi::core::kNumStages - 1);
    EXPECT_EQ(st.checkpointsSaved, hifi::core::kNumStages - 1);
    EXPECT_FALSE(st.error);

    // The completed job removed its checkpoint.
    auto leftover = hifi::service::loadCheckpoint(
        cfg.checkpointDir + "/job-chaos.ckpt", job,
        tileStore(cfg.checkpointDir));
    EXPECT_FALSE(leftover.ok());
    EXPECT_EQ(leftover.error().code, ErrorCode::NotFound);
}

TEST(Service, ShutdownInterruptsAndARestartedServiceResumes)
{
    const std::string dir = scratchDir("restart");
    const PipelineConfig job = testConfig(42);
    const uint64_t reference = directDigest(job);

    // Phase 1: stop the service as soon as the job has checkpointed
    // once; the in-flight job parks as Interrupted.
    uint64_t interruptedStages = 0;
    {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.checkpointDir = dir;
        CampaignService service(cfg);
        const auto id = service.submit("restart", job);
        ASSERT_TRUE(id.ok());
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::seconds(120);
        while (service.status(id.value()).checkpointsSaved == 0) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "job never checkpointed";
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        service.shutdown();
        const auto st = service.status(id.value());
        ASSERT_EQ(st.state, JobState::Interrupted);
        EXPECT_GE(st.checkpointsSaved, 1u);
        interruptedStages = st.stagesRun;
    }

    // Phase 2: a fresh service on the same checkpoint directory picks
    // the job up where it stopped and finishes it bit-identically.
    {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.checkpointDir = dir;
        CampaignService service(cfg);
        const auto id = service.submit("restart", job);
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(service.wait(id.value(), 240.0));
        const auto st = service.status(id.value());
        ASSERT_EQ(st.state, JobState::Completed)
            << (st.error ? st.error->message : "");
        EXPECT_EQ(st.reportDigest, reference);
        EXPECT_GE(st.resumes, 1u);
        // Only the unfinished stages replay.
        EXPECT_EQ(st.stagesRun + interruptedStages,
                  hifi::core::kNumStages);
    }
}

TEST(Service, BackpressureAndAdmissionControl)
{
    const PipelineConfig job = testConfig(3, /*pairs=*/1);

    {
        // Queue-depth backpressure: depth 1 means one non-terminal
        // job saturates the service.
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.maxQueueDepth = 1;
        CampaignService service(cfg);
        const auto first = service.submit("bp-0", job);
        ASSERT_TRUE(first.ok());
        const auto second = service.submit("bp-1", job);
        ASSERT_FALSE(second.ok());
        EXPECT_EQ(second.error().code, ErrorCode::ResourceExhausted);
        service.cancel(first.value());
        service.drain();
    }

    const double costHours = hifi::scope::campaignCost(
        hifi::models::chip(job.chipId)).totalHours;
    {
        // Per-job cost ceiling.
        ServiceConfig cfg;
        cfg.maxJobHours = costHours * 0.5;
        CampaignService service(cfg);
        const auto rejected = service.submit("too-big", job);
        ASSERT_FALSE(rejected.ok());
        EXPECT_EQ(rejected.error().code,
                  ErrorCode::ResourceExhausted);
    }
    {
        // Summed queued-hours budget: the first job fits, the second
        // would exceed it.
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.maxQueuedHours = costHours * 1.5;
        CampaignService service(cfg);
        const auto first = service.submit("budget-0", job);
        ASSERT_TRUE(first.ok());
        const auto second = service.submit("budget-1", job);
        ASSERT_FALSE(second.ok());
        EXPECT_EQ(second.error().code, ErrorCode::ResourceExhausted);
        service.cancel(first.value());
        service.drain();
    }
    {
        // validateConfig failures pass through typed.
        ServiceConfig cfg;
        CampaignService service(cfg);
        PipelineConfig unknown = job;
        unknown.chipId = "no-such-chip";
        auto r = service.submit("bad-chip", unknown);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, ErrorCode::NotFound);
        PipelineConfig zero = job;
        zero.pairs = 0;
        r = service.submit("bad-pairs", zero);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
    }
}

TEST(Service, CancellationIsCooperativeAndTyped)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxQueueDepth = 4;
    CampaignService service(cfg);
    const PipelineConfig job = testConfig(5, /*pairs=*/1);

    const auto running = service.submit("cancel-running", job);
    const auto queued = service.submit("cancel-queued", job);
    ASSERT_TRUE(running.ok());
    ASSERT_TRUE(queued.ok());

    // The queued job cancels immediately; the running one at its
    // next stage boundary.  Both end Cancelled with a typed error.
    EXPECT_TRUE(service.cancel(queued.value()));
    EXPECT_TRUE(service.wait(queued.value(), 10.0));
    EXPECT_TRUE(service.cancel(running.value()));
    EXPECT_TRUE(service.wait(running.value(), 120.0));

    for (const uint64_t id : {queued.value(), running.value()}) {
        const auto st = service.status(id);
        EXPECT_EQ(st.state, JobState::Cancelled);
        ASSERT_TRUE(st.error);
        EXPECT_EQ(st.error->code, ErrorCode::Cancelled);
        // result() reports the cancellation, not a report.
        auto r = service.result(id);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, ErrorCode::Cancelled);
    }

    // Cancelling an unknown or already-terminal job is a no-op.
    EXPECT_FALSE(service.cancel(999999));
    EXPECT_FALSE(service.cancel(queued.value()));
}

TEST(Service, SeedNamespaceIsDeterministicAcrossInstances)
{
    const PipelineConfig job = testConfig(123, /*pairs=*/1);
    std::vector<std::vector<uint64_t>> seeds;
    for (int instance = 0; instance < 2; ++instance) {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.maxQueueDepth = 4;
        cfg.seedNamespace = 0xbeef;
        CampaignService service(cfg);
        std::vector<uint64_t> got;
        std::vector<uint64_t> ids;
        for (int i = 0; i < 2; ++i) {
            const auto id = service.submit(
                "ns-" + std::to_string(i), job);
            ASSERT_TRUE(id.ok());
            ids.push_back(id.value());
            got.push_back(service.status(id.value()).effectiveSeed);
        }
        for (const uint64_t id : ids)
            service.cancel(id);
        service.drain();
        seeds.push_back(std::move(got));
    }
    // Same namespace + submission index => same seed, on any
    // instance; distinct indices => decorrelated seeds.
    EXPECT_EQ(seeds[0], seeds[1]);
    EXPECT_NE(seeds[0][0], seeds[0][1]);
    EXPECT_EQ(seeds[0][0], hifi::common::Rng(0xbeef, 0).next());
    EXPECT_EQ(seeds[0][1], hifi::common::Rng(0xbeef, 1).next());
    // The namespace replaces the submitted seed.
    EXPECT_NE(seeds[0][0], job.seed);
}

TEST(Service, WatchdogDeadlineFailsTypedAfterRetries)
{
    // A deadline far below any stage's runtime: every attempt ends in
    // DeadlineExceeded (transient), the retry budget drains, and the
    // job fails typed — no hang, no exception.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.stageTimeoutSec = 1e-4;
    cfg.retry.maxAttempts = 2;
    cfg.retry.backoffBaseMs = 0.1;
    CampaignService service(cfg);

    const auto id =
        service.submit("overrun", testConfig(9, /*pairs=*/1));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.wait(id.value(), 240.0));

    const auto st = service.status(id.value());
    ASSERT_EQ(st.state, JobState::Failed);
    ASSERT_TRUE(st.error);
    EXPECT_EQ(st.error->code, ErrorCode::DeadlineExceeded);
    EXPECT_EQ(st.attempts, 2u);
    EXPECT_GE(st.timeouts, 2u);
}

TEST(Service, FuzzCorpusReplayMatchesDirectRun)
{
    // A sampled subset of the checked-in regression corpus must
    // produce the same outcome signature through the service as
    // through the direct pipeline entry point.
    std::ifstream in(HIFI_FUZZ_CORPUS);
    ASSERT_TRUE(in.is_open()) << "missing corpus " << HIFI_FUZZ_CORPUS;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    ASSERT_GE(lines.size(), 2u);

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.volumeCacheCapacity = 2;
    cfg.cleanFrameCacheCapacity = 8;
    CampaignService service(cfg);

    std::vector<std::pair<uint64_t, PipelineConfig>> submitted;
    for (const size_t pick : {size_t{0}, lines.size() / 2}) {
        auto parsed = hifi::core::parseScenario(lines[pick]);
        ASSERT_TRUE(parsed.ok()) << lines[pick];
        const auto &p = parsed.value();
        PipelineConfig pc;
        pc.chipId = p.chipId;
        pc.pairs = p.pairs;
        pc.stackedSas = p.stackedSas;
        pc.corner = p.corner;
        pc.defects.seed = p.seed;
        pc.defects.bitlineShorts = p.bitlineShorts;
        pc.defects.bitlineOpens = p.bitlineOpens;
        pc.defects.missingVias = p.missingVias;
        pc.defects.particles = p.particles;
        pc.faults.enabled = p.faults;
        pc.seed = p.seed;
        pc.threads = 2;
        const auto id = service.submit(
            "corpus-" + std::to_string(pick), pc);
        ASSERT_TRUE(id.ok()) << id.error().message;
        submitted.emplace_back(id.value(), pc);
    }
    service.drain();

    for (const auto &[id, pc] : submitted) {
        const auto st = service.status(id);
        ASSERT_EQ(st.state, JobState::Completed)
            << (st.error ? st.error->message : "");
        EXPECT_EQ(st.reportDigest, directDigest(pc))
            << "corpus job " << st.name;
    }
}

// ---------------------------------------------------------------
// Clean-frame cache (generalized LRU).
// ---------------------------------------------------------------

TEST(CleanFrameCache, LruEvictsLeastRecentAndReplaysExactly)
{
    hifi::scope::CleanFrameCache cache(2);
    size_t renders = 0;
    const auto render = [&renders](uint64_t key) {
        return [&renders, key]() {
            ++renders;
            return hifi::image::Image2D(
                2, 2, static_cast<float>(key));
        };
    };
    const auto fill = [](const hifi::image::Image2D &img) {
        return img.data().front();
    };

    EXPECT_EQ(fill(cache.fetch(1, render(1))), 1.0f); // miss
    EXPECT_EQ(fill(cache.fetch(2, render(2))), 2.0f); // miss
    EXPECT_EQ(renders, 2u);
    EXPECT_EQ(fill(cache.fetch(1, render(1))), 1.0f); // hit
    EXPECT_EQ(renders, 2u);
    EXPECT_EQ(fill(cache.fetch(3, render(3))), 3.0f); // evicts 2
    EXPECT_EQ(renders, 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(fill(cache.fetch(2, render(2))), 2.0f); // re-render
    EXPECT_EQ(renders, 4u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.capacity(), 2u);
}

TEST(CleanFrameCache, CapacityAndSharingNeverChangeTheAcquisition)
{
    // Any capacity >= 1, and shared vs private, must be invisible in
    // the output: the cache stores exact pure-function results.
    const size_t nx = 60, ny = 32, nz = 40;
    hifi::image::Volume3D vol(nx, ny, nz, 1.0f);
    for (size_t x = 0; x < nx; ++x)
        for (size_t y = 0; y < ny; ++y)
            for (size_t z = 0; z < nz; ++z) {
                float v = 1.0f;
                if (z >= 12 && z < 16)
                    v = 0.0f;
                else if (z >= 22 && z < 26)
                    v = 2.0f;
                else if (z >= 16 && z < 22 && (y + x / 2) % 10 < 2)
                    v = 3.0f;
                vol.at(x, y, z) = v;
            }

    hifi::scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.3;
    hifi::scope::FaultParams faults;
    faults = faults.scaled(2.0);
    faults.enabled = true;

    hifi::scope::RecoveryParams tiny;
    tiny.cleanCacheCapacity = 1;
    const hifi::scope::RecoveryParams roomy; // default capacity
    hifi::scope::CleanFrameCache shared(2);

    const auto a =
        hifi::scope::acquireRobust(vol, params, faults, tiny, 42);
    const auto b =
        hifi::scope::acquireRobust(vol, params, faults, roomy, 42);
    const auto c = hifi::scope::acquireRobust(
        vol, params, faults, roomy, 42, &shared, /*volumeKey=*/99);

    for (const auto *other : {&b, &c}) {
        EXPECT_EQ(a.retries, other->retries);
        EXPECT_EQ(a.interpolatedSlices, other->interpolatedSlices);
        EXPECT_EQ(a.qcConfidence, other->qcConfidence);
        ASSERT_EQ(a.stack.slices.size(), other->stack.slices.size());
        for (size_t s = 0; s < a.stack.slices.size(); ++s) {
            const auto &fa = a.stack.slices[s];
            const auto &fb = other->stack.slices[s];
            ASSERT_EQ(fa.size(), fb.size());
            EXPECT_EQ(std::memcmp(fa.data().data(),
                                  fb.data().data(),
                                  fa.size() * sizeof(float)),
                      0)
                << "slice " << s;
        }
    }
    // A one-entry cache over a retrying campaign must have cycled.
    EXPECT_GT(a.retries, 0u);

    // The capacity knob is validated.
    hifi::scope::RecoveryParams zero;
    zero.cleanCacheCapacity = 0;
    const auto err = hifi::scope::validate(zero);
    ASSERT_TRUE(err);
    EXPECT_EQ(err->code, ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------
// Typed-error sweep.
// ---------------------------------------------------------------

TEST(TypedErrors, CheckedPipelineRejectsHostileConfigsWithoutThrowing)
{
    struct Case
    {
        const char *what;
        PipelineConfig config;
        ErrorCode expected;
    };
    std::vector<Case> cases;
    {
        Case c{"unknown chip", testConfig(1), ErrorCode::NotFound};
        c.config.chipId = "ZZ99";
        cases.push_back(c);
    }
    {
        Case c{"zero pairs", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.pairs = 0;
        cases.push_back(c);
    }
    {
        Case c{"zero stacked SAs", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.stackedSas = 0;
        cases.push_back(c);
    }
    {
        Case c{"drift probability out of range", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.driftProbability = 1.5;
        cases.push_back(c);
    }
    {
        Case c{"detector override out of range", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.detectorOverride = 7;
        cases.push_back(c);
    }
    {
        Case c{"corner out of range", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.corner = static_cast<hifi::models::ProcessCorner>(99);
        cases.push_back(c);
    }
    {
        Case c{"infeasible defect mix", testConfig(1),
               ErrorCode::FailedPrecondition};
        c.config.pairs = 1;
        c.config.defects.bitlineShorts = 5;
        cases.push_back(c);
    }
    {
        Case c{"zero clean-cache capacity", testConfig(1),
               ErrorCode::InvalidArgument};
        c.config.recovery.cleanCacheCapacity = 0;
        cases.push_back(c);
    }
    for (const auto &c : cases) {
        std::optional<hifi::common::Result<hifi::core::PipelineReport>>
            r;
        EXPECT_NO_THROW(
            r.emplace(hifi::core::runPipelineChecked(c.config)))
            << c.what;
        ASSERT_TRUE(r.has_value()) << c.what;
        ASSERT_FALSE(r->ok()) << c.what;
        EXPECT_EQ(r->error().code, c.expected) << c.what;
    }
}

TEST(TypedErrors, TransiencyClassification)
{
    using hifi::common::isTransient;
    EXPECT_TRUE(isTransient(ErrorCode::Internal));
    EXPECT_TRUE(isTransient(ErrorCode::DataLoss));
    EXPECT_TRUE(isTransient(ErrorCode::DeadlineExceeded));
    EXPECT_FALSE(isTransient(ErrorCode::InvalidArgument));
    EXPECT_FALSE(isTransient(ErrorCode::NotFound));
    EXPECT_FALSE(isTransient(ErrorCode::FailedPrecondition));
    EXPECT_FALSE(isTransient(ErrorCode::ResourceExhausted));
    EXPECT_FALSE(isTransient(ErrorCode::Cancelled));
}
