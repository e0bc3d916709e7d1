/**
 * @file
 * Tests for the image substrate: containers, noise, TV denoising, and
 * mutual-information registration.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "image/denoise.hh"
#include "image/image2d.hh"
#include "image/noise.hh"
#include "image/pgm.hh"
#include "image/qc.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"

#include "mi_reference.hh"
#include "qc_reference.hh"

namespace
{

using namespace hifi;
using common::Rng;
using image::Image2D;
using image::Volume3D;

/// A synthetic structured test image: bars and a block.
Image2D
testPattern(size_t w = 48, size_t h = 40)
{
    Image2D img(w, h, 0.1f);
    for (size_t x = 6; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0, static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    img.fillRect(10, 12, 30, 26, 0.5f);
    return img;
}

TEST(Image2D, BasicAccessors)
{
    Image2D img(8, 4, 0.25f);
    EXPECT_EQ(img.width(), 8u);
    EXPECT_EQ(img.height(), 4u);
    EXPECT_EQ(img.size(), 32u);
    img.at(3, 2) = 1.0f;
    EXPECT_FLOAT_EQ(img.at(3, 2), 1.0f);
    EXPECT_FLOAT_EQ(img.minValue(), 0.25f);
    EXPECT_FLOAT_EQ(img.maxValue(), 1.0f);
    EXPECT_THROW(Image2D(0, 4), std::invalid_argument);
}

TEST(Image2D, ClampedAtEdges)
{
    Image2D img(4, 4, 0.0f);
    img.at(0, 0) = 1.0f;
    img.at(3, 3) = 2.0f;
    EXPECT_FLOAT_EQ(img.clampedAt(-5, -5), 1.0f);
    EXPECT_FLOAT_EQ(img.clampedAt(10, 10), 2.0f);
}

TEST(Image2D, FillRectClips)
{
    Image2D img(10, 10, 0.0f);
    img.fillRect(-5, -5, 3, 3, 1.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(img.at(2, 2), 1.0f);
    EXPECT_FLOAT_EQ(img.at(3, 3), 0.0f);
}

TEST(Image2D, MseAndPsnr)
{
    Image2D a(4, 4, 0.0f), b(4, 4, 0.5f);
    EXPECT_DOUBLE_EQ(a.mse(b), 0.25);
    EXPECT_NEAR(a.psnr(b), 10.0 * std::log10(4.0), 1e-9);
    EXPECT_GT(a.psnr(a), 1e8);
    Image2D c(5, 4);
    EXPECT_THROW(a.mse(c), std::invalid_argument);
}

TEST(Image2D, ShiftMovesContent)
{
    Image2D img(8, 8, 0.0f);
    img.at(2, 3) = 1.0f;
    Image2D s = img.shifted(3, 2);
    EXPECT_FLOAT_EQ(s.at(5, 5), 1.0f);
    EXPECT_FLOAT_EQ(s.at(2, 3), 0.0f);
}

TEST(Image2D, CropExtractsWindow)
{
    Image2D img = testPattern();
    Image2D c = img.crop(10, 12, 30, 26);
    EXPECT_EQ(c.width(), 20u);
    EXPECT_EQ(c.height(), 14u);
    EXPECT_FLOAT_EQ(c.at(0, 0), img.at(10, 12));
    EXPECT_THROW(img.crop(10, 10, 5, 20), std::invalid_argument);
}

TEST(Image2D, TotalVariationOfFlatIsZero)
{
    Image2D flat(16, 16, 0.7f);
    EXPECT_DOUBLE_EQ(flat.totalVariation(), 0.0);
    Image2D step(2, 1, 0.0f);
    step.at(1, 0) = 1.0f;
    EXPECT_DOUBLE_EQ(step.totalVariation(), 1.0);
}

TEST(Volume3D, SliceRoundTrip)
{
    Volume3D vol(5, 4, 3, 0.0f);
    Image2D xs(4, 3, 0.0f);
    xs.at(1, 2) = 0.9f;
    vol.setCrossSection(2, xs);
    EXPECT_FLOAT_EQ(vol.at(2, 1, 2), 0.9f);
    Image2D back = vol.crossSection(2);
    EXPECT_FLOAT_EQ(back.at(1, 2), 0.9f);
    EXPECT_THROW(vol.crossSection(9), std::out_of_range);
}

TEST(Volume3D, PlanarViewAndSlab)
{
    Volume3D vol(4, 4, 4, 0.0f);
    vol.at(1, 2, 0) = 0.4f;
    vol.at(1, 2, 1) = 0.8f;
    EXPECT_FLOAT_EQ(vol.planarView(1).at(1, 2), 0.8f);
    EXPECT_NEAR(vol.planarSlab(0, 2).at(1, 2), 0.6f, 1e-6);
    EXPECT_THROW(vol.planarSlab(3, 3), std::invalid_argument);
}

TEST(Noise, ShotNoiseIsUnbiased)
{
    Rng rng(3);
    Image2D img(64, 64, 0.5f);
    image::addShotNoise(img, 2000.0, rng);
    EXPECT_NEAR(img.meanValue(), 0.5f, 0.005);
    EXPECT_GT(img.maxValue(), 0.5f); // noise actually applied
    EXPECT_THROW(image::addShotNoise(img, 0.0, rng),
                 std::invalid_argument);
}

TEST(Noise, MoreDwellMeansHigherSnr)
{
    // The paper doubles dwell (3 us -> 6 us) for hard samples; SNR
    // should rise accordingly.
    Rng rng(4);
    const Image2D clean = testPattern();

    Image2D low = clean;
    image::addShotNoise(low, 900.0, rng);
    Image2D high = clean;
    image::addShotNoise(high, 1800.0, rng);
    EXPECT_GT(image::snr(high, clean), image::snr(low, clean));
}

TEST(Noise, GaussianSigmaScales)
{
    Rng rng(5);
    Image2D a = testPattern();
    image::addGaussianNoise(a, 0.02, rng);
    Image2D b = testPattern();
    image::addGaussianNoise(b, 0.2, rng);
    const Image2D clean = testPattern();
    EXPECT_LT(a.mse(clean), b.mse(clean));
}

class DenoiserTest : public ::testing::TestWithParam<int>
{
  protected:
    Image2D
    denoise(const Image2D &img, const image::TvParams &tv) const
    {
        return GetParam() == 0 ? image::denoiseChambolle(img, tv)
                               : image::denoiseSplitBregman(img, tv);
    }
};

TEST_P(DenoiserTest, ReducesNoiseMse)
{
    Rng rng(6);
    const Image2D clean = testPattern();
    Image2D noisy = clean;
    image::addShotNoise(noisy, 900.0, rng);
    image::addGaussianNoise(noisy, 0.05, rng);

    const Image2D out = denoise(noisy, {0.05, 40});
    EXPECT_LT(out.mse(clean), 0.5 * noisy.mse(clean));
}

TEST_P(DenoiserTest, ReducesTotalVariation)
{
    Rng rng(7);
    Image2D noisy = testPattern();
    image::addGaussianNoise(noisy, 0.08, rng);
    const Image2D out = denoise(noisy, {0.05, 40});
    EXPECT_LT(out.totalVariation(), noisy.totalVariation());
}

TEST_P(DenoiserTest, PreservesEdges)
{
    // After denoising, a strong edge must remain steep: the contrast
    // across the bar boundary stays above 60% of the original.
    Rng rng(8);
    const Image2D clean = testPattern();
    Image2D noisy = clean;
    image::addGaussianNoise(noisy, 0.05, rng);
    const Image2D out = denoise(noisy, {0.05, 40});

    const double edge = out.at(8, 20) - out.at(4, 20);
    EXPECT_GT(edge, 0.6 * (clean.at(8, 20) - clean.at(4, 20)));
}

TEST_P(DenoiserTest, RejectsEmptyImage)
{
    Image2D empty;
    EXPECT_THROW(denoise(empty, {0.05, 10}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(BothAlgos, DenoiserTest,
                         ::testing::Values(0, 1),
                         [](const auto &info) {
                             return info.param == 0 ? "Chambolle"
                                                    : "SplitBregman";
                         });

TEST(Registration, MutualInformationSelfIsMax)
{
    const Image2D img = testPattern();
    const double self = image::mutualInformation(img, img);
    const double shifted =
        image::mutualInformation(img, img.shifted(3, 0));
    EXPECT_GT(self, shifted);
    EXPECT_THROW(image::mutualInformation(img, Image2D(3, 3)),
                 std::invalid_argument);
}

TEST(Registration, RecoversKnownShift)
{
    Rng rng(9);
    Image2D fixed = testPattern(60, 50);
    image::addGaussianNoise(fixed, 0.03, rng);
    // moving = fixed displaced by (+3, -2): registration must report
    // the corrective (-3, +2).
    Image2D moving = fixed.shifted(3, -2);

    const auto shift = image::registerShiftMi(fixed, moving);
    EXPECT_EQ(shift.first, -3);
    EXPECT_EQ(shift.second, 2);
}

TEST(Registration, ResidualDetectsMisalignment)
{
    const std::vector<std::pair<long, long>> truth = {
        {0, 0}, {1, 1}, {2, 2}};
    const std::vector<std::pair<long, long>> bad = {
        {0, 0}, {-1, -1}, {-2, -2}};
    EXPECT_GT(image::alignmentResidual(bad, truth), 2.0);
    EXPECT_DOUBLE_EQ(image::alignmentResidual(truth, truth), 0.0);
}

TEST(Pgm, RoundTripPreservesStructure)
{
    const Image2D img = testPattern(24, 16);
    const std::string path = "/tmp/hifi_test.pgm";
    image::writePgm(path, img, 0.0f, 1.0f);
    const Image2D back = image::readPgm(path);
    ASSERT_EQ(back.width(), img.width());
    ASSERT_EQ(back.height(), img.height());
    EXPECT_LT(back.mse(img), 1e-4); // 8-bit quantization only
}

TEST(Pgm, AutoRangeNormalizes)
{
    Image2D img(4, 4, 5.0f);
    img.at(0, 0) = 7.0f;
    image::writePgm("/tmp/hifi_test2.pgm", img);
    const Image2D back = image::readPgm("/tmp/hifi_test2.pgm");
    EXPECT_NEAR(back.at(0, 0), 1.0f, 0.01);
    EXPECT_NEAR(back.at(1, 1), 0.0f, 0.01);
}

TEST(Pgm, Errors)
{
    Image2D img(4, 4, 0.5f);
    EXPECT_THROW(image::writePgm("/nonexistent/x.pgm", img),
                 std::runtime_error);
    EXPECT_THROW(image::readPgm("/nonexistent/x.pgm"),
                 std::runtime_error);
    EXPECT_THROW(image::writePgm("/tmp/x.pgm", Image2D()),
                 std::invalid_argument);
}

// ---- Fast-path equivalence (quantized MI, tie-break, tolerance) ----

/// Bit-level double comparison: the fast paths promise *bitwise*
/// identity, which EXPECT_DOUBLE_EQ (ULP-based) would not catch.
void
expectSameBits(double a, double b, const std::string &what)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

/// Noisy structured image of the given shape (degenerate shapes ok).
Image2D
noisyImage(size_t w, size_t h, uint64_t seed)
{
    Rng rng(seed);
    Image2D img(w, h);
    for (float &v : img.data())
        v = static_cast<float>(rng.uniform());
    return img;
}

TEST(Registration, QuantizedMiIsBitwiseIdenticalToReference)
{
    // Every size class the QC / alignment paths can produce,
    // including the 1xN / Nx1 degenerate overlaps.
    const std::pair<size_t, size_t> sizes[] = {
        {1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 5}, {17, 13}, {48, 40}};
    for (const auto &[w, h] : sizes) {
        const Image2D a = noisyImage(w, h, 100 + w * 31 + h);
        const Image2D b = noisyImage(w, h, 200 + w * 31 + h);
        const long max_dx = static_cast<long>(w) + 1;
        const long max_dy = static_cast<long>(h) + 1;
        for (long dy = -max_dy; dy <= max_dy; ++dy) {
            for (long dx = -max_dx; dx <= max_dx; ++dx) {
                for (const size_t bins : {2u, 15u, 16u, 17u, 32u}) {
                    const double fast = image::mutualInformationAtShift(
                        a, b, dx, dy, bins);
                    const double ref =
                        testref::mutualInformationAtShiftReference(
                            a, b, dx, dy, bins);
                    expectSameBits(
                        fast, ref,
                        std::to_string(w) + "x" + std::to_string(h) +
                            " shift (" + std::to_string(dx) + "," +
                            std::to_string(dy) + ") bins " +
                            std::to_string(bins));
                }
            }
        }
    }
}

TEST(Registration, FastSearchMatchesReferenceSearch)
{
    Rng rng(31);
    Image2D fixed = testPattern(60, 50);
    image::addGaussianNoise(fixed, 0.05, rng);
    Image2D moving = fixed.shifted(4, -3);
    image::addGaussianNoise(moving, 0.05, rng);

    for (const long span : {2l, 6l, 9l}) {
        image::MiParams mi;
        mi.maxShift = span;
        const auto fast = image::registerShiftMi(fixed, moving, mi);
        const auto ref =
            testref::registerShiftMiReference(fixed, moving, mi);
        EXPECT_EQ(fast, ref) << "maxShift " << span;
    }
}

TEST(Registration, ChainMatchesPairwiseReference)
{
    // A drifting run of noisy frames, registered as one chain with and
    // without an anchor, at several thread counts and at both plane
    // widths (byte planes at 16 bins, uint16 indices at 32).
    Rng rng(57);
    const Image2D base = testPattern(60, 50);
    const Image2D anchor = base.shifted(1, 0);
    std::vector<Image2D> slices;
    for (long i = 0; i < 5; ++i) {
        Image2D s = base.shifted(i % 3 - 1, 2 - i);
        image::addGaussianNoise(s, 0.05, rng);
        slices.push_back(std::move(s));
    }
    for (const size_t bins : {16u, 32u}) {
        const image::MiParams mi{bins, 4};
        std::vector<std::pair<long, long>> anchored, unanchored;
        anchored.push_back(
            testref::registerShiftMiReference(anchor, slices[0], mi));
        unanchored.emplace_back(0, 0);
        for (size_t i = 1; i < slices.size(); ++i) {
            const auto ref = testref::registerShiftMiReference(
                slices[i - 1], slices[i], mi);
            anchored.push_back(ref);
            unanchored.push_back(ref);
        }
        for (const size_t threads : {1u, 3u, 8u}) {
            common::ScopedThreads scoped(threads);
            const std::string label = "bins " + std::to_string(bins) +
                " threads " + std::to_string(threads);
            EXPECT_EQ(image::registerShiftMiChain(&anchor, slices, mi),
                      anchored)
                << label;
            EXPECT_EQ(image::registerShiftMiChain(nullptr, slices, mi),
                      unanchored)
                << label;
        }
    }
    EXPECT_TRUE(image::registerShiftMiChain(&anchor, {}, {}).empty());
    EXPECT_THROW(
        image::registerShiftMiChain(&anchor, {Image2D(5, 5)}, {}),
        std::invalid_argument);
}

TEST(Registration, QuantizePlaneMatchesReferenceBinning)
{
    const Image2D img = noisyImage(13, 9, 5);
    const auto q = image::quantizePlane(img, 32);
    ASSERT_EQ(q.idx.size(), img.size());
    EXPECT_TRUE(q.fixedBytes.empty());
    // At 16 bins the plane is two bytes per pixel instead: idx * bins
    // and idx, the same bin assignment.
    const auto b = image::quantizePlane(img, 16);
    ASSERT_EQ(b.movingBytes.size(), img.size());
    ASSERT_EQ(b.fixedBytes.size(), img.size());
    EXPECT_TRUE(b.idx.empty());
    for (size_t i = 0; i < img.size(); ++i)
        EXPECT_EQ(b.fixedBytes[i], b.movingBytes[i] * 16u);
    EXPECT_EQ(image::quantizePlane(img, 17).idx.size(), img.size());
    // Self-MI through the plane must equal the reference self-MI:
    // only possible if every pixel landed in the reference's bin.
    expectSameBits(
        image::mutualInformationAtShift(img, img, 0, 0, 32),
        testref::mutualInformationAtShiftReference(img, img, 0, 0, 32),
        "self MI through quantized plane");
    EXPECT_THROW(image::quantizePlane(img, 1), std::invalid_argument);
    EXPECT_THROW(image::quantizePlane(img, 70000),
                 std::invalid_argument);
}

TEST(Registration, ConstantImagesTieBreakToZeroShift)
{
    // Every candidate scores identically on featureless frames (the
    // dropout-fault case); the documented tie-break must pick (0, 0),
    // not the most-negative corner of the search window.
    const Image2D flat_a(20, 16, 0.5f);
    const Image2D flat_b(20, 16, 0.5f);
    const auto shift = image::registerShiftMi(flat_a, flat_b);
    EXPECT_EQ(shift, (std::pair<long, long>{0, 0}));
    const auto ref =
        testref::registerShiftMiReference(flat_a, flat_b);
    EXPECT_EQ(ref, (std::pair<long, long>{0, 0}));
}

TEST(Registration, TelemetryCountsCandidateEvaluations)
{
    const Image2D fixed = testPattern(64, 48);
    const Image2D moving = fixed.shifted(2, -1);

    const auto evals = [](const auto &run) -> uint64_t {
        telemetry::Session session;
        run();
        const auto collected = session.finish({});
        const auto &counters = collected->metrics.counters;
        const auto it = counters.find("mi.exhaustive.evals");
        return it == counters.end() ? 0 : it->second;
    };
    image::MiParams mi;
    mi.maxShift = 4;
    // Exhaustive at maxShift 4 scores the full (2*4+1)^2 window.
    EXPECT_EQ(evals([&] { (void)image::registerShiftMi(fixed, moving, mi); }),
              81u);
    // A chain scores the full window once per pair: three slices
    // after an anchor are three pairs, without one they are two.
    const std::vector<Image2D> slices = {moving, fixed, moving};
    EXPECT_EQ(evals([&] {
                  (void)image::registerShiftMiChain(&fixed, slices, mi);
              }),
              3u * 81u);
    EXPECT_EQ(evals([&] {
                  (void)image::registerShiftMiChain(nullptr, slices, mi);
              }),
              2u * 81u);
}

TEST(Denoise, TinyToleranceIsBitwiseIdenticalToFixedIterations)
{
    Rng rng(41);
    Image2D noisy = testPattern();
    image::addGaussianNoise(noisy, 0.08, rng);

    image::TvParams fixed_iters{0.05, 30};
    image::TvParams tracked = fixed_iters;
    tracked.tolerance = 1e-300; // tracking on, exit never taken

    for (const bool bregman : {false, true}) {
        const Image2D a = bregman
            ? image::denoiseSplitBregman(noisy, fixed_iters)
            : image::denoiseChambolle(noisy, fixed_iters);
        const Image2D b = bregman
            ? image::denoiseSplitBregman(noisy, tracked)
            : image::denoiseChambolle(noisy, tracked);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                              a.size() * sizeof(float)),
                  0)
            << (bregman ? "split-bregman" : "chambolle");
    }
}

TEST(Denoise, LargeToleranceStopsAfterOneIteration)
{
    Rng rng(43);
    Image2D noisy = testPattern();
    image::addGaussianNoise(noisy, 0.08, rng);

    image::TvParams one_iter{0.05, 1};
    image::TvParams early{0.05, 50};
    early.tolerance = 1e9; // every update is below this

    for (const bool bregman : {false, true}) {
        const Image2D a = bregman
            ? image::denoiseSplitBregman(noisy, one_iter)
            : image::denoiseChambolle(noisy, one_iter);
        const Image2D b = bregman
            ? image::denoiseSplitBregman(noisy, early)
            : image::denoiseChambolle(noisy, early);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                              a.size() * sizeof(float)),
                  0)
            << (bregman ? "split-bregman" : "chambolle");
    }
}

TEST(Denoise, DegenerateShapesSurviveTheLoopSplits)
{
    // 1xN / Nx1 / tiny images exercise every peeled boundary case of
    // the branch-free interior loops.
    const std::pair<size_t, size_t> sizes[] = {
        {1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 3}};
    for (const auto &[w, h] : sizes) {
        const Image2D img = noisyImage(w, h, 300 + w * 13 + h);
        const image::TvParams tv{0.1, 5};
        const Image2D c = image::denoiseChambolle(img, tv);
        const Image2D b = image::denoiseSplitBregman(img, tv);
        EXPECT_EQ(c.width(), w);
        EXPECT_EQ(b.height(), h);
        for (const float v : c.data())
            EXPECT_TRUE(std::isfinite(v));
        for (const float v : b.data())
            EXPECT_TRUE(std::isfinite(v));
    }
}

// ---- QC on degenerate slices ------------------------------------------

bool
allMetricsFinite(const image::QcMetrics &m)
{
    return std::isfinite(m.snr) && std::isfinite(m.focusScore) &&
        std::isfinite(m.saturationFraction) &&
        std::isfinite(m.deadRowFraction) &&
        std::isfinite(m.stripeScore) && std::isfinite(m.miVsPrev);
}

TEST(Qc, ZeroVarianceSliceYieldsFiniteMetrics)
{
    // A single-material frame (constant intensity) has zero scene
    // variance and zero noise sigma: both SNR numerator and
    // denominator are degenerate.  The metrics must stay finite and
    // the dead-row detector must fire instead of dividing by zero.
    const Image2D flat(64, 48, 0.37f);
    const auto m = image::computeQcMetrics(flat);
    EXPECT_TRUE(allMetricsFinite(m));
    EXPECT_DOUBLE_EQ(m.deadRowFraction, 1.0);
    EXPECT_TRUE(m.flags & image::kQcDeadRows);
    EXPECT_DOUBLE_EQ(m.saturationFraction, 0.0);
}

TEST(Qc, FullySaturatedSliceIsFlaggedWithFiniteMetrics)
{
    image::QcThresholds t;
    const Image2D bloom(
        64, 48, static_cast<float>(t.saturationLevel) + 0.5f);
    const auto m = image::computeQcMetrics(bloom, t);
    EXPECT_TRUE(allMetricsFinite(m));
    EXPECT_DOUBLE_EQ(m.saturationFraction, 1.0);
    EXPECT_TRUE(m.flags & image::kQcSaturation);
    // Saturated-constant is also dead rows; both detectors agree.
    EXPECT_TRUE(m.flags & image::kQcDeadRows);
}

TEST(Qc, TinyAndSkinnySlicesSurviveEveryMetric)
{
    // 1xN / Nx1 / 1x1 frames exercise the interior-free edge cases of
    // the Laplacian, gradient, and column-profile kernels.
    for (const auto &[w, h] : {std::pair<size_t, size_t>{1, 1},
                               {1, 16},
                               {16, 1},
                               {2, 2}}) {
        Image2D img(w, h);
        common::Rng rng(7, w * 100 + h);
        for (float &v : img.data())
            v = static_cast<float>(rng.uniform());
        const auto m = image::computeQcMetrics(img);
        EXPECT_TRUE(allMetricsFinite(m)) << w << "x" << h;
        EXPECT_TRUE(std::isfinite(image::stripeScore(img)));
        EXPECT_TRUE(std::isfinite(image::estimateNoiseSigma(img)));
        EXPECT_TRUE(std::isfinite(image::gradientEnergy(img)));
    }
}

TEST(Qc, MonitorHandlesDegenerateHistoryWithoutBlowingUp)
{
    // Feed the stateful monitor a run of degenerate slices: constant
    // reference, then a constant candidate (zero-variance MI), then a
    // normal frame.  Every evaluation must stay finite and the
    // monitor must keep accepting input.
    image::QcMonitor monitor;
    const Image2D flat(32, 32, 0.5f);
    auto m0 = monitor.evaluate(flat);
    EXPECT_TRUE(allMetricsFinite(m0));
    monitor.accept(flat, m0);
    ASSERT_TRUE(monitor.hasReference());

    // MI of two identical constant frames is 0 (no information), not
    // NaN; the relative-MI check needs history and must not fire on
    // the first reference pair.
    const auto m1 = monitor.evaluate(flat);
    EXPECT_TRUE(allMetricsFinite(m1));

    Image2D textured(32, 32);
    common::Rng rng(11, 0);
    for (float &v : textured.data())
        v = static_cast<float>(rng.uniform());
    const auto m2 = monitor.evaluate(textured);
    EXPECT_TRUE(allMetricsFinite(m2));
    monitor.noteRejected(); // rejected-slice path is also finite
    const auto m3 = monitor.evaluate(textured);
    EXPECT_TRUE(allMetricsFinite(m3));
}

// ---- QC monitor vs its re-quantizing reference -----------------------

void
expectSameMetrics(const image::QcMetrics &got,
                  const image::QcMetrics &want, const std::string &what)
{
    expectSameBits(got.snr, want.snr, what + " snr");
    expectSameBits(got.focusScore, want.focusScore, what + " focus");
    expectSameBits(got.saturationFraction, want.saturationFraction,
                   what + " saturation");
    expectSameBits(got.deadRowFraction, want.deadRowFraction,
                   what + " dead rows");
    expectSameBits(got.stripeScore, want.stripeScore, what + " stripes");
    expectSameBits(got.miVsPrev, want.miVsPrev, what + " miVsPrev");
    EXPECT_EQ(got.shiftX, want.shiftX) << what;
    EXPECT_EQ(got.shiftY, want.shiftY) << what;
    EXPECT_EQ(got.flags, want.flags) << what;
}

/// The w x h window at (ox, oy) of a textured field: bands, a grating
/// and a checkerboard, so every offset has its own MI.
Image2D
driftFrame(long ox, long oy, size_t w, size_t h)
{
    Image2D img(w, h);
    for (size_t y = 0; y < h; ++y) {
        for (size_t x = 0; x < w; ++x) {
            const long gx = static_cast<long>(x) + ox + 100;
            const long gy = static_cast<long>(y) + oy + 100;
            float v = 0.2f;
            if ((gx / 6 + gy / 9) % 2)
                v += 0.35f;
            if ((gx + 2 * gy) % 17 < 4)
                v += 0.3f;
            if (gy % 23 < 3)
                v = 0.05f;
            img.at(x, y) = v;
        }
    }
    return img;
}

/// The imaging pathologies the drive injects, by attempt.
enum class DriveFault
{
    None,
    Dropout,
    Bloom,
    Excursion,
    Defocus,
    Stripes,
    Blank,
};

Image2D
faultedFrame(long ox, long oy, DriveFault fault, uint64_t seed)
{
    const size_t w = 48, h = 40;
    if (fault == DriveFault::Excursion)
        ox += 6;
    Image2D img = driftFrame(ox, oy, w, h);
    if (fault == DriveFault::Defocus) {
        const Image2D sharp = img;
        for (size_t y = 0; y < h; ++y)
            for (size_t x = 0; x < w; ++x) {
                float sum = 0.0f;
                for (long d = -2; d <= 2; ++d)
                    sum += sharp.clampedAt(static_cast<long>(x) + d,
                                           static_cast<long>(y)) +
                        sharp.clampedAt(static_cast<long>(x),
                                        static_cast<long>(y) + d);
                img.at(x, y) = sum / 10.0f;
            }
    }
    Rng rng(seed, 3);
    image::addGaussianNoise(img, 0.04, rng);
    if (fault == DriveFault::Dropout)
        for (size_t y = 10; y < 22; ++y)
            for (size_t x = 0; x < w; ++x)
                img.at(x, y) = 0.0f;
    if (fault == DriveFault::Bloom)
        for (size_t y = 5; y < 20; ++y)
            for (size_t x = 8; x < 30; ++x)
                img.at(x, y) = 1.6f;
    if (fault == DriveFault::Stripes)
        for (size_t y = 0; y < h; ++y)
            for (size_t x = 0; x < w; ++x)
                img.at(x, y) += x % 16 < 8 ? 0.25f : 0.0f;
    if (fault == DriveFault::Blank)
        img = Image2D(w, h, 0.3f);
    return img;
}

TEST(Qc, MonitorMatchesReferenceBitwise)
{
    // A drifting run with faulted attempts, retries, rejected slices
    // (noteRejected gaps) and one slice whose accepted frame is not
    // the last evaluated one.  Every metric of every evaluation must
    // match the re-quantizing reference bit for bit, at any thread
    // count, on the byte planes (16 bins) and the uint16_t ones (32).
    struct Slice
    {
        DriveFault first, retry;
        bool acceptFirstAttempt;
    };
    using F = DriveFault;
    const Slice run[] = {
        {F::None, F::None, false},      {F::None, F::None, false},
        {F::Dropout, F::None, false},   {F::None, F::None, false},
        {F::Bloom, F::None, false},     {F::Excursion, F::Excursion, false},
        {F::None, F::None, false},      {F::Defocus, F::Defocus, false},
        {F::None, F::None, false},      {F::Stripes, F::None, false},
        {F::Blank, F::Blank, false},    {F::Blank, F::Blank, false},
        {F::None, F::None, false},      {F::None, F::Bloom, true},
        {F::None, F::None, false},      {F::Excursion, F::None, false},
        {F::None, F::None, false},
    };

    image::QcThresholds wide;
    wide.miBins = 32;
    wide.shiftSearchPx = 5;
    for (const image::QcThresholds &t : {image::QcThresholds{}, wide}) {
        // Drive the reference once, recording every evaluation.
        std::vector<Image2D> frames;
        std::vector<image::QcMetrics> want;
        std::vector<size_t> attempts;
        std::vector<long> accepted; // frame index, -1 when rejected
        testref::ReferenceQcMonitor ref(t);
        size_t flagged = 0, rejected = 0;
        for (size_t s = 0; s < std::size(run); ++s) {
            const long ox = static_cast<long>(s % 3) - 1;
            const long oy = static_cast<long>(s / 2);
            long pick = -1;
            size_t a = 0;
            for (; a < 2 && pick < 0; ++a) {
                const DriveFault f = a == 0 ? run[s].first : run[s].retry;
                frames.push_back(faultedFrame(ox, oy, f, 10 * s + a));
                want.push_back(ref.evaluate(frames.back()));
                const long last = static_cast<long>(frames.size()) - 1;
                flagged += want.back().flagged();
                if (run[s].acceptFirstAttempt && a == 1)
                    pick = last - 1;
                else if (!want.back().flagged() &&
                         !run[s].acceptFirstAttempt)
                    pick = last;
            }
            attempts.push_back(a);
            accepted.push_back(pick);
            if (pick >= 0) {
                ref.accept(frames[static_cast<size_t>(pick)],
                           want[static_cast<size_t>(pick)]);
            } else {
                ref.noteRejected();
                ++rejected;
            }
        }
        EXPECT_GE(flagged, 6u);
        EXPECT_GE(rejected, 2u);

        for (const size_t threads : {1u, 3u, 8u}) {
            common::ScopedThreads scoped(threads);
            image::QcMonitor monitor(t);
            size_t f = 0;
            for (size_t s = 0; s < std::size(run); ++s) {
                for (size_t a = 0; a < attempts[s]; ++a, ++f)
                    expectSameMetrics(
                        monitor.evaluate(frames[f]), want[f],
                        "bins " + std::to_string(t.miBins) +
                            " threads " + std::to_string(threads) +
                            " slice " + std::to_string(s) +
                            " attempt " + std::to_string(a));
                if (accepted[s] >= 0) {
                    const auto i = static_cast<size_t>(accepted[s]);
                    monitor.accept(frames[i], want[i]);
                } else {
                    monitor.noteRejected();
                }
            }
            EXPECT_EQ(f, frames.size());
        }
    }
}

TEST(Qc, NoiseSigmaMatchesMedianReference)
{
    // The select on the |Laplacian| bit patterns must return
    // common::median's order statistics bit for bit: odd and even
    // interior counts, a single interior pixel, constant and heavily
    // tied images, skinny frames, and values spanning many binades
    // (zeros next to large Laplacians).
    std::vector<Image2D> cases;
    for (const auto &[w, h] : {std::pair<size_t, size_t>{3, 3},
                               {4, 3},
                               {5, 5},
                               {6, 5},
                               {3, 40},
                               {40, 3},
                               {3, 41},
                               {41, 3},
                               {48, 40},
                               {49, 40},
                               {120, 80}})
        cases.push_back(noisyImage(w, h, 700 + w * 7 + h));
    cases.emplace_back(20, 17, 0.37f);
    cases.emplace_back(3, 3, 2.0f);
    Image2D ties(31, 22);
    Rng rng(71);
    for (float &v : ties.data())
        v = static_cast<float>(static_cast<int>(rng.uniform() * 3.0)) *
            0.5f;
    cases.push_back(ties);
    Image2D sparse(30, 30, 0.0f);
    for (size_t i = 0; i < sparse.size(); i += 7)
        sparse.data()[i] = static_cast<float>(i) * 1e3f;
    cases.push_back(sparse);
    Image2D binades(33, 28);
    for (size_t i = 0; i < binades.size(); ++i)
        binades.data()[i] = std::ldexp(1.0f, static_cast<int>(i % 60) - 30);
    cases.push_back(binades);
    // Half the interior Laplacians in one small binade, half large:
    // the two middle ranks lie in different binades.
    Image2D split(37, 42);
    Rng rng2(73);
    for (size_t y = 0; y < split.height(); ++y)
        for (size_t x = 0; x < split.width(); ++x)
            split.at(x, y) = ((x + y) % 2 ? 1.0f : -1.0f) *
                (1.0f + 0.4f * static_cast<float>(rng2.uniform())) *
                (y <= 21 ? 1e-3f : 1.0f);
    cases.push_back(split);
    for (size_t i = 0; i < cases.size(); ++i)
        expectSameBits(image::estimateNoiseSigma(cases[i]),
                       testref::noiseSigmaReference(cases[i]),
                       "case " + std::to_string(i) + " (" +
                           std::to_string(cases[i].width()) + "x" +
                           std::to_string(cases[i].height()) + ")");
}

// ---- SIMD kernels vs the portable scalar path -----------------------

Image2D
simdNoisy(size_t w, size_t h, uint64_t seed)
{
    Image2D img(w, h);
    Rng rng(seed, 0);
    for (size_t y = 0; y < h; ++y)
        for (size_t x = 0; x < w; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform()) +
                ((x / 7 + y / 5) % 2 ? 0.5f : 0.0f);
    return img;
}

void
expectBitwiseEqual(const Image2D &a, const Image2D &b,
                   const std::string &what)
{
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0)
        << what << ": bits differ";
}

TEST(Simd, TvKernelsMatchPortableScalarBitwise)
{
    // Odd widths, single-row/column frames, borders, unaligned
    // sizes — the interior kernels' remainder loops all get hit.
    const size_t dims[][2] = {{48, 40}, {37, 23}, {8, 8}, {1, 9},
                              {9, 1},   {17, 3},  {3, 17}};
    for (const auto &d : dims) {
        const Image2D in = simdNoisy(d[0], d[1], 77);
        image::TvParams tv;
        tv.iterations = 12;
        tv.lambda = 0.15;
        tv.tolerance = 0.0;
        image::TvParams tvTol = tv;
        tvTol.tolerance = 1e-5; // delta-tracking variant

        const Image2D c1 = image::denoiseChambolle(in, tv);
        const Image2D b1 = image::denoiseSplitBregman(in, tv);
        const Image2D ct1 = image::denoiseChambolle(in, tvTol);
        const Image2D bt1 = image::denoiseSplitBregman(in, tvTol);

        common::simd::ScopedForceScalar off;
        const std::string tag = std::to_string(d[0]) + "x" +
            std::to_string(d[1]);
        expectBitwiseEqual(c1, image::denoiseChambolle(in, tv),
                           "chambolle " + tag);
        expectBitwiseEqual(b1, image::denoiseSplitBregman(in, tv),
                           "bregman " + tag);
        expectBitwiseEqual(ct1, image::denoiseChambolle(in, tvTol),
                           "chambolle-tol " + tag);
        expectBitwiseEqual(bt1, image::denoiseSplitBregman(in, tvTol),
                           "bregman-tol " + tag);
    }
}

TEST(Simd, MutualInformationMatchesReferenceOnBothPaths)
{
    const Image2D a = simdNoisy(37, 29, 5);
    const Image2D b = simdNoisy(37, 29, 6);
    for (const size_t bins : {15u, 16u, 17u, 64u, 256u}) {
        for (const long dy : {-3l, 0l, 2l})
            for (const long dx : {-2l, 0l, 5l}) {
                const double ref =
                    testref::mutualInformationAtShiftReference(
                        a, b, dx, dy, bins);
                const double fast =
                    image::mutualInformationAtShift(a, b, dx, dy,
                                                    bins);
                double portable;
                {
                    common::simd::ScopedForceScalar off;
                    portable = image::mutualInformationAtShift(
                        a, b, dx, dy, bins);
                }
                EXPECT_EQ(std::memcmp(&ref, &fast, sizeof(double)),
                          0)
                    << "bins " << bins << " shift " << dx << ","
                    << dy;
                EXPECT_EQ(
                    std::memcmp(&ref, &portable, sizeof(double)), 0)
                    << "bins " << bins << " shift " << dx << ","
                    << dy << " (portable)";
            }
        // The zero-shift entry point is the same computation.
        const double one = image::mutualInformation(a, b, bins);
        const double oneRef =
            testref::mutualInformationAtShiftReference(a, b, 0, 0,
                                                     bins);
        EXPECT_EQ(std::memcmp(&one, &oneRef, sizeof(double)), 0)
            << "one-shot bins " << bins;
    }
}

TEST(Simd, QuantizePlaneMatchesScalarBitwise)
{
    // Widths off the 8- and 16-pixel vector steps, a constant image,
    // and bin counts either side of the byte-plane gate (16).
    std::vector<Image2D> images;
    for (const size_t w : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 120u})
        images.push_back(simdNoisy(w, 5, 40 + w));
    images.emplace_back(21, 4, 0.8f);
    for (const Image2D &img : images) {
        for (const size_t bins : {15u, 16u, 17u}) {
            const image::QuantizedPlane fast =
                image::quantizePlane(img, bins);
            image::QuantizedPlane scalar;
            {
                common::simd::ScopedForceScalar off;
                scalar = image::quantizePlane(img, bins);
            }
            const std::string what = std::to_string(img.width()) + "x" +
                std::to_string(img.height()) + " bins " +
                std::to_string(bins);
            EXPECT_EQ(fast.fixedBytes, scalar.fixedBytes) << what;
            EXPECT_EQ(fast.movingBytes, scalar.movingBytes) << what;
            EXPECT_EQ(fast.idx, scalar.idx) << what;
            // Both agree with the shared per-pixel binning.
            const image::detail::BinRange r = image::detail::binRange(img);
            for (size_t i = 0; i < img.size(); ++i) {
                const size_t b = image::detail::quantize(
                    img.data()[i], r.lo, r.inv, bins);
                const size_t got = bins <= 16 ? fast.movingBytes[i]
                                              : fast.idx[i];
                ASSERT_EQ(got, b) << what << " pixel " << i;
            }
        }
    }
}

TEST(Simd, RegisterShiftMiAgreesWithReferenceOnBothPaths)
{
    const Image2D fixed = simdNoisy(64, 48, 9);
    Image2D moving(64, 48, 0.0f);
    for (size_t y = 0; y < 48; ++y)
        for (size_t x = 0; x < 64; ++x)
            moving.at(x, y) = fixed.at((x + 61) % 64, (y + 2) % 48);
    image::MiParams mp;
    mp.maxShift = 4;
    mp.bins = 32;
    const auto want = testref::registerShiftMiReference(fixed, moving,
                                                      mp);
    EXPECT_EQ(image::registerShiftMi(fixed, moving, mp), want);
    common::simd::ScopedForceScalar off;
    EXPECT_EQ(image::registerShiftMi(fixed, moving, mp), want);
}

} // namespace
