/**
 * @file
 * Tests for the deterministic thread-pool substrate: partitioning
 * arithmetic, exception propagation, nested-call safety, the serial
 * path, and — the property everything else rests on — bitwise-equal
 * outputs of every parallel hot kernel at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/mismatch.hh"
#include "circuit/sense_amp.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "fab/materials.hh"
#include "fab/sa_region.hh"
#include "fab/voxelizer.hh"
#include "image/denoise.hh"
#include "image/noise.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"
#include "scope/sem.hh"

namespace
{

using namespace hifi;
using common::chunkBounds;
using common::chunkCount;
using image::Image2D;
using image::Volume3D;

/// Run `fn` under a fixed thread count and hand back its result.
template <typename Fn>
auto
withThreads(size_t threads, Fn fn)
{
    common::ScopedThreads scoped(threads);
    return fn();
}

bool
bitwiseEqual(const Image2D &a, const Image2D &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.size() * sizeof(float)) == 0;
}

bool
bitwiseEqual(const Volume3D &a, const Volume3D &b)
{
    if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
        return false;
    for (size_t z = 0; z < a.nz(); ++z)
        for (size_t y = 0; y < a.ny(); ++y)
            for (size_t x = 0; x < a.nx(); ++x)
                if (a.at(x, y, z) != b.at(x, y, z))
                    return false;
    return true;
}

/// Structured noisy input for the image kernels.
Image2D
noisyPattern(size_t w, size_t h)
{
    common::Rng rng(21);
    Image2D img(w, h, 0.1f);
    for (size_t x = 4; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0,
                     static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    image::addGaussianNoise(img, 0.05, rng);
    return img;
}

/// Deterministic material volume for the SEM kernel.
Volume3D
materialVolume(size_t nx = 8, size_t ny = 32, size_t nz = 24)
{
    Volume3D vol(nx, ny, nz, 0.0f);
    for (size_t z = 0; z < nz; ++z)
        for (size_t y = 0; y < ny; ++y)
            for (size_t x = 0; x < nx; ++x)
                vol.at(x, y, z) = static_cast<float>(
                    (x + 3 * y + 7 * z) % fab::kNumMaterials);
    return vol;
}

// ---- Partitioning arithmetic ----------------------------------------

TEST(Partition, ChunkCountArithmetic)
{
    EXPECT_EQ(chunkCount(0, 8), 0u);
    EXPECT_EQ(chunkCount(1, 8), 1u);
    EXPECT_EQ(chunkCount(8, 8), 1u);
    EXPECT_EQ(chunkCount(9, 8), 2u);
    EXPECT_EQ(chunkCount(17, 8), 3u);
    EXPECT_EQ(chunkCount(5, 0), 5u); // grain 0 degrades to 1
}

TEST(Partition, ChunksTileTheRangeExactly)
{
    const size_t begin = 3, end = 45, grain = 5;
    const size_t chunks = chunkCount(end - begin, grain);
    size_t expected = begin;
    for (size_t c = 0; c < chunks; ++c) {
        const auto [b, e] = chunkBounds(begin, end, grain, c);
        EXPECT_EQ(b, expected);
        EXPECT_GT(e, b);
        EXPECT_LE(e - b, grain);
        expected = e;
    }
    EXPECT_EQ(expected, end);
}

TEST(Partition, BoundsAreThreadCountIndependent)
{
    // The partition is pure arithmetic: no pool state involved.
    for (size_t t : {1u, 2u, 8u}) {
        common::ScopedThreads scoped(t);
        EXPECT_EQ(chunkBounds(0, 100, 16, 2),
                  (std::pair<size_t, size_t>{32, 48}));
    }
}

// ---- Pool behaviour -------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    common::ScopedThreads scoped(8);
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    common::parallelFor(0, n, 7, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            ++hits[i];
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsChunksInOrder)
{
    common::ScopedThreads scoped(1);
    std::vector<size_t> order; // no lock needed: serial by contract
    common::parallelForChunks(0, 40, 8,
                              [&](size_t chunk, size_t, size_t) {
                                  order.push_back(chunk);
                              });
    ASSERT_EQ(order.size(), 5u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    common::ScopedThreads scoped(4);
    EXPECT_THROW(
        common::parallelFor(0, 64, 4, [&](size_t b, size_t) {
            if (b == 32)
                throw std::runtime_error("chunk failure");
        }),
        std::runtime_error);

    // The pool must stay usable after a failed job.
    std::atomic<size_t> sum{0};
    common::parallelFor(0, 10, 2, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            sum += i;
    });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, NestedCallsRunSeriallyAndCorrectly)
{
    common::ScopedThreads scoped(4);
    std::vector<size_t> inner_sums(8, 0);
    common::parallelFor(0, 8, 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            // Nested parallelFor: must not deadlock, must be correct.
            size_t sum = 0;
            common::parallelFor(0, 100, 10,
                                [&](size_t ib, size_t ie) {
                                    for (size_t j = ib; j < ie; ++j)
                                        sum += j;
                                });
            inner_sums[i] = sum + i;
        }
    });
    for (size_t i = 0; i < inner_sums.size(); ++i)
        EXPECT_EQ(inner_sums[i], 4950u + i);
}

TEST(ThreadPool, ConfigurationRoundTrip)
{
    const size_t before = common::numThreads();
    common::setNumThreads(3);
    EXPECT_EQ(common::numThreads(), 3u);
    {
        common::ScopedThreads scoped(5);
        EXPECT_EQ(common::numThreads(), 5u);
        common::ScopedThreads noop(0); // 0 leaves the pool alone
        EXPECT_EQ(common::numThreads(), 5u);
    }
    EXPECT_EQ(common::numThreads(), 3u);
    common::setNumThreads(0); // back to auto
    EXPECT_GE(common::numThreads(), 1u);
    common::setNumThreads(before);
}

TEST(ThreadPool, ReduceIsBitwiseStableAcrossThreadCounts)
{
    // Floating-point sums are order-sensitive; the chunk-order combine
    // must erase the thread count from the result bits.
    auto sum = [] {
        return common::parallelReduce(
            0, 10000, 64, 0.0,
            [](size_t b, size_t e) {
                double s = 0.0;
                for (size_t i = b; i < e; ++i)
                    s += 1.0 / static_cast<double>(i + 1);
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double serial = withThreads(1, sum);
    EXPECT_EQ(serial, withThreads(2, sum));
    EXPECT_EQ(serial, withThreads(8, sum));
    EXPECT_NEAR(serial, 9.7876, 1e-3); // harmonic number H_10000
}

/// Distinct threads that executed chunks of one fan-out.
class ThreadIds
{
  public:
    void
    record()
    {
        const std::lock_guard<std::mutex> lock(mu_);
        ids_.insert(std::this_thread::get_id());
    }

    size_t
    count() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return ids_.size();
    }

  private:
    mutable std::mutex mu_;
    std::set<std::thread::id> ids_;
};

TEST(ThreadPool, OverlappingBudgetsOnTwoThreadsStayIndependent)
{
    // Two callers with different budgets fan out at the same time on
    // the shared pool.  Each keeps its own budget (helpers inherit
    // it), no fan-out occupies more threads than its budget, results
    // stay bitwise serial, and neither scope leaks into the process
    // default.
    const size_t processDefault = common::numThreads();
    auto harmonic = [](ThreadIds *ids) {
        return common::parallelReduce(
            0, 20000, 64, 0.0,
            [ids](size_t b, size_t e) {
                if (ids)
                    ids->record();
                double s = 0.0;
                for (size_t i = b; i < e; ++i)
                    s += 1.0 / static_cast<double>(i + 1);
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double serial = withThreads(1, [&] { return harmonic(nullptr); });

    struct Outcome
    {
        size_t rounds = 0;
        size_t wrongSums = 0;
        size_t wrongBudgets = 0;
        size_t wrongNested = 0;
        size_t maxThreads = 0;
    };
    auto caller = [&](size_t budget, Outcome &out) {
        const common::ScopedThreads scoped(budget);
        for (int round = 0; round < 40; ++round, ++out.rounds) {
            if (common::numThreads() != budget)
                ++out.wrongBudgets;
            ThreadIds ids;
            const double sum = harmonic(&ids);
            if (std::memcmp(&sum, &serial, sizeof sum) != 0)
                ++out.wrongSums;
            out.maxThreads = std::max(out.maxThreads, ids.count());

            ThreadIds outerIds;
            std::atomic<size_t> budgetMisses{0};
            std::vector<size_t> inner(8, 0);
            common::parallelFor(0, inner.size(), 1, [&](size_t b,
                                                        size_t e) {
                outerIds.record();
                if (common::numThreads() != budget)
                    ++budgetMisses;
                for (size_t i = b; i < e; ++i)
                    common::parallelFor(0, 100, 10,
                                        [&](size_t ib, size_t ie) {
                                            for (size_t j = ib; j < ie;
                                                 ++j)
                                                inner[i] += j;
                                        });
            });
            out.wrongBudgets += budgetMisses.load();
            out.maxThreads = std::max(out.maxThreads, outerIds.count());
            for (const size_t v : inner)
                if (v != 4950u)
                    ++out.wrongNested;
        }
    };

    Outcome narrow, wide;
    std::thread a(caller, size_t{1}, std::ref(narrow));
    std::thread b(caller, size_t{3}, std::ref(wide));
    a.join();
    b.join();

    for (const auto *out : {&narrow, &wide}) {
        const size_t budget = out == &narrow ? 1 : 3;
        EXPECT_EQ(out->rounds, 40u) << "budget " << budget;
        EXPECT_EQ(out->wrongSums, 0u) << "budget " << budget;
        EXPECT_EQ(out->wrongBudgets, 0u) << "budget " << budget;
        EXPECT_EQ(out->wrongNested, 0u) << "budget " << budget;
        EXPECT_GE(out->maxThreads, 1u) << "budget " << budget;
        EXPECT_LE(out->maxThreads, budget) << "budget " << budget;
    }
    EXPECT_EQ(common::numThreads(), processDefault);
}

// ---- Bitwise determinism of the ported kernels ----------------------

class KernelDeterminism : public ::testing::Test
{
  protected:
    /// Assert fn() produces bitwise-identical results at 1/2/8 threads.
    template <typename Fn>
    void
    expectStable(Fn fn, const char *what)
    {
        const auto serial = withThreads(1, fn);
        EXPECT_TRUE(bitwiseEqual(serial, withThreads(2, fn)))
            << what << ": 2 threads diverged from serial";
        EXPECT_TRUE(bitwiseEqual(serial, withThreads(8, fn)))
            << what << ": 8 threads diverged from serial";
    }
};

TEST_F(KernelDeterminism, DenoiseChambolle)
{
    const Image2D noisy = noisyPattern(64, 48);
    expectStable([&] {
        return image::denoiseChambolle(noisy, {0.05, 30});
    }, "denoiseChambolle");
}

TEST_F(KernelDeterminism, DenoiseSplitBregman)
{
    const Image2D noisy = noisyPattern(64, 48);
    expectStable([&] {
        return image::denoiseSplitBregman(noisy, {0.05, 30});
    }, "denoiseSplitBregman");
}

TEST_F(KernelDeterminism, MiShiftSearch)
{
    const Image2D fixed = noisyPattern(48, 40);
    const Image2D moving = fixed.shifted(2, -1);
    auto reg = [&] {
        return image::registerShiftMi(fixed, moving, {16, 4});
    };
    const auto serial = withThreads(1, reg);
    EXPECT_EQ(serial, withThreads(2, reg));
    EXPECT_EQ(serial, withThreads(8, reg));
    EXPECT_EQ(serial, (std::pair<long, long>{-2, 1}));
}

TEST_F(KernelDeterminism, SemImage)
{
    const Volume3D materials = materialVolume();
    const scope::SemParams params;
    expectStable([&] {
        // Fresh generator per run: the frame seed must be the only
        // coupling between the caller's stream and the noise field.
        common::Rng rng(5);
        return scope::semImage(materials, 0, 8, params, rng);
    }, "semImage");
}

TEST_F(KernelDeterminism, SemImageClean)
{
    const Volume3D materials = materialVolume();
    const scope::SemParams params;
    expectStable([&] {
        return scope::semImageClean(materials, 0, 8, params);
    }, "semImageClean");
}

TEST_F(KernelDeterminism, VoxelizeSaRegion)
{
    fab::SaRegionSpec spec;
    spec.pairs = 2;
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    expectStable([&] {
        return fab::voxelize(*cell, truth.region, {5.0, 270.0});
    }, "voxelize");
}

TEST_F(KernelDeterminism, MonteCarloYield)
{
    circuit::SaParams base;
    base.topology = circuit::SaTopology::Classic;
    circuit::MismatchParams mc;
    mc.trials = 6;
    mc.seed = 7;
    mc.avtVnm = 9.0;
    circuit::TranParams tp = circuit::defaultSaTran();
    tp.dt = 50e-12;

    auto yield = [&] { return circuit::sensingYield(base, mc, tp); };
    const auto serial = withThreads(1, yield);
    for (size_t t : {2u, 8u}) {
        const auto run = withThreads(t, yield);
        EXPECT_EQ(run.trials, serial.trials) << t << " threads";
        EXPECT_EQ(run.failures, serial.failures) << t << " threads";
        // Exact double equality: chunk-ordered reduction.
        EXPECT_EQ(run.meanSignal, serial.meanSignal) << t
                                                     << " threads";
    }
}

// ---- Pool instrumentation is non-perturbing -------------------------

TEST(PoolInstrumentation, TelemetryDoesNotPerturbKernelOutput)
{
    // The instrumentation contract from parallel.hh: enabling a
    // telemetry session must not change one bit of any kernel
    // output — collection is observation only.
    const Image2D noisy = noisyPattern(64, 48);
    auto kernel = [&] {
        return image::denoiseChambolle(noisy, {0.05, 30});
    };
    const Image2D plain = withThreads(4, kernel);

    telemetry::Session session;
    const Image2D instrumented = withThreads(4, kernel);
    const auto collected = session.finish({});

    EXPECT_TRUE(bitwiseEqual(plain, instrumented))
        << "telemetry perturbed the denoise kernel";

    // ... and the session did observe the pool at work.
    ASSERT_TRUE(collected != nullptr);
    const auto jobs = collected->metrics.counters.find("pool.jobs");
    ASSERT_NE(jobs, collected->metrics.counters.end());
    EXPECT_GT(jobs->second, 0u);
    const auto chunks =
        collected->metrics.counters.find("pool.chunks");
    ASSERT_NE(chunks, collected->metrics.counters.end());
    EXPECT_GT(chunks->second, 0u);
    const auto hist = collected->metrics.histograms.find(
        "pool.chunks_per_job");
    ASSERT_NE(hist, collected->metrics.histograms.end());
    EXPECT_EQ(hist->second.count, jobs->second);
}

TEST(PoolInstrumentation, NestedFanOutBusyTimeIsCountedOnce)
{
    // Every chunk of the outer fan-out spends its time in a nested
    // one.  Busy time counts each thread once, so it can never exceed
    // the wall time times the worker count.  Six outer chunks on four
    // workers leave two idle for half the run: counted once, busy
    // time is ~3/4 of the bound; counted twice, ~3/2.
    for (const size_t threads : {1u, 4u}) {
        const common::ScopedThreads scoped(threads);
        std::vector<double> sums(6, 0.0);
        telemetry::Session session;
        const auto t0 = std::chrono::steady_clock::now();
        common::parallelFor(0, sums.size(), 1, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                std::vector<double> partial(16, 0.0);
                common::parallelFor(0, 16, 1, [&](size_t ib, size_t ie) {
                    for (size_t j = ib; j < ie; ++j)
                        for (size_t k = 0; k < 100000; ++k)
                            partial[j] += std::sqrt(
                                static_cast<double>(i + j + k));
                });
                for (const double p : partial)
                    sums[i] += p;
            }
        });
        const auto wall_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        const auto collected = session.finish({});

        ASSERT_TRUE(collected != nullptr);
        const auto busy =
            collected->metrics.counters.find("pool.worker_busy_ns");
        ASSERT_NE(busy, collected->metrics.counters.end());
        EXPECT_GT(busy->second, 0u);
        EXPECT_LE(busy->second, wall_ns * threads)
            << threads << " threads";
        for (const double sum : sums)
            EXPECT_GT(sum, 0.0);
    }
}

TEST(PoolInstrumentation, WorkersGaugeIsTheFanOutBudget)
{
    // "pool.workers" is the posting fan-out's budget, not the pool's
    // thread count, so busy time over (wall x workers) stays a
    // per-job utilisation.  Grow the pool to four threads, then fan
    // out at a budget of two.
    auto spin = [](size_t b, size_t e, ThreadIds &ids) {
        ids.record();
        double s = 0.0;
        for (size_t i = b; i < e; ++i)
            for (size_t k = 0; k < 20000; ++k)
                s += std::sqrt(static_cast<double>(i + k));
        EXPECT_GT(s, 0.0);
    };
    {
        const common::ScopedThreads grow(4);
        ThreadIds ids;
        common::parallelFor(0, 64, 1, [&](size_t b, size_t e) {
            spin(b, e, ids);
        });
    }

    const common::ScopedThreads scoped(2);
    ThreadIds ids;
    telemetry::Session session;
    const auto t0 = std::chrono::steady_clock::now();
    common::parallelFor(0, 64, 1, [&](size_t b, size_t e) {
        spin(b, e, ids);
    });
    const auto wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const auto collected = session.finish({});

    ASSERT_TRUE(collected != nullptr);
    const auto workers = collected->metrics.gauges.find("pool.workers");
    ASSERT_NE(workers, collected->metrics.gauges.end());
    EXPECT_EQ(workers->second, 2.0);
    EXPECT_LE(ids.count(), 2u);
    const auto busy =
        collected->metrics.counters.find("pool.worker_busy_ns");
    ASSERT_NE(busy, collected->metrics.counters.end());
    EXPECT_GT(busy->second, 0u);
    EXPECT_LE(busy->second, wall_ns * 2);
}

} // namespace
