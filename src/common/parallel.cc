#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/telemetry.hh"

namespace hifi
{
namespace common
{

namespace
{

/**
 * Pool instrumentation (registered once, referenced lock-free after).
 * Purely observational: the counters never feed back into chunk
 * partitioning or scheduling, so enabling telemetry cannot perturb
 * the deterministic-output contract (asserted in test_parallel).
 * There is no steal/queue-depth metric because the pool is
 * work-stealing-free by design: one atomic chunk cursor, one job at
 * a time (see the header comment).
 */
struct PoolMetrics
{
    telemetry::Counter &jobs;       ///< fan-outs posted (incl. serial)
    telemetry::Counter &chunks;     ///< chunk bodies executed
    telemetry::Counter &busyNs;     ///< summed per-worker busy time
    telemetry::Histogram &chunksPerJob;
    telemetry::Gauge &workers;

    static PoolMetrics &
    get()
    {
        static PoolMetrics *metrics = new PoolMetrics{
            telemetry::registry().counter("pool.jobs"),
            telemetry::registry().counter("pool.chunks"),
            telemetry::registry().counter("pool.worker_busy_ns"),
            telemetry::registry().histogram(
                "pool.chunks_per_job",
                {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
            telemetry::registry().gauge("pool.workers")};
        return *metrics;
    }
};

uint64_t
busyClockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// True while this thread is executing chunks of some job; nested
/// parallel calls from such a thread run serially to avoid deadlock.
thread_local bool t_inside_pool = false;

/// True while an enclosing fan-out level times this thread's busy
/// time.  Not t_inside_pool: setting that on the one-chunk serial
/// path would serialize the fan-outs nested under it.
thread_local bool t_busy_timed = false;

/// This thread's busy time in one fan-out, counted only at its
/// outermost level: a nested fan-out runs inside time already counted.
struct BusyTimer
{
    const bool outermost;
    const uint64_t t0 = outermost ? busyClockNs() : 0;

    explicit BusyTimer(bool instrumented)
        : outermost(instrumented && !t_busy_timed)
    {
        if (outermost)
            t_busy_timed = true;
    }
    ~BusyTimer()
    {
        if (outermost)
            t_busy_timed = false;
    }
    BusyTimer(const BusyTimer &) = delete;
    BusyTimer &operator=(const BusyTimer &) = delete;

    uint64_t elapsedNs() const { return outermost ? busyClockNs() - t0 : 0; }
};

size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("HIFI_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && v >= 1)
            return static_cast<size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

size_t
chunkCount(size_t n, size_t grain)
{
    if (n == 0)
        return 0;
    const size_t g = grain ? grain : 1;
    return (n + g - 1) / g;
}

std::pair<size_t, size_t>
chunkBounds(size_t begin, size_t end, size_t grain, size_t chunk)
{
    const size_t g = grain ? grain : 1;
    const size_t b = begin + chunk * g;
    const size_t e = b + g < end ? b + g : end;
    return {b < end ? b : end, e};
}

struct ThreadPool::Impl
{
    /// One fan-out; heap-shared so late-waking workers can observe a
    /// drained job even after run() has returned.
    struct Job
    {
        const std::function<void(size_t)> *body = nullptr;
        size_t chunks = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::atomic<bool> abort{false};
        std::exception_ptr error; // guarded by the pool mutex

        /// Telemetry session binding of the submitting thread,
        /// re-applied on every worker so spans/metrics produced by
        /// the fan-out are attributed to the submitting job.
        uint64_t telemetryBinding = 0;
    };

    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable finished;
    std::vector<std::thread> workers;
    std::shared_ptr<Job> job;       // nullptr when idle
    uint64_t generation = 0;        // bumped per posted job
    size_t threads = 1;             // configured count, >= 1
    bool started = false;
    bool stopping = false;

    /// Serializes concurrent run() callers (one job at a time).
    std::mutex gate;

    void
    work(Job &j)
    {
        const bool instrumented = telemetry::enabled();
        const telemetry::detail::ScopedSessionBinding bind(
            j.telemetryBinding);
        const BusyTimer busy(instrumented);
        size_t executed = 0;

        t_inside_pool = true;
        for (;;) {
            const size_t i = j.next.fetch_add(1);
            if (i >= j.chunks)
                break;
            if (!j.abort.load(std::memory_order_relaxed)) {
                try {
                    (*j.body)(i);
                    ++executed;
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!j.error)
                        j.error = std::current_exception();
                    j.abort = true;
                }
            }
            if (j.done.fetch_add(1) + 1 == j.chunks) {
                std::lock_guard<std::mutex> lock(mutex);
                finished.notify_all();
            }
        }
        t_inside_pool = false;

        if (instrumented && executed > 0) {
            PoolMetrics &m = PoolMetrics::get();
            m.chunks.add(executed);
            m.busyNs.add(busy.elapsedNs());
        }
    }

    void
    workerLoop()
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [&] {
                return stopping || (job && generation != seen);
            });
            if (stopping)
                return;
            seen = generation;
            const std::shared_ptr<Job> j = job;
            lock.unlock();
            work(*j);
            lock.lock();
        }
    }

    void
    start()
    {
        if (started || threads <= 1)
            return;
        started = true;
        workers.reserve(threads - 1);
        for (size_t i = 0; i + 1 < threads; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        wake.notify_all();
        for (auto &w : workers)
            w.join();
        workers.clear();
        started = false;
        stopping = false;
    }
};

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(size_t threads) : impl_(new Impl)
{
    impl_->threads = threads ? threads : defaultThreadCount();
}

ThreadPool::~ThreadPool()
{
    impl_->stop();
    delete impl_;
}

size_t
ThreadPool::numThreads() const
{
    return impl_->threads;
}

void
ThreadPool::resize(size_t threads)
{
    std::lock_guard<std::mutex> gate(impl_->gate);
    impl_->stop();
    impl_->threads = threads ? threads : defaultThreadCount();
}

void
ThreadPool::run(size_t chunks, const std::function<void(size_t)> &body)
{
    if (chunks == 0)
        return;
    // Serial paths: tiny jobs, single-thread config, or a nested call
    // from inside a worker (which would otherwise deadlock waiting on
    // the pool it is running on).  Chunk order matches the cursor
    // order of the parallel path, so outputs are identical.
    const bool instrumented = telemetry::enabled();
    if (instrumented) {
        PoolMetrics &m = PoolMetrics::get();
        m.jobs.add(1);
        m.chunksPerJob.observe(static_cast<double>(chunks));
        m.workers.set(static_cast<double>(impl_->threads));
    }
    if (chunks == 1 || t_inside_pool || impl_->threads <= 1) {
        const BusyTimer busy(instrumented);
        for (size_t i = 0; i < chunks; ++i)
            body(i);
        if (instrumented) {
            PoolMetrics &m = PoolMetrics::get();
            m.chunks.add(chunks);
            m.busyNs.add(busy.elapsedNs());
        }
        return;
    }

    std::lock_guard<std::mutex> gate(impl_->gate);
    auto job = std::make_shared<Impl::Job>();
    job->body = &body;
    job->chunks = chunks;
    job->telemetryBinding = telemetry::detail::currentSessionBinding();
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->start();
        impl_->job = job;
        ++impl_->generation;
    }
    impl_->wake.notify_all();

    impl_->work(*job); // the caller is a worker too

    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->finished.wait(lock, [&] {
        return job->done.load() == job->chunks;
    });
    impl_->job.reset();
    const std::exception_ptr error = job->error;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
setNumThreads(size_t threads)
{
    ThreadPool::global().resize(threads);
}

size_t
numThreads()
{
    return ThreadPool::global().numThreads();
}

ScopedThreads::ScopedThreads(size_t threads)
{
    if (threads == 0)
        return;
    previous_ = numThreads();
    active_ = true;
    setNumThreads(threads);
}

ScopedThreads::~ScopedThreads()
{
    if (active_)
        setNumThreads(previous_);
}

void
parallelForChunks(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t, size_t)> &body)
{
    const size_t n = end > begin ? end - begin : 0;
    const size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return;
    ThreadPool::global().run(chunks, [&](size_t chunk) {
        const auto [b, e] = chunkBounds(begin, end, grain, chunk);
        body(chunk, b, e);
    });
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &body)
{
    parallelForChunks(begin, end, grain,
                      [&](size_t, size_t b, size_t e) { body(b, e); });
}

} // namespace common
} // namespace hifi
