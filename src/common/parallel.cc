#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

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
 * There is no steal metric because the pool is work-stealing-free
 * by design: one atomic chunk cursor per fan-out (see the header
 * comment).  "pool.workers" is the budget of the latest fan-out, not
 * the pool's thread count, so busy time over (wall time x workers)
 * stays a per-job utilisation when a larger pool serves jobs of one
 * budget.  The gauge is process-wide, not per session: when
 * concurrent jobs have different budgets it holds whichever budget
 * fanned out last.
 */
struct PoolMetrics
{
    telemetry::Counter &jobs;       ///< fan-outs posted (incl. serial)
    telemetry::Counter &chunks;     ///< chunk bodies executed
    telemetry::Counter &busyNs;     ///< summed per-worker busy time
    telemetry::Histogram &chunksPerJob;
    telemetry::Gauge &workers;      ///< budget of the latest fan-out

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

/// Budget when no ScopedThreads is active on the calling thread.
std::atomic<size_t> &
processDefault()
{
    static std::atomic<size_t> threads{defaultThreadCount()};
    return threads;
}

/// The calling thread's ScopedThreads budget; 0 = process default.
thread_local size_t t_budget = 0;

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

namespace
{

/**
 * The process-wide worker pool.  Every run() posts its fan-out as a
 * Job with its own chunk cursor; idle workers attach to any posted
 * job that is below its helper cap (budget - 1), so concurrent
 * callers share the workers instead of queueing for them.  Workers
 * are only ever added, and stop only when the pool is destroyed at
 * process exit.
 */
class Pool
{
  public:
    static Pool &
    global()
    {
        static Pool pool;
        return pool;
    }

    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    /// Run body(chunk) for every chunk on at most `budget` threads,
    /// the caller included; budget >= 2 and chunks >= 2.
    void
    run(size_t budget, size_t chunks,
        const std::function<void(size_t)> &body)
    {
        Job job(body, chunks, budget);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            grow(std::max(budget, processDefault().load()) - 1);
            active_.push_back(&job);
        }
        // Wake only the helpers this job can use, so a large pool does
        // not stampede every fan-out.
        for (size_t wakeups = std::min(budget, chunks) - 1; wakeups > 0;
             --wakeups)
            wake_.notify_one();

        work(job); // the caller is a worker too

        // The cursor is drained, so every chunk is claimed; once the
        // attached helpers finish theirs, the job is complete.
        std::unique_lock<std::mutex> lock(mutex_);
        active_.erase(std::find(active_.begin(), active_.end(), &job));
        job.detached.wait(lock, [&] { return job.helpers == 0; });
        const std::exception_ptr error = job.error;
        lock.unlock();
        if (error)
            std::rethrow_exception(error);
    }

  private:
    /// One fan-out; lives on its caller's stack until every helper
    /// has detached.
    struct Job
    {
        Job(const std::function<void(size_t)> &b, size_t n, size_t t)
            : body(b), chunks(n), budget(t),
              telemetryBinding(
                  telemetry::detail::currentSessionBinding())
        {
        }

        const std::function<void(size_t)> &body;
        const size_t chunks;
        const size_t budget;

        /// Telemetry session binding of the submitting thread,
        /// re-applied on every helper so spans/metrics produced by
        /// the fan-out are attributed to the submitting job.
        const uint64_t telemetryBinding;

        std::atomic<size_t> next{0};
        std::atomic<bool> abort{false};
        size_t helpers = 0;       // attached workers; guarded by mutex_
        std::exception_ptr error; // guarded by mutex_
        std::condition_variable detached; // helpers dropped to 0
    };

    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<std::thread> workers_;
    std::vector<Job *> active_; // posted jobs, oldest first
    bool stopping_ = false;

    /// Add workers up to `count`; caller holds mutex_.
    void
    grow(size_t count)
    {
        while (workers_.size() < count)
            workers_.emplace_back([this] { workerLoop(); });
    }

    /// Oldest posted job with unclaimed chunks and a free helper
    /// slot; caller holds mutex_.
    Job *
    claimable() const
    {
        for (Job *j : active_)
            if (j->helpers + 1 < j->budget &&
                j->next.load(std::memory_order_relaxed) < j->chunks)
                return j;
        return nullptr;
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Job *j = nullptr;
            wake_.wait(lock, [&] {
                j = claimable();
                return j != nullptr || stopping_;
            });
            if (j == nullptr)
                return;
            ++j->helpers;
            lock.unlock();
            work(*j);
            lock.lock();
            if (--j->helpers == 0)
                j->detached.notify_one();
        }
    }

    void
    work(Job &j)
    {
        const bool instrumented = telemetry::enabled();
        const telemetry::detail::ScopedSessionBinding bind(
            j.telemetryBinding);
        const BusyTimer busy(instrumented);
        const size_t budget = std::exchange(t_budget, j.budget);
        size_t executed = 0;

        t_inside_pool = true;
        for (;;) {
            const size_t i = j.next.fetch_add(1);
            if (i >= j.chunks)
                break;
            if (j.abort.load(std::memory_order_relaxed))
                continue;
            try {
                j.body(i);
                ++executed;
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!j.error)
                    j.error = std::current_exception();
                j.abort = true;
            }
        }
        t_inside_pool = false;
        t_budget = budget;

        if (instrumented && executed > 0) {
            PoolMetrics &m = PoolMetrics::get();
            m.chunks.add(executed);
            m.busyNs.add(busy.elapsedNs());
        }
    }
};

} // namespace

void
setNumThreads(size_t threads)
{
    processDefault() = threads ? threads : defaultThreadCount();
}

size_t
numThreads()
{
    return t_budget ? t_budget : processDefault().load();
}

ScopedThreads::ScopedThreads(size_t threads) : previous_(t_budget)
{
    if (threads != 0)
        t_budget = threads;
}

ScopedThreads::~ScopedThreads()
{
    t_budget = previous_;
}

void
parallelForChunks(size_t begin, size_t end, size_t grain,
                  const std::function<void(size_t, size_t, size_t)> &body)
{
    const size_t n = end > begin ? end - begin : 0;
    const size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return;
    const std::function<void(size_t)> chunkBody = [&](size_t chunk) {
        const auto [b, e] = chunkBounds(begin, end, grain, chunk);
        body(chunk, b, e);
    };
    const size_t budget = numThreads();
    const bool instrumented = telemetry::enabled();
    if (instrumented) {
        PoolMetrics &m = PoolMetrics::get();
        m.jobs.add(1);
        m.chunksPerJob.observe(static_cast<double>(chunks));
        m.workers.set(static_cast<double>(budget));
    }
    // Serial paths: one chunk, a budget of one, or a nested call from
    // inside a chunk body (which would otherwise wait on workers that
    // may all be waiting on it).  Chunk order matches the cursor order
    // of the parallel path, so outputs are identical.
    if (chunks > 1 && budget > 1 && !t_inside_pool) {
        Pool::global().run(budget, chunks, chunkBody);
        return;
    }
    const BusyTimer busy(instrumented);
    for (size_t i = 0; i < chunks; ++i)
        chunkBody(i);
    if (instrumented) {
        PoolMetrics &m = PoolMetrics::get();
        m.chunks.add(chunks);
        m.busyNs.add(busy.elapsedNs());
    }
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
