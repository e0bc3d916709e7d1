/**
 * @file
 * Deterministic thread-pool parallelism for the hot kernels.
 *
 * Every substrate that fans work out (denoising, registration, SEM
 * frame formation, voxelization, Monte-Carlo sweeps) must produce
 * bitwise-identical output at any thread count, or the reproduction
 * stops being a reproduction.  The contract that guarantees this:
 *
 *  - Work over an index range [begin, end) is split into chunks of a
 *    caller-fixed `grain`; chunk boundaries depend only on the range
 *    and the grain, never on the thread count or on scheduling.
 *  - Chunks may execute on any thread in any order, so a chunk body
 *    must only write state owned by its chunk (or reduce through
 *    parallelReduce, which combines partials in chunk-index order).
 *  - Anything random inside a chunk draws from a counter-seeded RNG
 *    stream (see Rng(seed, stream)), not from a shared generator.
 *
 * The pool itself is deliberately work-stealing-free: each fan-out
 * gets its own atomic chunk cursor, the calling thread participates,
 * and a budget of 1 (or a nested call from inside a chunk body)
 * degrades to plain serial execution of the same chunks in the same
 * order.
 *
 * Thread budgets: numThreads() is the calling thread's fan-out
 * budget — the number of threads (caller included) one of its
 * fan-outs may occupy.  ScopedThreads sets it for the current thread
 * only; outside any scope it is the process default (setNumThreads(),
 * else the HIFI_THREADS environment variable, else
 * std::thread::hardware_concurrency()).  A fan-out captures its
 * caller's budget, and the pool workers that help run it inherit it.
 * Concurrent callers on different threads run their fan-outs side by
 * side on one shared pool, each within its own budget.  The pool only
 * grows (to the largest budget or process default seen, minus the
 * caller) and never stops a worker before process exit.
 *
 * Instrumentation: while a telemetry session is active
 * (common/telemetry.hh) the pool records "pool.jobs", "pool.chunks",
 * "pool.worker_busy_ns", the "pool.chunks_per_job" histogram and the
 * "pool.workers" gauge.  Collection is purely observational — it
 * never alters partitioning or scheduling, so outputs stay bitwise
 * identical with telemetry on or off (asserted in test_parallel).
 */

#ifndef HIFI_COMMON_PARALLEL_HH
#define HIFI_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace hifi
{
namespace common
{

/// Number of grain-sized chunks covering n items (0 for n == 0).
size_t chunkCount(size_t n, size_t grain);

/**
 * Half-open index range of chunk `chunk` over [begin, end) with the
 * given grain.  Chunks tile the range exactly: chunk i covers
 * [begin + i*grain, min(end, begin + (i+1)*grain)).
 */
std::pair<size_t, size_t> chunkBounds(size_t begin, size_t end,
                                      size_t grain, size_t chunk);

/// Set the process default budget (0 = auto from HIFI_THREADS /
/// hardware).  Threads inside a ScopedThreads keep their own budget.
void setNumThreads(size_t threads);

/// The calling thread's fan-out budget (>= 1).
size_t numThreads();

/**
 * RAII budget for the calling thread's fan-outs; `threads == 0`
 * keeps the current one.  Other threads are unaffected.
 */
class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t threads);
    ~ScopedThreads();

    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    size_t previous_;
};

/**
 * Run body(chunkBegin, chunkEnd) over grain-sized chunks of
 * [begin, end) on the shared pool, using at most numThreads()
 * threads, the caller included.  Blocks until every chunk ran; the
 * first exception a chunk throws is rethrown here (unclaimed chunks
 * are skipped).  Safe to call from inside a chunk body: nested calls
 * run serially on the calling thread.  Chunk boundaries are
 * thread-count independent; bodies writing disjoint per-index state
 * therefore give bitwise-identical results at any thread count.
 */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)> &body);

/// parallelFor variant whose body also receives the chunk index.
void parallelForChunks(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)> &body);

/**
 * Deterministic parallel reduction: `map(chunkBegin, chunkEnd)`
 * produces one partial per chunk; partials are combined with
 * `combine(acc, partial)` serially in chunk-index order, so the
 * result is independent of the thread count (floating-point sums
 * included).
 */
template <typename T, typename Map, typename Combine>
T
parallelReduce(size_t begin, size_t end, size_t grain, T init,
               Map map, Combine combine)
{
    const size_t n = end > begin ? end - begin : 0;
    const size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return init;
    std::vector<T> partial(chunks);
    parallelForChunks(begin, end, grain,
                      [&](size_t chunk, size_t b, size_t e) {
                          partial[chunk] = map(b, e);
                      });
    T acc = std::move(init);
    for (auto &p : partial)
        acc = combine(std::move(acc), std::move(p));
    return acc;
}

} // namespace common
} // namespace hifi

#endif // HIFI_COMMON_PARALLEL_HH
