/**
 * @file
 * Static fork-join helper used to run independent (workload,
 * policy) simulation cells in parallel. Results are deterministic
 * because each cell owns its own RNG and state.
 */

#ifndef RLR_UTIL_THREAD_POOL_HH
#define RLR_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace rlr::util
{

/** Fork-join parallel loop; no pool object outlives a call. */
class ThreadPool
{
  public:
    ThreadPool() = delete;

    /**
     * Run fn(i) for i in [0, n) on min(n, nthreads) fresh threads
     * and wait for completion (nthreads <= 1 runs inline).
     *
     * If exactly one fn(i) throws, that exception is rethrown
     * here after all workers have joined. When several iterations
     * fail concurrently (iterations already started finish even
     * after a failure is recorded; no new iterations are claimed),
     * every captured message is aggregated into one
     * std::runtime_error ("N worker tasks failed: [0] ...; [1]
     * ..."), so no concurrent failure is silently dropped.
     * Callers that need every iteration to run despite failures
     * must catch inside fn (see sim::SweepRunner).
     */
    static void parallelFor(size_t n, size_t nthreads,
                            const std::function<void(size_t)> &fn);
};

} // namespace rlr::util

#endif // RLR_UTIL_THREAD_POOL_HH
