#ifndef ISARIA_SUPPORT_THREAD_POOL_H
#define ISARIA_SUPPORT_THREAD_POOL_H

/**
 * @file
 * A small work-stealing thread pool for read-only fan-out phases.
 *
 * The equality-saturation search phase is embarrassingly parallel: the
 * e-graph is frozen, every (rule, class-shard) task only reads it and
 * writes a private match buffer. The pool is sized once and reused
 * across saturation iterations; the calling thread participates as
 * worker 0, so a pool of size 1 runs entirely inline (no threads are
 * ever spawned) and is the sequential legacy path.
 *
 * Scheduling is range-splitting work stealing: the task index space
 * [0, n) is carved into one contiguous chunk per worker, each worker
 * pops from the front of its own chunk, and an idle worker steals the
 * back half of the largest remaining chunk. Both ends are claimed via
 * compare-and-swap on a packed (begin, end) word.
 *
 * The pool is race-free because a worker only touches a job it joined
 * under mutex_: it reads the job's function and generation together
 * under the lock, counts itself active before releasing it, and skips
 * a generation whose function has already been cleared. The caller
 * ends a job (and clears the function) only once no worker is active,
 * so the chunks and pending count it seeds for the next job are never
 * seen by a straggler from the previous one.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace isaria
{

class ThreadPool
{
  public:
    /**
     * Creates a pool that runs tasks on @p threads workers in total,
     * including the caller; @p threads - 1 OS threads are spawned.
     * @p threads < 1 is treated as 1.
     */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Total workers, including the calling thread. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Runs fn(taskIndex) for every index in [0, numTasks), distributed
     * over the pool, and returns once all calls have completed. The
     * caller executes tasks too. @p fn must not throw and may be
     * invoked concurrently from different threads (with distinct task
     * indices). Not reentrant: do not call parallelFor from inside a
     * task.
     */
    void parallelFor(std::size_t numTasks,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Thread count requested by the environment: ISARIA_EQSAT_THREADS
     * when set to a positive integer, otherwise hardware_concurrency
     * (at least 1).
     */
    static unsigned defaultThreads();

  private:
    /** Packed half-open task range; begin in the low 32 bits. */
    using PackedRange = std::uint64_t;

    static PackedRange
    pack(std::uint32_t begin, std::uint32_t end)
    {
        return (static_cast<std::uint64_t>(end) << 32) | begin;
    }
    static std::uint32_t unpackBegin(PackedRange r)
    {
        return static_cast<std::uint32_t>(r);
    }
    static std::uint32_t unpackEnd(PackedRange r)
    {
        return static_cast<std::uint32_t>(r >> 32);
    }

    void workerLoop(std::size_t worker);
    /** Claims and runs tasks of the joined job until none are left. */
    void runTasks(std::size_t worker,
                  const std::function<void(std::size_t)> &fn);
    /** Claims one task index; false when all chunks are empty. */
    bool claimTask(std::size_t worker, std::uint32_t &task);

    std::vector<std::thread> workers_;
    /** One remaining-task chunk per worker. */
    std::vector<std::atomic<PackedRange>> chunks_;
    /** The current job's function; set and cleared under mutex_, and
     *  only read under it. Null between jobs. */
    const std::function<void(std::size_t)> *fn_ = nullptr;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** Incremented per parallelFor; workers sleep between jobs. */
    std::uint64_t generation_ = 0;
    /** Tasks not yet finished in the current job. */
    std::atomic<std::size_t> pending_{0};
    /** Workers currently inside runTasks (guarded by mutex_). */
    std::size_t activeWorkers_ = 0;
    bool stopping_ = false;
};

} // namespace isaria

#endif // ISARIA_SUPPORT_THREAD_POOL_H
