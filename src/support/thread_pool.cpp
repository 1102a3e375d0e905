#include "support/thread_pool.h"

#include <cstdlib>

#include "support/panic.h"

namespace isaria
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads < 1)
        threads = 1;
    chunks_ = std::vector<std::atomic<PackedRange>>(threads);
    for (auto &chunk : chunks_)
        chunk.store(pack(0, 0), std::memory_order_relaxed);
    workers_.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("ISARIA_EQSAT_THREADS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

void
ThreadPool::parallelFor(std::size_t numTasks,
                        const std::function<void(std::size_t)> &fn)
{
    if (numTasks == 0)
        return;
    if (workers_.empty() || numTasks == 1) {
        for (std::size_t i = 0; i < numTasks; ++i)
            fn(i);
        return;
    }
    ISARIA_ASSERT(numTasks < (std::size_t{1} << 32),
                  "parallelFor task count exceeds 2^32");

    // Seed one contiguous chunk of the index space per worker; idle
    // workers rebalance by stealing.
    const std::size_t threads = chunks_.size();
    for (std::size_t w = 0; w < threads; ++w) {
        auto begin = static_cast<std::uint32_t>(numTasks * w / threads);
        auto end = static_cast<std::uint32_t>(numTasks * (w + 1) / threads);
        chunks_[w].store(pack(begin, end), std::memory_order_relaxed);
    }
    pending_.store(numTasks, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = &fn;
        ++generation_;
    }
    wake_.notify_all();

    runTasks(0, fn);

    // Wait until every task ran *and* every worker has left runTasks,
    // so the next job cannot race a straggler still scanning chunks.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0 &&
               activeWorkers_ == 0;
    });
    fn_ = nullptr;
}

void
ThreadPool::workerLoop(std::size_t worker)
{
    std::uint64_t seenGeneration = 0;
    for (;;) {
        const std::function<void(std::size_t)> *fn = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_ || generation_ != seenGeneration;
            });
            if (stopping_)
                return;
            seenGeneration = generation_;
            // A worker that wakes only after its job has ended finds
            // fn_ cleared and sits this generation out: the caller may
            // already be seeding the next job's chunks and pending_,
            // which only a worker counted in activeWorkers_ may touch.
            fn = fn_;
            if (!fn)
                continue;
            ++activeWorkers_;
        }
        runTasks(worker, *fn);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
        }
        done_.notify_all();
    }
}

void
ThreadPool::runTasks(std::size_t worker,
                     const std::function<void(std::size_t)> &fn)
{
    std::uint32_t task = 0;
    while (claimTask(worker, task)) {
        fn(task);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Pair the notify with the waiter's predicate check.
            { std::lock_guard<std::mutex> lock(mutex_); }
            done_.notify_all();
        }
    }
}

bool
ThreadPool::claimTask(std::size_t worker, std::uint32_t &task)
{
    // Fast path: pop the front of our own chunk.
    std::atomic<PackedRange> &own = chunks_[worker];
    PackedRange r = own.load();
    while (unpackBegin(r) < unpackEnd(r)) {
        if (own.compare_exchange_weak(
                r, pack(unpackBegin(r) + 1, unpackEnd(r)))) {
            task = unpackBegin(r);
            return true;
        }
    }

    // Steal the back half of the largest remaining chunk. Retry until
    // a claim succeeds or every chunk is seen empty in one sweep.
    for (;;) {
        std::size_t victim = chunks_.size();
        std::uint32_t victimSize = 0;
        for (std::size_t v = 0; v < chunks_.size(); ++v) {
            PackedRange vr = chunks_[v].load();
            std::uint32_t size = unpackEnd(vr) - unpackBegin(vr);
            if (unpackBegin(vr) < unpackEnd(vr) && size > victimSize) {
                victim = v;
                victimSize = size;
            }
        }
        if (victim == chunks_.size())
            return false;

        std::atomic<PackedRange> &target = chunks_[victim];
        PackedRange vr = target.load();
        std::uint32_t begin = unpackBegin(vr);
        std::uint32_t end = unpackEnd(vr);
        if (begin >= end)
            continue;
        std::uint32_t stolen = end - (end - begin + 1) / 2;
        if (!target.compare_exchange_weak(vr, pack(begin, stolen)))
            continue;
        // We own [stolen, end): run its first task, keep the rest.
        own.store(pack(stolen + 1, end));
        task = stolen;
        return true;
    }
}

} // namespace isaria
