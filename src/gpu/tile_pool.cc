#include "gpu/tile_pool.hh"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <thread>

#include "common/thread_annotations.hh"
#include "obs/obs.hh"

namespace regpu
{

namespace
{

/** Shared state of one runOrdered batch: per-item done flags
 *  published by workers, consumed in order by the folding caller, and
 *  first-exception capture. The condition variable pairs with the
 *  annotated mutex; it needs no capability annotation of its own
 *  (waiting releases/reacquires the mutex internally, invisible to -
 *  and safe under - the analysis). */
struct BatchState
{
    Mutex mutex;
    std::condition_variable_any ready;
    std::vector<u8> done REGPU_GUARDED_BY(mutex);
    std::exception_ptr firstError REGPU_GUARDED_BY(mutex);
};

} // namespace

void
runOrdered(std::size_t count, unsigned jobs,
           const std::function<void(std::size_t)> &work,
           const std::function<void(std::size_t)> &fold,
           const char *spanCat, const char *spanName)
{
    if (jobs > count)
        jobs = static_cast<unsigned>(count);
    if (jobs <= 1) {
        // The serial loop, definitionally: work and its fold
        // back-to-back per item, ascending.
        for (std::size_t i = 0; i < count; i++) {
            work(i);
            fold(i);
        }
        return;
    }

    BatchState state;
    {
        MutexLock lock(state.mutex);
        state.done.assign(count, 0);
    }
    // Claim counter: the sanctioned lone-atomic pattern - claim order
    // is a race by design, and nothing downstream depends on it
    // because the fold below is order-fixed. A failure stores `count`
    // so no worker claims another item.
    std::atomic<std::size_t> next{0};

    auto workerLoop = [&](unsigned workerIndex) {
        ObsScope span(spanCat, spanName, "worker",
                      static_cast<i64>(workerIndex), "count",
                      static_cast<i64>(count));
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            bool failed = false;
            try {
                work(i);
            } catch (...) {
                failed = true;
                next.store(count, std::memory_order_relaxed);
                MutexLock lock(state.mutex);
                if (!state.firstError)
                    state.firstError = std::current_exception();
            }
            {
                MutexLock lock(state.mutex);
                // A failed item still publishes "done" so the folding
                // caller wakes up and sees the error instead of
                // blocking on a result that will never come.
                state.done[i] = failed ? 2 : 1;
            }
            state.ready.notify_all();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    try {
        for (unsigned w = 0; w < jobs; w++)
            workers.emplace_back(workerLoop, w);
    } catch (...) {
        // No thread to spawn: stop and join the ones that started
        // before the exception leaves the frame they reference.
        next.store(count, std::memory_order_relaxed);
        for (auto &worker : workers)
            worker.join();
        throw;
    }

    // Eager in-order fold: wait for item i, fold it, move on. A fold
    // that throws must still join the pool before the exception
    // propagates, so the loop records rather than throws.
    std::exception_ptr foldError;
    for (std::size_t i = 0; i < count; i++) {
        {
            MutexLock lock(state.mutex);
            while (state.done[i] == 0 && !state.firstError)
                state.ready.wait(state.mutex);
            if (state.firstError)
                break;
        }
        try {
            fold(i);
        } catch (...) {
            foldError = std::current_exception();
            next.store(count, std::memory_order_relaxed);
            break;
        }
    }

    for (auto &worker : workers)
        worker.join();

    if (foldError)
        std::rethrow_exception(foldError);
    MutexLock lock(state.mutex);
    if (state.firstError)
        std::rethrow_exception(state.firstError);
}

} // namespace regpu
