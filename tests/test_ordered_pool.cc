/**
 * @file
 * Direct tests of runOrdered(), the one worker pool behind both the
 * intra-frame tile pool and ParallelRunner's sweep cells: in-order
 * folding on the calling thread under uneven work times, exception
 * propagation from work and from fold without hangs, and the empty
 * and oversubscribed edge cases. Runs under `scripts/check.sh --tsan`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpu/tile_pool.hh"

using namespace regpu;

namespace
{

/** Uneven, index-dependent work time: later items often finish
 *  before earlier ones, so an in-order fold must wait for them. */
void
unevenDelay(std::size_t i)
{
    std::this_thread::sleep_for(
        std::chrono::microseconds(((i * 7) % 5) * 300));
}

} // namespace

TEST(OrderedPool, FoldsInIndexOrderOnTheCallingThread)
{
    const std::size_t count = 24;
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::thread::id caller = std::this_thread::get_id();
        // Plain (non-atomic) slots: work writes slot i, fold reads it.
        // The pool must order the two (TSan checks it does).
        std::vector<std::size_t> produced(count, 0);
        std::vector<std::size_t> folded;
        bool foldOffCaller = false;
        runOrdered(
            count, jobs,
            [&](std::size_t i) {
                unevenDelay(i);
                produced[i] = i + 1;
            },
            [&](std::size_t i) {
                foldOffCaller |= std::this_thread::get_id() != caller;
                EXPECT_EQ(produced[i], i + 1) << "fold ran before work";
                folded.push_back(i);
            },
            "test", "poolWorker");
        EXPECT_FALSE(foldOffCaller);
        ASSERT_EQ(folded.size(), count);
        for (std::size_t i = 0; i < count; i++)
            EXPECT_EQ(folded[i], i);
    }
}

TEST(OrderedPool, WorkExceptionIsRethrownAndFoldStopsBelowIt)
{
    const std::size_t count = 32, failAt = 7;
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::vector<std::size_t> folded;
        try {
            runOrdered(
                count, jobs,
                [&](std::size_t i) {
                    unevenDelay(i);
                    if (i == failAt)
                        throw std::runtime_error("work failed at 7");
                },
                [&](std::size_t i) { folded.push_back(i); }, "test",
                "poolWorker");
            ADD_FAILURE() << "runOrdered swallowed the work exception";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "work failed at 7");
        }
        // A contiguous prefix strictly below the failed index.
        EXPECT_LT(folded.size(), failAt + 1);
        for (std::size_t i = 0; i < folded.size(); i++)
            EXPECT_EQ(folded[i], i);
        if (jobs == 1) {
            EXPECT_EQ(folded.size(), failAt);
        }
    }
}

TEST(OrderedPool, FoldExceptionIsRethrownAfterWorkersJoin)
{
    const std::size_t count = 32, failAt = 3;
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::atomic<int> inFlight{0};
        std::size_t folds = 0;
        try {
            runOrdered(
                count, jobs,
                [&](std::size_t i) {
                    inFlight.fetch_add(1);
                    unevenDelay(i);
                    inFlight.fetch_sub(1);
                },
                [&](std::size_t i) {
                    folds++;
                    if (i == failAt)
                        throw std::logic_error("fold failed at 3");
                },
                "test", "poolWorker");
            ADD_FAILURE() << "runOrdered swallowed the fold exception";
        } catch (const std::logic_error &e) {
            EXPECT_EQ(std::string(e.what()), "fold failed at 3");
        }
        // Every worker joined before the rethrow: none still runs.
        EXPECT_EQ(inFlight.load(), 0);
        EXPECT_EQ(folds, failAt + 1);
    }
}

TEST(OrderedPool, EmptyBatchAndMoreJobsThanItems)
{
    bool called = false;
    runOrdered(
        0, 4, [&](std::size_t) { called = true; },
        [&](std::size_t) { called = true; }, "test", "poolWorker");
    EXPECT_FALSE(called);

    for (unsigned jobs : {0u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::vector<int> produced(3, 0);
        std::vector<std::size_t> folded;
        runOrdered(
            3, jobs, [&](std::size_t i) { produced[i] = 1; },
            [&](std::size_t i) {
                EXPECT_EQ(produced[i], 1);
                folded.push_back(i);
            },
            "test", "poolWorker");
        EXPECT_EQ(folded, (std::vector<std::size_t>{0, 1, 2}));
    }
}
