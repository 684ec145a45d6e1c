/**
 * @file
 * Parallel experiment driver tests: an N-thread sweep must produce
 * bit-identical per-job results and merged statistics to the
 * sequential run, per-job seeding must be deterministic, and the
 * merge fold must account for every counter exactly once.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "sim/parallel_runner.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** Small sweep: 3 workloads x 2 techniques at reduced scale. */
std::vector<SimJob>
smallSweep()
{
    std::vector<SimJob> jobs;
    for (const char *alias : {"ccs", "mst", "ctr"}) {
        for (Technique tech : {Technique::Baseline,
                               Technique::RenderingElimination}) {
            SimJob job;
            job.workload = alias;
            job.config.scaleResolution(256, 160);
            job.config.technique = tech;
            job.options.frames = 6;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Field-by-field bit equality of two results (stats maps included). */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.technique, b.technique);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.geometryCycles, b.geometryCycles);
    EXPECT_EQ(a.rasterCycles, b.rasterCycles);
    EXPECT_EQ(a.energy.gpuDynamic, b.energy.gpuDynamic);
    EXPECT_EQ(a.energy.gpuStatic, b.energy.gpuStatic);
    EXPECT_EQ(a.energy.memDynamic, b.energy.memDynamic);
    EXPECT_EQ(a.energy.memStatic, b.energy.memStatic);
    for (int c = 0; c < 4; c++) {
        EXPECT_EQ(a.traffic.read[c], b.traffic.read[c]);
        EXPECT_EQ(a.traffic.write[c], b.traffic.write[c]);
        EXPECT_EQ(a.traffic.writeback[c], b.traffic.writeback[c]);
    }
    EXPECT_EQ(a.tileClasses.comparedTiles, b.tileClasses.comparedTiles);
    EXPECT_EQ(a.tileClasses.equalColorsEqualInputs,
              b.tileClasses.equalColorsEqualInputs);
    EXPECT_EQ(a.tileClasses.equalColorsDiffInputs,
              b.tileClasses.equalColorsDiffInputs);
    EXPECT_EQ(a.tileClasses.diffColorsDiffInputs,
              b.tileClasses.diffColorsDiffInputs);
    EXPECT_EQ(a.tileClasses.diffColorsEqualInputs,
              b.tileClasses.diffColorsEqualInputs);
    EXPECT_EQ(a.tilesTotal, b.tilesTotal);
    EXPECT_EQ(a.tilesRendered, b.tilesRendered);
    EXPECT_EQ(a.tilesSkippedByRe, b.tilesSkippedByRe);
    EXPECT_EQ(a.tileFlushesEliminated, b.tileFlushesEliminated);
    EXPECT_EQ(a.fragmentsShaded, b.fragmentsShaded);
    EXPECT_EQ(a.fragmentsMemoReused, b.fragmentsMemoReused);
    EXPECT_EQ(a.equalTilesConsecutivePct, b.equalTilesConsecutivePct);
    EXPECT_EQ(a.signatureStallCycles, b.signatureStallCycles);
    EXPECT_EQ(a.reFalsePositives, b.reFalsePositives);
    EXPECT_EQ(a.stats.allCounters(), b.stats.allCounters());
    EXPECT_EQ(a.stats.allScalars(), b.stats.allScalars());
}

} // namespace

TEST(ParallelRunner, WorkerCountClamping)
{
    EXPECT_EQ(ParallelRunner(1).workerCount(), 1u);
    EXPECT_EQ(ParallelRunner(7).workerCount(), 7u);
    // 0 resolves to the hardware concurrency (>= 1 always).
    EXPECT_GE(ParallelRunner(0).workerCount(), 1u);
}

TEST(ParallelRunner, EmptyJobVector)
{
    ParallelRunner runner(4);
    EXPECT_TRUE(runner.run({}).empty());
}

TEST(ParallelRunner, DeterministicAcrossWorkerCounts)
{
    const std::vector<SimJob> jobs = smallSweep();

    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);
    const std::vector<SimResult> par4 = ParallelRunner(4).run(jobs);
    const std::vector<SimResult> parN = ParallelRunner(0).run(jobs);

    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par4.size(), jobs.size());
    ASSERT_EQ(parN.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(seq[i], par4[i]);
        expectIdentical(seq[i], parN[i]);
    }

    // The merged aggregate is a deterministic fold, so it must also
    // match bit-for-bit.
    expectIdentical(mergeResults(seq), mergeResults(par4));
}

TEST(ParallelRunner, ResultsInJobOrderNotCompletionOrder)
{
    // Jobs of very different cost: big baseline first, tiny runs after.
    std::vector<SimJob> jobs;
    SimJob heavy;
    heavy.workload = "mst";
    heavy.config.scaleResolution(512, 320);
    heavy.options.frames = 8;
    jobs.push_back(heavy);
    for (int i = 0; i < 3; i++) {
        SimJob light;
        light.workload = "ccs";
        light.config.scaleResolution(128, 96);
        light.options.frames = 2;
        jobs.push_back(light);
    }

    // Progress arrives in job order on the calling thread even though
    // the heavy first cell finishes last, and carries each result.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    std::vector<std::string> delivered;
    const std::vector<SimResult> res =
        ParallelRunner(4).run(jobs, [&](const ProgressUpdate &u) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_EQ(u.done, order.size() + 1);
            order.push_back(u.jobIndex);
            ASSERT_NE(u.result, nullptr);
            delivered.push_back(u.result->workload);
        });
    ASSERT_EQ(res.size(), 4u);
    EXPECT_EQ(res[0].workload, "mst");
    for (int i = 1; i < 4; i++)
        EXPECT_EQ(res[i].workload, "ccs");
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(delivered,
              (std::vector<std::string>{"mst", "ccs", "ccs", "ccs"}));
}

TEST(ParallelRunner, MergeSumsEveryCounter)
{
    const std::vector<SimJob> jobs = smallSweep();
    const std::vector<SimResult> res = ParallelRunner(2).run(jobs);

    const SimResult merged = mergeResults(res);
    u64 frames = 0, tilesRendered = 0, fragmentsShaded = 0;
    Cycles raster = 0;
    for (const SimResult &r : res) {
        frames += r.frames;
        tilesRendered += r.tilesRendered;
        fragmentsShaded += r.fragmentsShaded;
        raster += r.rasterCycles;
    }
    EXPECT_EQ(merged.frames, frames);
    EXPECT_EQ(merged.tilesRendered, tilesRendered);
    EXPECT_EQ(merged.fragmentsShaded, fragmentsShaded);
    EXPECT_EQ(merged.rasterCycles, raster);
    // Inputs span several workloads AND several techniques.
    EXPECT_EQ(merged.workload, "merged (mixed techniques)");

    // Stat registries merge by name: pick one stat present in all runs
    // and check the sum.
    for (const auto &[name, val] : merged.stats.allCounters()) {
        u64 sum = 0;
        for (const SimResult &r : res)
            sum += r.stats.counter(name);
        EXPECT_EQ(val, sum) << "stat " << name;
    }
}

TEST(ParallelRunner, MergeLabelsTechniqueSpans)
{
    // Same workload, mixed techniques: the label must say so instead
    // of silently attributing the aggregate to the first technique.
    std::vector<SimJob> jobs;
    for (Technique tech : {Technique::Baseline,
                           Technique::RenderingElimination}) {
        SimJob job;
        job.workload = "ccs";
        job.config.scaleResolution(128, 96);
        job.config.technique = tech;
        job.options.frames = 2;
        jobs.push_back(std::move(job));
    }
    const SimResult merged = mergeResults(ParallelRunner(2).run(jobs));
    EXPECT_EQ(merged.workload, "ccs (mixed techniques)");

    // Uniform technique keeps the plain alias.
    jobs[1].config.technique = Technique::Baseline;
    const SimResult uniform = mergeResults(ParallelRunner(2).run(jobs));
    EXPECT_EQ(uniform.workload, "ccs");
    EXPECT_EQ(uniform.technique, Technique::Baseline);
}

TEST(ParallelRunner, UnknownAliasRejectedBeforeWorkersStart)
{
    // fatal() must fire on the calling thread (clean exit(1)), never
    // from inside a worker.
    SimJob bad;
    bad.workload = "nope";
    bad.config.scaleResolution(128, 96);
    bad.options.frames = 1;
    EXPECT_EXIT(ParallelRunner(4).run({bad, bad}),
                testing::ExitedWithCode(1), "unknown benchmark alias");
}

TEST(ParallelRunner, MergeOfEmptyAndSingle)
{
    EXPECT_EQ(mergeResults({}).frames, 0u);

    std::vector<SimJob> one = {smallSweep().front()};
    const std::vector<SimResult> res = ParallelRunner(1).run(one);
    const SimResult merged = mergeResults(res);
    expectIdentical(merged, res.front());
}

TEST(ParallelRunner, DeriveJobSeedDeterministicAndDistinct)
{
    // Same inputs -> same seed, forever.
    EXPECT_EQ(deriveJobSeed(1, "ccs", 0), deriveJobSeed(1, "ccs", 0));

    // Different alias / base / salt -> distinct seeds.
    std::set<u64> seeds;
    for (const char *alias : {"ccs", "mst", "ctr", "abi"})
        for (u64 base : {1ull, 2ull})
            for (u64 salt : {0ull, 1ull})
                seeds.insert(deriveJobSeed(base, alias, salt));
    EXPECT_EQ(seeds.size(), 16u);
}

TEST(ParallelRunner, SceneSeedFlowsIntoResults)
{
    // Identical jobs (same seed) must agree bit-for-bit even when
    // scheduled on different workers.
    SimJob a;
    a.workload = "ccs";
    a.config.scaleResolution(256, 160);
    a.options.frames = 4;
    const std::vector<SimResult> res = ParallelRunner(2).run({a, a});
    expectIdentical(res[0], res[1]);

    // The seed reaches scene generation: different seeds produce
    // different content. Aggregate counters are structural (the draw
    // list does not depend on the seed), so check at the framebuffer
    // level where texture content shows up.
    auto renderOnce = [](u64 seed) {
        GpuConfig config;
        config.scaleResolution(256, 160);
        auto scene = makeBenchmark("ccs", config, seed);
        Simulator sim(*scene, config, {});
        sim.stepFrame(0);
        // renderFrame swaps at frame end: frame 0's output is now the
        // front surface.
        const FrameBuffer &fb = sim.pipeline().frameBuffer();
        std::vector<Color> front;
        front.reserve(fb.pixelCount());
        for (u32 y = 0; y < config.screenHeight; y++)
            for (u32 x = 0; x < config.screenWidth; x++)
                front.push_back(fb.frontPixel(x, y));
        return front;
    };
    const u64 otherSeed = deriveJobSeed(1, "ccs", 7);
    ASSERT_NE(otherSeed, 1u);
    EXPECT_NE(renderOnce(1), renderOnce(otherSeed));
}
