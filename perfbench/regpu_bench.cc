/**
 * @file
 * Benchmark binary: runs a list of (workload, technique) cells through
 * makeBenchmark + Simulator for a wall-time budget and prints one JSON
 * record per line on stdout. perfbench/run.py turns the records into
 * metrics and applies the correctness gate; README.md describes both.
 *
 * Three passes exist per cell:
 *
 *  - "plain": Simulator::run with only a timing FrameSource decorator
 *    around the scene, so each frame's host time runs from one
 *    emitFrame call to the next and includes Simulator::run's
 *    post-processing. It is read on two clocks: wall time, and the CPU
 *    time of all the process's threads. Every end-to-end metric comes
 *    from this pass.
 *  - "traced" (--trace 1): the same frame loop composed in this file
 *    from the simulator's public modules, so each layer can be timed
 *    around the calls into it. Like every pass, it must give the
 *    cell's reference digest (expected_digests.json); run.py fails the
 *    cell otherwise.
 *  - "obs" (--trace 1): Simulator::run with SimOptions::obsDir set,
 *    to price the run-artifact writer.
 *
 * Every pass starts a fresh Simulator, so modelled caches start empty
 * and warm-up frames are counted, as in the paper-figure runs.
 *
 * --seeds lists scene seeds. Cell i of repetition r renders the scene
 * made from seed (r + i) mod n of the list, so the cells of one
 * repetition see different scenes and every cell cycles through all n
 * of them. A run then measures nearly the same mix of scenes whatever
 * seed its list starts at.
 */

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "crc/crc32.hh"
#include "gpu/pipeline.hh"
#include "gpu/tile_pool.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Cell
{
    std::string alias;
    Technique technique = Technique::Baseline;
    std::string label; //!< "alias:tech", as given on the command line
};

// Every cell runs at the paper's 598x384 for the figure benches'
// --fast run length: short enough that one run holds several
// repetitions of every cell, and the two warm-up frames still count.
// perfbench/expected_digests.json holds the outputs of this setting.
constexpr u64 kFrames = 12;
constexpr u32 kWidth = 598;
constexpr u32 kHeight = 384;
// An untraced run samples at least this many frames, so that run.py's
// p95 has ten samples above it. The traced run reports no percentile.
constexpr u64 kMinUntracedFrames = 200;

struct Args
{
    std::vector<Cell> cells;
    unsigned tileJobs = 1;
    std::vector<u64> seeds{1};
    double seconds = 10;
    bool trace = false;
    std::string obsDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    fatal(why, "\nusage: regpu_bench --cells ALIAS:TECH[,...] "
          "[--tile-jobs N] [--seeds N[,...]] [--seconds S] [--trace 0|1] "
          "[--obs-dir DIR]");
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *val = argv[++i];
        if (flag == "--cells") {
            std::stringstream list(val);
            std::string item;
            while (std::getline(list, item, ',')) {
                const auto colon = item.find(':');
                if (colon == std::string::npos)
                    usage("cell must be ALIAS:TECH, got: " + item);
                Cell c;
                c.alias = item.substr(0, colon);
                if (!isBenchmarkAlias(c.alias))
                    fatalUnknownAlias(c.alias);
                c.technique = parseTechniqueArg(item.substr(colon + 1));
                c.label = item;
                a.cells.push_back(c);
            }
        } else if (flag == "--tile-jobs") {
            a.tileJobs = parseTileJobsArg(val);
        } else if (flag == "--seeds") {
            a.seeds.clear();
            std::stringstream list(val);
            std::string item;
            while (std::getline(list, item, ','))
                a.seeds.push_back(parseCountArg("--seeds", item.c_str()));
            if (a.seeds.empty())
                usage("--seeds needs at least one seed");
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0' || !(a.seconds > 0))
                usage(std::string("--seconds expects a positive number, "
                                  "got: ") + val);
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage(std::string("--trace expects 0 or 1, got: ") + val);
            a.trace = val[0] == '1';
        } else if (flag == "--obs-dir") {
            a.obsDir = val;
        } else {
            usage("unknown flag: " + flag);
        }
    }
    if (a.cells.empty())
        usage("--cells is required");
    if (a.trace && a.obsDir.empty())
        usage("--trace 1 needs --obs-dir");
    return a;
}

GpuConfig
cellConfig(const Cell &cell)
{
    GpuConfig config;
    config.scaleResolution(kWidth, kHeight);
    config.technique = cell.technique;
    return config;
}

SimOptions
cellOptions(const Args &a)
{
    SimOptions options;
    options.frames = kFrames;
    options.tileJobs = a.tileJobs;
    return options;
}

/** FNV-1a over the modelled outputs of one run. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; i++) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void u(u64 v) { bytes(&v, sizeof v); }
    void
    d(double v)
    {
        u64 bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u(bits);
    }
    void
    s(std::string_view v)
    {
        u(v.size());
        bytes(v.data(), v.size());
    }
    u64 value() const { return h; }

  private:
    u64 h = 0xcbf29ce484222325ull;
};

/** CRC-32 of both Frame Buffer surfaces (back, then front). */
u32
framebufferCrc(FrameBuffer &fb, const GpuConfig &config)
{
    std::vector<Color> front(fb.pixelCount());
    for (u32 y = 0; y < config.screenHeight; y++)
        for (u32 x = 0; x < config.screenWidth; x++)
            front[static_cast<std::size_t>(y) * config.screenWidth + x] =
                fb.frontPixel(x, y);
    Crc32Stream crc;
    auto add = [&crc](const std::vector<Color> &surface) {
        crc.update({reinterpret_cast<const u8 *>(surface.data()),
                    surface.size() * sizeof(Color)});
    };
    add(fb.backSurface());
    add(front);
    return crc.value();
}

/** Every SimResult counter, the whole StatRegistry and the final
 *  Frame Buffer CRC. */
u64
modelDigest(const SimResult &r, u32 fbCrc)
{
    Digest h;
    h.s(r.workload);
    h.u(static_cast<u64>(r.technique));
    h.u(r.frames);
    h.u(r.geometryCycles);
    h.u(r.rasterCycles);
    h.d(r.energy.gpuDynamic);
    h.d(r.energy.gpuStatic);
    h.d(r.energy.memDynamic);
    h.d(r.energy.memStatic);
    for (int i = 0; i < 4; i++) {
        h.u(r.traffic.read[i]);
        h.u(r.traffic.write[i]);
        h.u(r.traffic.writeback[i]);
    }
    const TileClassCounts &c = r.tileClasses;
    for (u64 v : {c.comparedTiles, c.equalColorsEqualInputs,
                  c.equalColorsDiffInputs, c.diffColorsDiffInputs,
                  c.diffColorsEqualInputs})
        h.u(v);
    for (u64 v : {r.tilesTotal, r.tilesRendered, r.tilesSkippedByRe,
                  r.tileFlushesEliminated, r.fragmentsShaded,
                  r.fragmentsMemoReused, r.signatureStallCycles,
                  r.reFalsePositives})
        h.u(v);
    h.d(r.equalTilesConsecutivePct);
    r.stats.forEachCounter([&h](std::string_view name, u64 v) {
        h.s(name);
        h.u(v);
    });
    r.stats.forEachScalar([&h](std::string_view name, double v) {
        h.s(name);
        h.d(v);
    });
    h.u(fbCrc);
    return h.value();
}

/** CPU time used so far by all threads of the process, in ms. The
 *  tile pool's workers are joined before renderFrame returns, so a
 *  frame's reading includes its workers' time. */
double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/** Stamps the start of every emitFrame call on both clocks. */
class TimedSource : public FrameSource
{
  public:
    explicit TimedSource(const FrameSource &inner_) : inner(inner_) {}

    const std::string &name() const override { return inner.name(); }
    const std::vector<Texture> &textures() const override
    { return inner.textures(); }
    FrameCommands
    emitFrame(u64 frame) const override
    {
        starts.push_back(Clock::now());
        cpuStarts.push_back(processCpuMs());
        return inner.emitFrame(frame);
    }

    mutable std::vector<Clock::time_point> starts;
    mutable std::vector<double> cpuStarts;

  private:
    const FrameSource &inner;
};

/**
 * Forwards every hook to the technique (or to the baseline defaults
 * when there is none) and times the calls made on the thread that
 * drives the frame. Tile-pool workers call queryRenderTile and
 * prepareFlushTile concurrently; those calls overlap the raster phase
 * and are forwarded untimed.
 */
class TimedHooks final : public PipelineHooks
{
  public:
    explicit TimedHooks(PipelineHooks *inner_)
        : inner(inner_), owner(std::this_thread::get_id())
    {}

    TimedHooks(const TimedHooks &) = delete;
    TimedHooks &operator=(const TimedHooks &) = delete;

    /** Hook time before geometryDone (geometry phase), between
     *  geometryDone and frameEnd (raster phase), and inside those two
     *  boundary calls, in ms. */
    double phaseMs[2] = {0, 0};
    double boundaryMs = 0;
    Clock::time_point geometryDoneAt, rasterStartAt, frameEndAt;

    void
    startFrame()
    {
        phaseMs[0] = phaseMs[1] = boundaryMs = 0;
        phase = 0;
    }

    double hooksMs() const { return phaseMs[0] + phaseMs[1] + boundaryMs; }

    void
    frameBegin(u64 frameIndex, bool reSafe) override
    {
        timed([&] {
            if (inner)
                inner->frameBegin(frameIndex, reSafe);
        });
    }
    void
    onDrawcallConstants(u32 drawIndex, const DrawCall &draw) override
    {
        timed([&] {
            if (inner)
                inner->onDrawcallConstants(drawIndex, draw);
        });
    }
    void
    onPrimitiveBinned(const Primitive &prim, const DrawCall &draw,
                      const std::vector<TileId> &tiles) override
    {
        timed([&] {
            if (inner)
                inner->onPrimitiveBinned(prim, draw, tiles);
        });
    }
    void
    geometryDone() override
    {
        geometryDoneAt = Clock::now();
        if (inner)
            inner->geometryDone();
        rasterStartAt = Clock::now();
        boundaryMs += msBetween(geometryDoneAt, rasterStartAt);
        phase = 1;
    }
    bool
    shouldRenderTile(TileId tile) override
    {
        return timed([&] {
            return inner ? inner->shouldRenderTile(tile) : true;
        });
    }
    bool
    shouldFlushTile(TileId tile, const std::vector<Color> &colors) override
    {
        return timed([&] {
            return inner ? inner->shouldFlushTile(tile, colors) : true;
        });
    }
    void
    frameEnd() override
    {
        frameEndAt = Clock::now();
        if (inner)
            inner->frameEnd();
        boundaryMs += msBetween(frameEndAt, Clock::now());
    }
    FragmentMemoClient *
    memoClient() override
    {
        return inner ? inner->memoClient() : nullptr;
    }
    bool
    tileWorkersSafe() const override
    {
        // The pipeline treats "no hooks" as tile-parallel-safe.
        return inner ? inner->tileWorkersSafe() : true;
    }
    bool
    queryRenderTile(TileId tile) override
    {
        return timed([&] {
            return inner ? inner->queryRenderTile(tile) : true;
        });
    }
    u32
    prepareFlushTile(TileId tile, const std::vector<Color> &colors) override
    {
        return timed([&] {
            return inner ? inner->prepareFlushTile(tile, colors) : 0u;
        });
    }
    bool
    shouldFlushTilePre(TileId tile, const std::vector<Color> &colors,
                       u32 prepared) override
    {
        return timed([&] {
            return inner ? inner->shouldFlushTilePre(tile, colors, prepared)
                         : true;
        });
    }

  private:
    template <typename Fn>
    auto
    timed(Fn &&fn) -> decltype(fn())
    {
        if (std::this_thread::get_id() != owner)
            return fn();
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            phaseMs[phase] += msBetween(t0, Clock::now());
        } else {
            auto r = fn();
            phaseMs[phase] += msBetween(t0, Clock::now());
            return r;
        }
    }

    PipelineHooks *inner;
    const std::thread::id owner;
    int phase = 0;
};

/** One pass over one cell. */
struct PassResult
{
    SimResult result;
    u64 framesDone = 0;
    double setupS = 0;
    double runS = 0;
    std::vector<double> frameMs;
    u32 fbCrc = 0;

    // Plain and obs passes only: the CPU-time reading of runS and
    // frameMs.
    double runCpuS = 0;
    std::vector<double> frameCpuMs;

    // Traced pass only: per-frame layer times (ms) and memory counts.
    std::vector<double> emitMs, geometryMs, hooksMs, rasterMs, memMs;
    u64 memEvents = 0;
    u64 textureHits = 0, textureAccesses = 0, l2Hits = 0, l2Accesses = 0;
};

std::vector<double>
frameTimes(const std::vector<Clock::time_point> &starts,
           Clock::time_point end)
{
    std::vector<double> ms;
    for (std::size_t i = 0; i < starts.size(); i++)
        ms.push_back(msBetween(starts[i],
                               i + 1 < starts.size() ? starts[i + 1] : end));
    return ms;
}

/** makeBenchmark + Simulator construction, then Simulator::run. */
PassResult
runSimulator(const Cell &cell, u64 seed, const Args &a,
             const std::string &obsDir)
{
    PassResult p;
    const GpuConfig config = cellConfig(cell);
    SimOptions options = cellOptions(a);
    options.obsDir = obsDir;

    const auto t0 = Clock::now();
    std::unique_ptr<Scene> scene = makeBenchmark(cell.alias, config, seed);
    TimedSource source(*scene);
    Simulator sim(source, config, options);
    const auto t1 = Clock::now();
    const double cpu1 = processCpuMs();
    p.result = sim.run();
    const auto t2 = Clock::now();
    const double cpu2 = processCpuMs();

    p.setupS = msBetween(t0, t1) / 1e3;
    p.runS = msBetween(t1, t2) / 1e3;
    p.runCpuS = (cpu2 - cpu1) / 1e3;
    p.framesDone = source.starts.size();
    p.frameMs = frameTimes(source.starts, t2);
    for (std::size_t i = 0; i < source.cpuStarts.size(); i++) {
        const bool last = i + 1 == source.cpuStarts.size();
        p.frameCpuMs.push_back((last ? cpu2 : source.cpuStarts[i + 1])
                               - source.cpuStarts[i]);
    }
    p.fbCrc = framebufferCrc(sim.pipeline().frameBuffer(), config);
    return p;
}

/**
 * The traced pass: Simulator::run() rebuilt step for step from the
 * simulator's public modules, with a clock read around the calls into
 * each layer. The pipeline renders into a MemEventRecorder; each
 * frame's access stream is then replayed into the MemSystem in
 * emission order, which leaves every cache in the state the direct
 * calls would have. Any drift from Simulator::run shows up as a digest
 * mismatch against the reference.
 */
PassResult
runTraced(const Cell &cell, u64 seed, const Args &a)
{
    PassResult p;
    GpuConfig config = cellConfig(cell);
    const SimOptions options = cellOptions(a);

    const auto t0 = Clock::now();
    std::unique_ptr<Scene> scene = makeBenchmark(cell.alias, config, seed);
    config.validate();
    StatRegistry statsReg;
    MemSystem mem(config);
    MemEventRecorder recorder;
    GraphicsPipeline pipe(config, statsReg, &recorder, scene->textures());
    if (options.tileJobs > 1)
        pipe.setTileJobs(options.tileJobs);
    std::unique_ptr<RenderingElimination> re;
    std::unique_ptr<TransactionElimination> te;
    std::unique_ptr<FragmentMemoization> memo;
    PipelineHooks *technique = nullptr;
    switch (config.technique) {
      case Technique::Baseline:
        break;
      case Technique::RenderingElimination:
        re = std::make_unique<RenderingElimination>(config, statsReg,
                                                    options.hashKind);
        technique = re.get();
        break;
      case Technique::TransactionElimination:
        te = std::make_unique<TransactionElimination>(config, statsReg);
        technique = te.get();
        break;
      case Technique::FragmentMemoization:
        memo = std::make_unique<FragmentMemoization>(config, statsReg);
        technique = memo.get();
        break;
    }
    TimedHooks hooks(technique);
    pipe.setHooks(&hooks);
    CycleModel cycles(config);
    EnergyModel energy;
    const auto t1 = Clock::now();

    SimResult &result = p.result;
    result.workload = scene->name();
    result.technique = config.technique;
    result.frames = options.frames;
    const u32 numTiles = config.numTiles();
    std::vector<Color> prevFrameColors;
    u64 equalConsecutiveTiles = 0;
    u64 comparedConsecutiveTiles = 0;
    std::vector<Clock::time_point> starts;

    for (u64 f = 0; f < options.frames; f++) {
        std::vector<Color> frontCopy;
        if (f > 0)
            frontCopy = prevFrameColors;

        starts.push_back(Clock::now());
        FrameCommands cmds = scene->emitFrame(f);
        const auto renderStart = Clock::now();
        hooks.startFrame();
        FrameResult fr = pipe.renderFrame(cmds, options.groundTruth);
        const auto memStart = Clock::now();
        p.memEvents += recorder.size();
        recorder.replay(mem);
        recorder.clear();
        MemFrameSummary memSum = mem.endFrame();
        const auto memEnd = Clock::now();

        p.emitMs.push_back(msBetween(starts.back(), renderStart));
        p.geometryMs.push_back(msBetween(renderStart, hooks.geometryDoneAt)
                               - hooks.phaseMs[0]);
        p.rasterMs.push_back(msBetween(hooks.rasterStartAt, hooks.frameEndAt)
                             - hooks.phaseMs[1]);
        p.hooksMs.push_back(hooks.hooksMs());
        p.memMs.push_back(msBetween(memStart, memEnd));

        // ---- Tile classification (as Simulator::run).
        const bool haveComparison = config.doubleBuffered ? f >= 2 : f >= 1;
        for (TileId t = 0; t < numTiles; t++) {
            const TileOutcome &out = fr.tiles[t];
            result.tilesTotal++;
            if (out.rendered)
                result.tilesRendered++;
            else
                result.tilesSkippedByRe++;
            if (out.rendered && !out.flushed)
                result.tileFlushesEliminated++;
            if (haveComparison) {
                result.tileClasses.comparedTiles++;
                const bool equalInputs = re != nullptr && !out.rendered;
                if (out.equalColors && equalInputs)
                    result.tileClasses.equalColorsEqualInputs++;
                else if (out.equalColors && !equalInputs)
                    result.tileClasses.equalColorsDiffInputs++;
                else if (!out.equalColors && !equalInputs)
                    result.tileClasses.diffColorsDiffInputs++;
                else
                    result.tileClasses.diffColorsEqualInputs++;
            }
            result.fragmentsShaded += out.stats.fragmentsShaded;
            result.fragmentsMemoReused += out.stats.fragmentsMemoReused;
        }

        // ---- Fig. 2: equality against the previous displayed frame.
        FrameBuffer &fb = pipe.frameBuffer();
        if (f > 0 && !frontCopy.empty()) {
            for (TileId t = 0; t < numTiles; t++) {
                const u32 tx = (t % config.tilesX()) * config.tileWidth;
                const u32 ty = (t / config.tilesX()) * config.tileHeight;
                bool equal = true;
                for (u32 dy = 0; dy < config.tileHeight && equal; dy++) {
                    const u32 y = ty + dy;
                    if (y >= config.screenHeight)
                        break;
                    for (u32 dx = 0; dx < config.tileWidth; dx++) {
                        const u32 x = tx + dx;
                        if (x >= config.screenWidth)
                            break;
                        const std::size_t idx =
                            static_cast<std::size_t>(y) * config.screenWidth
                            + x;
                        if (!(fb.frontPixel(x, y) == frontCopy[idx])) {
                            equal = false;
                            break;
                        }
                    }
                }
                comparedConsecutiveTiles++;
                if (equal)
                    equalConsecutiveTiles++;
            }
        }
        prevFrameColors.resize(fb.pixelCount());
        for (u32 y = 0; y < config.screenHeight; y++)
            for (u32 x = 0; x < config.screenWidth; x++)
                prevFrameColors[static_cast<std::size_t>(y)
                                * config.screenWidth + x] =
                    fb.frontPixel(x, y);

        // ---- Cycle model.
        const Cycles geo = cycles.geometryCycles(
            fr, memSum.vertexMisses, mem.dram().averageRowLatency());
        const Cycles stall = re ? re->frameStallCycles() : 0;
        result.signatureStallCycles += stall;
        result.geometryCycles += geo + stall;
        const u64 rasterBytes =
            memSum.dramDelta[TrafficClass::Primitives]
            + memSum.dramDelta[TrafficClass::Texels]
            + memSum.dramDelta[TrafficClass::Colors]
            + memSum.dramDelta.writebacks(TrafficClass::Geometry);
        u64 frameFragWork = 0;
        for (const TileOutcome &out : fr.tiles)
            frameFragWork += out.stats.fragmentsGenerated + 1;
        Cycles raster = 0;
        for (TileId t = 0; t < numTiles; t++) {
            const TileOutcome &out = fr.tiles[t];
            if (!out.rendered) {
                raster += cycles.skippedTileCycles();
                continue;
            }
            const u64 weight = out.stats.fragmentsGenerated + 1;
            const u64 share =
                frameFragWork ? rasterBytes * weight / frameFragWork : 0;
            const Cycles texStall = frameFragWork
                ? memSum.texelStallCycles * weight / frameFragWork
                : 0;
            raster += cycles.tileCycles(out.stats, share, texStall);
        }
        result.rasterCycles += raster;
    }

    // ---- End of run (as Simulator::run).
    mem.flushResident();
    const DramModel &dram = mem.dram();
    energy.chargeDram(dram.accesses(), dram.traffic().total(),
                      dram.rowMisses());
    energy.chargeCaches(mem.vertexCacheRef().accesses(),
                        mem.textureCacheAccesses(),
                        mem.tileCacheRef().accesses(),
                        mem.l2Ref().accesses());
    energy.chargeDatapath(
        statsReg.counter("geometry.verticesFetched"),
        statsReg.counter("geometry.vertexShaderInstrs"),
        statsReg.counter("geometry.primitivesOut"),
        statsReg.counter("binning.tileOverlaps"),
        statsReg.counter("raster.fragmentsGenerated"),
        statsReg.counter("raster.fragmentsGenerated"),
        statsReg.counter("raster.shaderInstructions"),
        statsReg.counter("raster.blendOps"),
        statsReg.counter("raster.blendOps")
            + statsReg.counter("raster.fragmentsGenerated"));
    energy.chargeSignatureHw(
        statsReg.counter("re.lutAccesses")
            + statsReg.counter("te.lutAccesses"),
        statsReg.counter("re.sigBufferAccesses")
            + statsReg.counter("te.sigBufferAccesses"),
        statsReg.counter("re.otPushes"),
        statsReg.counter("re.bitmapAccesses"));
    energy.chargeStatic(result.totalCycles());
    result.energy = energy.breakdown();
    result.traffic = dram.traffic();

    statsReg.inc("mem.conservationViolations",
                 mem.checkConservation().violations);
    statsReg.inc("mem.dramReadBytes", dram.traffic().totalReads());
    statsReg.inc("mem.dramWriteBytes", dram.traffic().totalWrites());
    statsReg.inc("mem.dramWritebackBytes", dram.traffic().totalWritebacks());
    result.reFalsePositives = statsReg.counter("re.falsePositives");
    result.equalTilesConsecutivePct = comparedConsecutiveTiles
        ? 100.0 * equalConsecutiveTiles / comparedConsecutiveTiles
        : 0.0;
    result.stats = statsReg;
    const auto t2 = Clock::now();

    p.setupS = msBetween(t0, t1) / 1e3;
    p.runS = msBetween(t1, t2) / 1e3;
    p.framesDone = starts.size();
    p.frameMs = frameTimes(starts, t2);
    p.fbCrc = framebufferCrc(pipe.frameBuffer(), config);
    for (u32 i = 0; i < mem.numTextureCaches(); i++) {
        p.textureHits += mem.textureCacheRef(i).hits();
        p.textureAccesses += mem.textureCacheRef(i).accesses();
    }
    p.l2Hits = mem.l2Ref().hits();
    p.l2Accesses = mem.l2Ref().accesses();
    return p;
}

void
printArray(std::ostringstream &os, const char *key,
           const std::vector<double> &v)
{
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); i++)
        os << (i ? "," : "") << v[i];
    os << "]";
}

void
emitPass(const Cell &cell, u64 seed, const char *pass, u64 rep,
         const PassResult &p)
{
    const SimResult &r = p.result;
    std::ostringstream os;
    os.precision(9);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      modelDigest(r, p.fbCrc)));
    os << "{\"type\":\"pass\",\"cell\":\"" << cell.label
       << "\",\"technique\":\"" << techniqueName(cell.technique)
       << "\",\"pass\":\"" << pass << "\",\"rep\":" << rep
       << ",\"scene_seed\":" << seed
       << ",\"frames_requested\":" << kFrames
       << ",\"frames_done\":" << p.framesDone
       << ",\"setup_s\":" << p.setupS << ",\"run_s\":" << p.runS
       << ",\"digest\":\"" << digest << "\""
       << ",\"conservation_violations\":"
       << r.stats.counter("mem.conservationViolations")
       << ",\"re_false_positives\":" << r.reFalsePositives
       << ",\"model\":{\"tiles_total\":" << r.tilesTotal
       << ",\"tiles_rendered\":" << r.tilesRendered
       << ",\"tiles_skipped\":" << r.tilesSkippedByRe
       << ",\"flushes_elided\":" << r.tileFlushesEliminated
       << ",\"fragments_generated\":"
       << r.stats.counter("raster.fragmentsGenerated")
       << ",\"fragments_shaded\":" << r.fragmentsShaded
       << ",\"fragments_memo_reused\":" << r.fragmentsMemoReused
       << ",\"texel_fetches\":" << r.stats.counter("raster.texelFetches")
       << ",\"cycles\":" << r.totalCycles()
       << ",\"energy_pj\":" << r.energy.total()
       << ",\"dram_bytes\":" << r.traffic.total() << "}";
    printArray(os, "frame_ms", p.frameMs);
    if (!p.frameCpuMs.empty()) {
        os << ",\"run_cpu_s\":" << p.runCpuS;
        printArray(os, "frame_cpu_ms", p.frameCpuMs);
    }
    if (!p.emitMs.empty()) {
        os << ",\"mem_events\":" << p.memEvents
           << ",\"texture_hits\":" << p.textureHits
           << ",\"texture_accesses\":" << p.textureAccesses
           << ",\"l2_hits\":" << p.l2Hits
           << ",\"l2_accesses\":" << p.l2Accesses;
        printArray(os, "emit_ms", p.emitMs);
        printArray(os, "geometry_ms", p.geometryMs);
        printArray(os, "hooks_ms", p.hooksMs);
        printArray(os, "raster_ms", p.rasterMs);
        printArray(os, "mem_ms", p.memMs);
    }
    os << "}\n";
    std::fputs(os.str().c_str(), stdout);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    // Whole repetitions of the cell list until the budget is spent and
    // an untraced run has sampled enough frames for the tail
    // percentile; a repetition that would overrun the budget is not
    // started.
    const u64 minSamples = a.trace ? 0 : kMinUntracedFrames;
    // Untimed warm-up: one pass of the first cell faults in the code
    // and the allocator's pages before the clock starts.
    runSimulator(a.cells.front(), a.seeds.front(), a, "");
    const auto start = Clock::now();
    u64 rep = 0;
    u64 samples = 0;
    for (;;) {
        const auto repStart = Clock::now();
        for (std::size_t i = 0; i < a.cells.size(); i++) {
            const Cell &cell = a.cells[i];
            const u64 seed = a.seeds[(rep + i) % a.seeds.size()];
            const PassResult plain = runSimulator(cell, seed, a, "");
            emitPass(cell, seed, "plain", rep, plain);
            samples += plain.frameMs.size();
            if (a.trace) {
                emitPass(cell, seed, "traced", rep, runTraced(cell, seed, a));
                emitPass(cell, seed, "obs", rep,
                         runSimulator(cell, seed, a, a.obsDir));
            }
        }
        rep++;
        const auto now = Clock::now();
        const double elapsedS = msBetween(start, now) / 1e3;
        const double repS = msBetween(repStart, now) / 1e3;
        if (samples >= minSamples && elapsedS + repS > a.seconds)
            break;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("{\"type\":\"summary\",\"reps\":%llu,\"measured_s\":%.9g,"
                "\"peak_rss_kb\":%ld}\n",
                static_cast<unsigned long long>(rep),
                msBetween(start, Clock::now()) / 1e3, usage.ru_maxrss);
    return 0;
}
