#include "gpu/pipeline.hh"

#include <cstring>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "gpu/memiface.hh"
#include "gpu/tile_pool.hh"
#include "obs/obs.hh"

namespace regpu
{

namespace
{

static_assert(sizeof(ShadedVertex) == 11 * sizeof(float),
              "ShadedVertex must be padding-free to be keyed by its bytes");

/**
 * Serialise into @p key the exact bytes of every input
 * TileRenderer::renderTile reads for @p tile, in list order: the
 * clear color, then per primitive its three shaded vertices and the
 * draw state the renderer consults. Texture contents are fixed for
 * the pipeline's lifetime and a shadow render has no memory sink or
 * memo client, so equal keys mean equal colors. The clear color keeps
 * the key non-empty, so a never-filled cache slot cannot match.
 */
void
buildShadowKey(TileId tile, const BinnedFrame &frame,
          const FrameCommands &commands, std::vector<u8> &key)
{
    key.clear();
    auto put = [&key](const void *bytes, std::size_t n) {
        const std::size_t off = key.size();
        key.resize(off + n);
        std::memcpy(key.data() + off, bytes, n);
    };
    put(&commands.clearColor, sizeof(Color));
    for (const PrimRef &ref : frame.tileLists[tile]) {
        const Primitive &prim = frame.primitives[ref.primIndex];
        const PipelineState &state = commands.draws[prim.drawIndex].state;
        const u32 flags = static_cast<u32>(state.shader)
            | static_cast<u32>(state.blendMode) << 8
            | static_cast<u32>(state.depthTest) << 16
            | static_cast<u32>(state.depthWrite) << 24;
        put(prim.v, sizeof(prim.v));
        put(&flags, sizeof(flags));
        put(&state.textureId, sizeof(state.textureId));
        put(&state.uniforms.tint, sizeof(state.uniforms.tint));
    }
}

} // namespace

GraphicsPipeline::GraphicsPipeline(const GpuConfig &_config,
                                   StatRegistry &_stats, MemTraceSink *_mem,
                                   const std::vector<Texture> &_textures)
    : config(_config), stats(_stats), mem(_mem), textures(_textures),
      geometry(_config, _stats, _mem), plb(_config, _stats, _mem),
      fb(_config), shadowCache(_config.numTiles())
{
}

void
GraphicsPipeline::setTileJobs(unsigned jobs)
{
    REGPU_ASSERT(jobs >= 1, "tile-jobs must be >= 1 (CLI parsers "
                            "reject 0 before reaching here)");
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw && jobs > hw)
        warnOnce("--tile-jobs ", jobs, " exceeds hardware concurrency (",
                 hw, "); output is identical but the extra workers "
                 "only add scheduling overhead");
    tileJobs = jobs;
}

FrameResult
GraphicsPipeline::renderFrame(const FrameCommands &commands,
                              bool groundTruth)
{
    FrameResult result;
    result.frameIndex = frameCounter;

    const bool reSafe = !commands.globalStateChanged;
    if (hooks)
        hooks->frameBegin(frameCounter, reSafe);

    // ---- Geometry Pipeline + Tiling Engine -----------------------------
    plb.beginFrame(result.binned);
    if (hooks) {
        plb.setObserver([this](const Primitive &p, const DrawCall &d,
                               const std::vector<TileId> &tiles) {
            hooks->onPrimitiveBinned(p, d, tiles);
        });
    } else {
        plb.setObserver({});
    }

    {
        ObsScope geometrySpan("gpu", "geometry", "frame",
                              static_cast<i64>(frameCounter), "draws",
                              static_cast<i64>(commands.draws.size()));
        for (u32 d = 0; d < commands.draws.size(); d++) {
            const DrawCall &draw = commands.draws[d];
            if (hooks)
                hooks->onDrawcallConstants(d, draw);
            GeometryOutput geo = [&] {
                ObsScope vertexSpan("gpu", "vertex", "draw",
                                    static_cast<i64>(d));
                return geometry.process(draw);
            }();
            for (Primitive &p : geo.primitives)
                p.drawIndex = d;
            result.verticesShaded += geo.verticesShaded;
            result.trianglesAssembled += geo.primitives.size();
            ObsScope binningSpan("gpu", "binning", "draw",
                                 static_cast<i64>(d));
            plb.binDrawcall(draw, geo.primitives, result.binned);
        }
    }

    if (hooks)
        hooks->geometryDone();

    // ---- Raster Pipeline, tile by tile ---------------------------------
    const u32 numTiles = config.numTiles();
    result.tiles.resize(numTiles);

    std::optional<ObsScope> rasterSpan;
    rasterSpan.emplace("gpu", "raster", "frame",
                       static_cast<i64>(frameCounter), "tiles",
                       static_cast<i64>(numTiles));

    // Phase-1/merge split (docs/ARCHITECTURE.md): phase1 renders and
    // signatures a tile into its private task slot, merge folds
    // everything order-sensitive back in strict tile order. Hooks
    // that hold mutable per-tile state across renderTile (Fragment
    // Memoization's LUT) or never opted into the split contract are
    // forced into direct mode, so they see exactly the serial calls.
    FragmentMemoClient *memo = hooks ? hooks->memoClient() : nullptr;
    const bool workersSafe =
        !hooks || (hooks->tileWorkersSafe() && !memo);
    if (tileJobs > 1 && !workersSafe)
        warnOnce("--tile-jobs ", tileJobs, " requested but the "
                 "attached technique is not tile-parallel-safe; "
                 "rendering tiles serially");
    struct TileTask
    {
        std::vector<Color> colors;
        MemEventRecorder memEvents;
        TileRenderStats renderStats;
        std::vector<u8> shadowKey;
        u32 preparedFlush = 0;
        bool render = true;
        bool equalColors = false;
        bool shadowHit = false;
    };
    // Direct mode: with one worker or forced-serial hooks, phase1(t)
    // and merge(t) run inline back to back on this thread, so the
    // tile-private record/replay indirection buys nothing - render
    // straight into the shared MemSystem (same accesses, same order),
    // make the counted render decision once instead of
    // peek-then-confirm, and reuse a single task slot so the color
    // vector's capacity survives across tiles. The observable
    // access/stat stream per tile is [counted decision][render
    // traffic][flush] in both modes, which is what keeps output
    // bit-identical across --tile-jobs values (the check.sh 3-way
    // cmp proves it).
    const bool direct = tileJobs <= 1 || !workersSafe;
    std::vector<TileTask> tasks(direct ? 1u : numTiles);
    auto taskFor = [&](TileId tile) -> TileTask & {
        return tasks[direct ? 0 : tile];
    };

    auto phase1 = [&](TileId tile) {
        // Tile spans (raster + shade fused per tile) are per-tile
        // detail: numTiles events per frame, gated separately.
        std::optional<ObsScope> tileSpan;
        if (obsTileDetail())
            tileSpan.emplace("gpu", "tile", "tile",
                             static_cast<i64>(tile));
        TileTask &task = taskFor(tile);
        // Direct mode makes the authoritative (counted) decision right
        // here: the counted reads land where the merge-side call would
        // put them, and a peek would only duplicate the compare.
        task.render = hooks
            ? (direct ? hooks->shouldRenderTile(tile)
                      : hooks->queryRenderTile(tile))
            : true;
        if (!task.render) {
            if (!groundTruth)
                return;
            // Ground truth only: reuse the tile's last shadow render
            // when its exact inputs are unchanged, else shadow-render
            // it. No memory sink, no memo client, and merge never
            // folds its stats, so it charges nothing.
            ShadowEntry &entry = shadowCache[tile];
            buildShadowKey(tile, result.binned, commands, task.shadowKey);
            task.shadowHit = task.shadowKey == entry.key;
            if (!task.shadowHit) {
                TileRenderer(config, nullptr, textures)
                    .renderTile(tile, result.binned, commands.draws,
                                commands.clearColor, entry.colors);
                entry.key.swap(task.shadowKey);
            }
            task.equalColors = fb.tileEquals(tile, entry.colors);
            return;
        }
        MemTraceSink *sink = direct ? mem : &task.memEvents;
        TileRenderer renderer(config, sink, textures);
        renderer.setMemoClient(memo);
        task.renderStats =
            renderer.renderTile(tile, result.binned, commands.draws,
                                commands.clearColor, task.colors);
        // Per-tile-disjoint Back Buffer regions, written only by this
        // tile's own (strictly later) merge: safe.
        task.equalColors = fb.tileEquals(tile, task.colors);
        if (hooks)
            task.preparedFlush = hooks->prepareFlushTile(tile, task.colors);
    };

    auto merge = [&](TileId tile) {
        TileTask &task = taskFor(tile);
        TileOutcome &out = result.tiles[tile];
        // Authoritative decision, with its counted buffer reads and
        // stats - then cross-checked against the phase-1 prediction
        // the tile was rendered under. Direct mode already made the
        // counted call in phase1.
        const bool render = (hooks && !direct)
            ? hooks->shouldRenderTile(tile)
            : task.render;
        REGPU_ASSERT(render == task.render,
                     "queryRenderTile diverged from shouldRenderTile "
                     "for tile ", tile, " - the hooks violate the "
                     "tileWorkersSafe contract");
        out.rendered = render;

        if (render) {
            // The MemSystem's cache state depends on the access
            // sequence, which is why replay happens here and not on
            // the worker. Direct mode already rendered into it.
            if (!direct && mem)
                task.memEvents.replay(*mem);
            const TileRenderStats &ts = task.renderStats;
            stats.inc("raster.fragmentsGenerated", ts.fragmentsGenerated);
            stats.inc("raster.fragmentsEarlyZKilled",
                      ts.fragmentsEarlyZKilled);
            stats.inc("raster.fragmentsShaded", ts.fragmentsShaded);
            stats.inc("raster.fragmentsMemoReused",
                      ts.fragmentsMemoReused);
            stats.inc("raster.shaderInstructions", ts.shaderInstructions);
            stats.inc("raster.texelFetches", ts.texelFetches);
            stats.inc("raster.blendOps", ts.blendOps);
            stats.inc("raster.primitivesFetched", ts.primitivesFetched);
            out.stats = ts;
            out.equalColors = task.equalColors;

            bool flush = hooks
                ? hooks->shouldFlushTilePre(tile, task.colors,
                                            task.preparedFlush)
                : true;
            out.flushed = flush;
            if (flush) {
                fb.writeTile(tile, task.colors);
                if (mem)
                    mem->colorFlush(fb.tileAddr(tile), fb.tileBytes(tile));
                stats.inc("raster.tilesFlushed");
            } else {
                stats.inc("raster.tileFlushesEliminated");
            }
            stats.inc("raster.tilesRendered");
        } else {
            // Rendering Elimination bypass: the Back Buffer already
            // holds the (believed-identical) colors.
            out.flushed = false;
            stats.inc("raster.tilesEliminated");
            if (groundTruth) {
                out.stats = TileRenderStats{}; // skipped: zero cost
                out.equalColors = task.equalColors;
                if (task.shadowHit)
                    result.shadowHits++;
                else
                    result.shadowRenders++;
                if (!out.equalColors)
                    stats.inc("re.falsePositives");
            }
        }
    };

    runOrdered(numTiles, direct ? 1u : tileJobs, phase1, merge, "gpu",
               "tileWorker");
    rasterSpan.reset();

    if (hooks)
        hooks->frameEnd();

    fb.swap();
    frameCounter++;
    stats.inc("frames");
    return result;
}

} // namespace regpu
