/**
 * @file
 * Cross-module integration tests of the full functional pipeline:
 * golden-image checks, baseline invariants, hook plumbing.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "crc/crc32.hh"
#include "gpu/pipeline.hh"
#include "scene/mesh_gen.hh"
#include "timing/memsystem.hh"

using namespace regpu;

namespace
{

struct PipeFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;
    std::unique_ptr<Scene> scene;

    PipeFixture()
    {
        config.scaleResolution(96, 64);
        scene = std::make_unique<Scene>("pipe", config);
    }

    void
    addCheckerQuad()
    {
        u32 tex = scene->addTexture(
            Texture(0, 64, 64, TexturePattern::Checker, 5));
        SceneObject o;
        o.name = "quad";
        o.mesh = makeQuad(64, 48);
        o.shader = ShaderKind::Textured;
        o.textureId = static_cast<i32>(tex);
        o.depthTest = false;
        o.animate = [](u64) {
            Pose p;
            p.position = {48, 32, 0.5f};
            return p;
        };
        scene->addObject(std::move(o));
    }

    /** A textured quad sliding 8 px per frame, so most tiles it
     *  touches change colors every frame. */
    void
    addMovingQuad()
    {
        u32 tex = scene->addTexture(
            Texture(0, 64, 64, TexturePattern::Checker, 5));
        SceneObject mover;
        mover.name = "mover";
        mover.mesh = makeQuad(16, 16, 0.5f);
        mover.shader = ShaderKind::Textured;
        mover.textureId = static_cast<i32>(tex);
        mover.depthTest = false;
        mover.animate = [](u64 frame) {
            Pose p;
            p.position = {20.0f + 8.0f * frame, 20, 0.2f};
            return p;
        };
        scene->addObject(std::move(mover));
    }

    /** CRC of the whole front buffer (golden-image hash). */
    u32
    frontHash(GraphicsPipeline &pipe)
    {
        std::vector<u8> bytes;
        for (u32 y = 0; y < config.screenHeight; y++) {
            for (u32 x = 0; x < config.screenWidth; x++) {
                u32 p = pipe.frameBuffer().frontPixel(x, y).packed();
                bytes.push_back(static_cast<u8>(p));
                bytes.push_back(static_cast<u8>(p >> 8));
                bytes.push_back(static_cast<u8>(p >> 16));
                bytes.push_back(static_cast<u8>(p >> 24));
            }
        }
        return crc32Tabular(bytes);
    }
};

/** Renders every tile of frame 0, then skips every tile. */
struct SkipEverything : PipelineHooks
{
    u64 frame = 0;
    void frameBegin(u64 f, bool) override { frame = f; }
    bool shouldRenderTile(TileId) override { return frame == 0; }
};

/** SkipEverything, opted into the tile pool. */
struct SkipEverythingOnWorkers : SkipEverything
{
    bool tileWorkersSafe() const override { return true; }
    bool queryRenderTile(TileId) override { return frame == 0; }
};

/**
 * Frame @p f of a hand-built 96x64 scene whose tiles vary one
 * shadow-key field at a time. Changes land on even frames: with
 * every tile skipped after frame 0, the Back Buffer then holds frame
 * 0's image, so colors reused from a stale key would read as equal
 * where a real render differs.
 *  - a TexLit quad (4 tiles) and the empty tiles never change;
 *  - frame 2: one quad's tint;
 *  - frame 4: the clear color (every tile);
 *  - frame 6: one vertex's texcoord, one vertex's normal (so its
 *    diffuse), and the order of two overlapping and of two disjoint
 *    quads.
 */
FrameCommands
shadowKeyScene(const GpuConfig &config, u64 f)
{
    const float halfW = config.screenWidth * 0.5f;
    const float halfH = config.screenHeight * 0.5f;
    auto rect = [&](float x0, float y0, float x1, float y1,
                    ShaderKind shader) {
        auto vert = [&](float px, float py, float u, float v) {
            Vertex out;
            out.position = {px / halfW - 1, py / halfH - 1, 0.5f};
            out.texcoord = {u, v};
            return out;
        };
        DrawCall draw;
        draw.state.shader = shader;
        draw.state.textureId = shaderSamplesTexture(shader) ? 0 : -1;
        draw.state.depthTest = false;
        draw.layout.hasTexcoord = true;
        draw.layout.hasNormal = true;
        const Vertex a = vert(x0, y0, 0, 0), b = vert(x1, y0, 1, 0);
        const Vertex c = vert(x1, y1, 1, 1), d = vert(x0, y1, 0, 1);
        draw.vertices = {a, b, c, a, c, d};
        return draw;
    };
    auto flat = [&](float x0, float y0, float x1, float y1, Vec4 tint) {
        DrawCall draw = rect(x0, y0, x1, y1, ShaderKind::Flat);
        draw.state.uniforms.tint = tint;
        return draw;
    };

    FrameCommands cmds;
    cmds.clearColor = f == 4 ? Color(40, 0, 0) : Color(12, 12, 24);
    cmds.draws.push_back(rect(2, 2, 30, 30, ShaderKind::TexLit));
    cmds.draws.push_back(rect(34, 2, 46, 14, ShaderKind::Textured));
    if (f == 2)
        cmds.draws.back().state.uniforms.tint = {0.5f, 1, 1, 1};
    cmds.draws.push_back(rect(50, 2, 62, 14, ShaderKind::Textured));
    if (f == 6)
        cmds.draws.back().vertices[2].texcoord = {0.5f, 1};
    cmds.draws.push_back(rect(66, 2, 78, 14, ShaderKind::TexLit));
    if (f == 6)
        cmds.draws.back().vertices[0].normal = {0.6f, 0, 0.8f};
    DrawCall pairs[2][2] = {
        {flat(34, 34, 46, 46, {1, 0, 0, 1}),
         flat(38, 38, 44, 44, {0, 1, 0, 1})},
        {flat(66, 34, 70, 46, {0, 0, 1, 1}),
         flat(72, 34, 78, 46, {1, 1, 0, 1})},
    };
    for (auto &pair : pairs) {
        if (f == 6)
            std::swap(pair[0], pair[1]);
        cmds.draws.push_back(pair[0]);
        cmds.draws.push_back(pair[1]);
    }
    return cmds;
}

} // namespace

TEST_F(PipeFixture, RenderingIsReproducible)
{
    addCheckerQuad();
    GraphicsPipeline a(config, stats, nullptr, scene->textures());
    GraphicsPipeline b(config, stats, nullptr, scene->textures());
    a.renderFrame(scene->emitFrame(0));
    b.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(frontHash(a), frontHash(b));
}

TEST_F(PipeFixture, ClearColorFillsUncoveredTiles)
{
    scene->setClearColor({10, 20, 30, 255});
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(pipe.frameBuffer().frontPixel(0, 0), Color(10, 20, 30));
    EXPECT_EQ(pipe.frameBuffer().frontPixel(95, 63), Color(10, 20, 30));
}

TEST_F(PipeFixture, QuadLandsWhereExpected)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    // Quad spans x in [16,80), y in [8,56): inside is textured,
    // outside is the clear color.
    Color inside = pipe.frameBuffer().frontPixel(48, 32);
    Color outside = pipe.frameBuffer().frontPixel(2, 2);
    EXPECT_NE(inside, outside);
    EXPECT_EQ(outside, Color(12, 12, 24)); // default clear color
}

TEST_F(PipeFixture, FrameResultCountsAreConsistent)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    FrameResult r = pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(r.tiles.size(), config.numTiles());
    EXPECT_EQ(r.verticesShaded, 6u);
    EXPECT_EQ(r.trianglesAssembled, 2u);
    u64 frags = 0;
    for (const TileOutcome &t : r.tiles)
        frags += t.stats.fragmentsGenerated;
    EXPECT_EQ(frags, 64u * 48); // exact quad coverage
}

TEST_F(PipeFixture, BaselineRendersAndFlushesEverything)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    FrameResult r = pipe.renderFrame(scene->emitFrame(0));
    for (const TileOutcome &t : r.tiles) {
        EXPECT_TRUE(t.rendered);
        EXPECT_TRUE(t.flushed);
    }
}

TEST_F(PipeFixture, MemTrafficFlowsThroughHierarchy)
{
    addCheckerQuad();
    MemSystem mem(config);
    GraphicsPipeline pipe(config, stats, &mem, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    const DramTraffic &t = mem.dram().traffic();
    EXPECT_GT(t[TrafficClass::Colors], 0u);
    EXPECT_GT(t[TrafficClass::Texels], 0u);
    EXPECT_GT(t[TrafficClass::Primitives], 0u);
    EXPECT_GT(t[TrafficClass::Geometry], 0u);
    // Color flushes: every tile flushed once (full screen x 4 B).
    EXPECT_EQ(t[TrafficClass::Colors],
              static_cast<u64>(config.screenWidth)
              * config.screenHeight * 4);
}

TEST_F(PipeFixture, HooksObserveDrawcallsAndPrimitives)
{
    addCheckerQuad();

    struct CountingHooks : PipelineHooks
    {
        u32 frames = 0, draws = 0, prims = 0, tileQueries = 0;
        void frameBegin(u64, bool) override { frames++; }
        void onDrawcallConstants(u32, const DrawCall &) override
        { draws++; }
        void onPrimitiveBinned(const Primitive &, const DrawCall &,
                               const std::vector<TileId> &) override
        { prims++; }
        bool shouldRenderTile(TileId) override
        { tileQueries++; return true; }
    } hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(hooks.frames, 1u);
    EXPECT_EQ(hooks.draws, 1u);
    EXPECT_EQ(hooks.prims, 2u);
    EXPECT_EQ(hooks.tileQueries, config.numTiles());
}

TEST_F(PipeFixture, SkippingTilePreservesOldBackBufferContent)
{
    addCheckerQuad();

    struct SkipAllAfterFirst : PipelineHooks
    {
        u64 frame = 0;
        void frameBegin(u64 f, bool) override { frame = f; }
        bool shouldRenderTile(TileId) override { return frame < 2; }
    } hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    u32 golden = frontHash(pipe);
    pipe.renderFrame(scene->emitFrame(1));
    pipe.renderFrame(scene->emitFrame(2)); // all tiles skipped
    // Static scene: the skipped frame's displayed output must equal
    // the rendered frame 0 image.
    EXPECT_EQ(frontHash(pipe), golden);
}

TEST_F(PipeFixture, GroundTruthShadowRenderDetectsWrongSkips)
{
    // Skip a tile that actually changed: equalColors must be false
    // and the false-positive counter must fire.
    addMovingQuad();
    SkipEverything hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    FrameResult r = pipe.renderFrame(scene->emitFrame(1), true);
    bool anyWrong = false;
    for (const TileOutcome &t : r.tiles)
        anyWrong |= !t.rendered && !t.equalColors;
    EXPECT_TRUE(anyWrong);
    EXPECT_GT(stats.counter("re.falsePositives"), 0u);
}

TEST_F(PipeFixture, ShadowRendersChargeNothing)
{
    // Ground truth for skipped tiles comes from shadow renders, which
    // must cost nothing: a pipeline that shadow-renders every skipped
    // tile and one that does not agree on every stat except the false
    // positives the shadow renders detect, and on all memory traffic.
    addMovingQuad();
    StatRegistry truthStats, plainStats;
    MemSystem truthMem(config), plainMem(config);
    SkipEverything truthHooks, plainHooks;
    GraphicsPipeline truth(config, truthStats, &truthMem,
                           scene->textures());
    GraphicsPipeline plain(config, plainStats, &plainMem,
                           scene->textures());
    truth.setHooks(&truthHooks);
    plain.setHooks(&plainHooks);
    for (u64 f = 0; f < 3; f++) {
        truth.renderFrame(scene->emitFrame(f), /*groundTruth=*/true);
        plain.renderFrame(scene->emitFrame(f), /*groundTruth=*/false);
    }

    // The shadow renders really ran (and found the moved tiles).
    EXPECT_GT(truthStats.counter("re.falsePositives"), 0u);
    EXPECT_EQ(plainStats.counter("re.falsePositives"), 0u);

    std::set<std::string> names;
    for (const StatRegistry *s : {&truthStats, &plainStats})
        s->forEachCounter([&](std::string_view name, u64) {
            names.emplace(name);
        });
    for (const std::string &name : names) {
        if (name == "re.falsePositives")
            continue;
        EXPECT_EQ(truthStats.counter(name), plainStats.counter(name))
            << name;
    }
    EXPECT_EQ(truthStats.allScalars(), plainStats.allScalars());

    for (u8 c = 0; c < 4; c++) {
        const auto cls = static_cast<TrafficClass>(c);
        SCOPED_TRACE(static_cast<int>(c));
        const DramTraffic &a = truthMem.dram().traffic();
        const DramTraffic &b = plainMem.dram().traffic();
        EXPECT_EQ(a.reads(cls), b.reads(cls));
        EXPECT_EQ(a.writes(cls), b.writes(cls));
        EXPECT_EQ(a.writebacks(cls), b.writebacks(cls));
    }
    EXPECT_EQ(truthMem.dram().accesses(), plainMem.dram().accesses());
    EXPECT_EQ(truthMem.totalCacheAccesses(),
              plainMem.totalCacheAccesses());
}

TEST_F(PipeFixture, NonOptedHooksRunSeriallyUnderTileJobs)
{
    // Hooks that never declare tileWorkersSafe() are forced into
    // direct mode: with four tile workers requested they still get
    // one counted shouldRenderTile per tile, all on the calling
    // thread, never the phase-1 queryRenderTile peek, and the image
    // matches the one-worker run.
    addCheckerQuad();

    struct CountingHooks : PipelineHooks
    {
        std::thread::id owner = std::this_thread::get_id();
        u32 renderCalls = 0, queryCalls = 0, foreignCalls = 0;
        bool
        shouldRenderTile(TileId) override
        {
            renderCalls++;
            foreignCalls += std::this_thread::get_id() != owner;
            return true;
        }
        bool queryRenderTile(TileId) override
        { queryCalls++; return true; }
    };

    u32 serialHash = 0;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        CountingHooks hooks;
        GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
        pipe.setHooks(&hooks);
        pipe.setTileJobs(jobs);
        pipe.renderFrame(scene->emitFrame(0));
        EXPECT_EQ(hooks.renderCalls, config.numTiles());
        EXPECT_EQ(hooks.queryCalls, 0u);
        EXPECT_EQ(hooks.foreignCalls, 0u);
        if (jobs == 1)
            serialHash = frontHash(pipe);
        else
            EXPECT_EQ(frontHash(pipe), serialHash);
    }
}

TEST_F(PipeFixture, ShadowCacheMatchesFreshRenderOracle)
{
    // Differential test of the ground-truth shadow cache: every
    // skipped tile's equalColors, and the frame's false-positive
    // count, must equal those of an oracle that renders each tile
    // from scratch and tracks its own copy of the Back Buffer.
    const std::vector<Texture> textures{
        Texture(0, 64, 64, TexturePattern::Checker, 5)};
    constexpr u64 frames = 8;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        StatRegistry pipeStats;
        SkipEverythingOnWorkers hooks;
        GraphicsPipeline pipe(config, pipeStats, nullptr, textures);
        pipe.setHooks(&hooks);
        pipe.setTileJobs(jobs);
        FrameBuffer oracleFb(config);
        u32 hits = 0, renders = 0;
        for (u64 f = 0; f < frames; f++) {
            SCOPED_TRACE(f);
            const FrameCommands cmds = shadowKeyScene(config, f);
            const u64 fpBefore = pipeStats.counter("re.falsePositives");
            const FrameResult r = pipe.renderFrame(cmds, true);

            u64 fpOracle = 0;
            std::vector<Color> colors;
            for (TileId t = 0; t < config.numTiles(); t++) {
                TileRenderer(config, nullptr, textures)
                    .renderTile(t, r.binned, cmds.draws, cmds.clearColor,
                                colors);
                const bool equal = oracleFb.tileEquals(t, colors);
                const TileOutcome &out = r.tiles[t];
                EXPECT_EQ(out.equalColors, equal) << "tile " << t;
                if (out.rendered)
                    oracleFb.writeTile(t, colors);
                else
                    fpOracle += !equal;
            }
            oracleFb.swap();
            EXPECT_EQ(pipeStats.counter("re.falsePositives") - fpBefore,
                      fpOracle);
            EXPECT_EQ(r.shadowHits + r.shadowRenders,
                      f == 0 ? 0u : config.numTiles());
            hits += r.shadowHits;
            renders += r.shadowRenders;
        }
        // Both halves ran: frame 1 and the clear-color frames miss
        // everywhere, the unchanged tiles of the other frames hit.
        EXPECT_GT(hits, 0u);
        EXPECT_GT(renders, 2 * config.numTiles());
    }
}
