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
