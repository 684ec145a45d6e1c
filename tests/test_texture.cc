/**
 * @file
 * Procedural-texture and sampler tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpu/texture.hh"

using namespace regpu;

namespace
{

/**
 * The sampler as first written - std::floor for the texel lattice and
 * a division per unorm8 channel - kept as the oracle the table-driven,
 * fixed-footprint Sampler::sample must match bit for bit.
 */
Color
oracleSample(const Texture &tex, float s, float t, Sampler::Filter filter,
             std::vector<Addr> &touched)
{
    auto toVec4 = [](Color c) {
        return Vec4{c.r / 255.0f, c.g / 255.0f, c.b / 255.0f,
                    c.a / 255.0f};
    };
    float u = s * tex.width() - 0.5f;
    float v = t * tex.height() - 0.5f;
    if (filter == Sampler::Filter::Nearest) {
        i32 iu = static_cast<i32>(std::floor(u + 0.5f));
        i32 iv = static_cast<i32>(std::floor(v + 0.5f));
        touched.push_back(tex.texelAddr(iu, iv));
        return tex.texel(iu, iv);
    }
    i32 u0 = static_cast<i32>(std::floor(u));
    i32 v0 = static_cast<i32>(std::floor(v));
    float fu = u - u0, fv = v - v0;
    touched.push_back(tex.texelAddr(u0, v0));
    touched.push_back(tex.texelAddr(u0 + 1, v0));
    touched.push_back(tex.texelAddr(u0, v0 + 1));
    touched.push_back(tex.texelAddr(u0 + 1, v0 + 1));
    Vec4 a = lerp(toVec4(tex.texel(u0, v0)), toVec4(tex.texel(u0 + 1, v0)),
                  fu);
    Vec4 b = lerp(toVec4(tex.texel(u0, v0 + 1)),
                  toVec4(tex.texel(u0 + 1, v0 + 1)), fu);
    return Color::fromVec4(lerp(a, b, fv));
}

} // namespace

TEST(Texture, DeterministicContent)
{
    Texture a(0, 64, 64, TexturePattern::Noise, 7);
    Texture b(0, 64, 64, TexturePattern::Noise, 7);
    for (u32 v = 0; v < 64; v += 5)
        for (u32 u = 0; u < 64; u += 5)
            EXPECT_EQ(a.texel(u, v), b.texel(u, v));
}

TEST(Texture, DifferentSeedsDiffer)
{
    Texture a(0, 64, 64, TexturePattern::Noise, 7);
    Texture b(0, 64, 64, TexturePattern::Noise, 8);
    int diff = 0;
    for (u32 v = 0; v < 64; v += 4)
        for (u32 u = 0; u < 64; u += 4)
            if (!(a.texel(u, v) == b.texel(u, v)))
                diff++;
    EXPECT_GT(diff, 10);
}

TEST(Texture, SolidIsUniform)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 3);
    Color c0 = t.texel(0, 0);
    for (u32 v = 0; v < 32; v++)
        for (u32 u = 0; u < 32; u++)
            EXPECT_EQ(t.texel(u, v), c0);
}

TEST(Texture, CheckerAlternates)
{
    Texture t(0, 64, 64, TexturePattern::Checker, 5);
    EXPECT_NE(t.texel(0, 0), t.texel(16, 0));
    EXPECT_EQ(t.texel(0, 0), t.texel(32, 0));
}

TEST(Texture, WrapsCoordinates)
{
    Texture t(0, 32, 32, TexturePattern::Gradient, 9);
    EXPECT_EQ(t.texel(32, 0), t.texel(0, 0));
    EXPECT_EQ(t.texel(-1, 0), t.texel(31, 0));
    EXPECT_EQ(t.texel(0, 33), t.texel(0, 1));
}

TEST(Texture, AddressMapIsPerTexture)
{
    Texture a(1, 32, 32, TexturePattern::Solid, 1);
    Texture b(2, 32, 32, TexturePattern::Solid, 1);
    EXPECT_NE(a.baseAddr(), b.baseAddr());
    EXPECT_EQ(a.texelAddr(0, 0), a.baseAddr());
    EXPECT_EQ(a.texelAddr(1, 0), a.baseAddr() + 4);
    EXPECT_EQ(a.texelAddr(0, 1), a.baseAddr() + 32 * 4);
}

TEST(Texture, SetTexelOverwrites)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 1);
    Color red(255, 0, 0);
    t.setTexel(3, 4, red);
    EXPECT_EQ(t.texel(3, 4), red);
}

TEST(Sampler, NearestPicksExactTexel)
{
    Texture t(0, 32, 32, TexturePattern::Checker, 5);
    // Sample dead-centre of texel (8, 8).
    Color c = Sampler::sample(t, (8 + 0.5f) / 32, (8 + 0.5f) / 32,
                              Sampler::Filter::Nearest, nullptr);
    EXPECT_EQ(c, t.texel(8, 8));
}

TEST(Sampler, NearestTouchesOneTexel)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    TexelFootprint touched;
    Sampler::sample(t, 0.5f, 0.5f, Sampler::Filter::Nearest, &touched);
    EXPECT_EQ(touched.count, 1u);
}

TEST(Sampler, BilinearTouchesFourTexels)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    TexelFootprint touched;
    Sampler::sample(t, 0.37f, 0.61f, Sampler::Filter::Bilinear, &touched);
    EXPECT_EQ(touched.count, 4u);
}

TEST(Sampler, MatchesScalarOracleOnSeededFuzz)
{
    // 5 patterns x 2 filters x 100k = 1M samples. The coordinates mix
    // the usual [0, 1) range, wrapping ones (negative and > 1), exact
    // texel centres and edges (where floor() and truncation meet) and
    // magnitudes up to 2^20 textures wide.
    const TexturePattern patterns[] = {
        TexturePattern::Solid, TexturePattern::Checker,
        TexturePattern::Gradient, TexturePattern::Noise,
        TexturePattern::Atlas};
    const u32 samplesPerCase = 100'000;
    Rng rng(0x5A3D1E5);
    u64 checked = 0;
    for (TexturePattern pattern : patterns) {
        // Non-square, so a width/height mix-up cannot cancel out.
        Texture tex(3, 64, 32, pattern, 11);
        for (Sampler::Filter filter :
             {Sampler::Filter::Nearest, Sampler::Filter::Bilinear}) {
            std::vector<Addr> want;
            for (u32 i = 0; i < samplesPerCase; i++) {
                auto coord = [&](u32 size) {
                    switch (rng.nextBounded(4)) {
                      case 0:
                        return rng.nextFloat();
                      case 1:
                        return rng.nextFloatRange(-4.0f, 4.0f);
                      case 2: // texel centre or edge
                        return (static_cast<float>(rng.nextRange(
                                    -3 * i64(size), 3 * i64(size)))
                                + 0.5f * rng.nextBounded(2)) / size;
                      default: {
                        const float mag = std::ldexp(
                            1.0f, static_cast<int>(rng.nextBounded(21)));
                        return rng.nextFloatRange(-mag, mag);
                      }
                    }
                };
                const float s = coord(tex.width());
                const float t = coord(tex.height());
                want.clear();
                const Color expect = oracleSample(tex, s, t, filter, want);
                TexelFootprint got;
                const Color c = Sampler::sample(tex, s, t, filter, &got);
                ASSERT_EQ(c, expect) << "s=" << s << " t=" << t;
                ASSERT_EQ(got.count, want.size()) << "s=" << s << " t=" << t;
                for (u32 k = 0; k < got.count; k++)
                    ASSERT_EQ(got.addr[k], want[k])
                        << "s=" << s << " t=" << t << " slot " << k;
                checked++;
            }
        }
    }
    EXPECT_EQ(checked, 1'000'000u);
}

TEST(Sampler, BilinearOnSolidIsExact)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    Color c = Sampler::sample(t, 0.123f, 0.456f,
                              Sampler::Filter::Bilinear, nullptr);
    EXPECT_EQ(c, t.texel(0, 0));
}

TEST(Sampler, BilinearInterpolatesBetweenTexels)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    t.setTexel(0, 0, Color(0, 0, 0, 255));
    t.setTexel(1, 0, Color(255, 255, 255, 255));
    // Halfway between texel 0 and 1 centres on row 0.
    Color c = Sampler::sample(t, 1.0f / 32, 0.5f / 32,
                              Sampler::Filter::Bilinear, nullptr);
    EXPECT_NEAR(c.r, 128, 2);
}

TEST(Texture, SizeBytes)
{
    Texture t(0, 128, 64, TexturePattern::Solid, 1);
    EXPECT_EQ(t.sizeBytes(), 128u * 64 * 4);
}
