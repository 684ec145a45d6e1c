/**
 * @file
 * CRC-32 polynomial-arithmetic tests: the table-based units must agree
 * with the bitwise reference **for every byte length** (the tail is
 * signed with per-byte position factors, never zero-padded), streaming
 * must equal one-shot under any segmentation, and the incremental
 * combine (Algorithm 1) must reproduce the whole-message CRC for any
 * byte-granular split.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "crc/crc32.hh"
#include "crc/crc32_backend.hh"

using namespace regpu;

namespace
{

std::vector<u8>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<u8> v(n);
    for (auto &b : v)
        b = static_cast<u8>(rng.nextBounded(256));
    return v;
}

} // namespace

TEST(Gf2, MulModIdentity)
{
    // 1 is the multiplicative identity polynomial.
    Rng rng(1);
    for (int i = 0; i < 50; i++) {
        u32 a = static_cast<u32>(rng.next());
        EXPECT_EQ(gf2MulMod(a, 1), a);
        EXPECT_EQ(gf2MulMod(1, a), a);
    }
}

TEST(Gf2, MulModCommutative)
{
    Rng rng(2);
    for (int i = 0; i < 50; i++) {
        u32 a = static_cast<u32>(rng.next());
        u32 b = static_cast<u32>(rng.next());
        EXPECT_EQ(gf2MulMod(a, b), gf2MulMod(b, a));
    }
}

TEST(Gf2, MulModDistributesOverXor)
{
    Rng rng(3);
    for (int i = 0; i < 50; i++) {
        u32 a = static_cast<u32>(rng.next());
        u32 b = static_cast<u32>(rng.next());
        u32 c = static_cast<u32>(rng.next());
        EXPECT_EQ(gf2MulMod(a, b ^ c),
                  gf2MulMod(a, b) ^ gf2MulMod(a, c));
    }
}

TEST(Gf2, PowXExponentLaw)
{
    // x^a * x^b == x^(a+b) mod G.
    Rng rng(4);
    for (int i = 0; i < 30; i++) {
        u64 a = rng.nextBounded(1000);
        u64 b = rng.nextBounded(1000);
        EXPECT_EQ(gf2MulMod(gf2PowXMod(a), gf2PowXMod(b)),
                  gf2PowXMod(a + b));
    }
}

TEST(Gf2, PowXZeroIsOne)
{
    EXPECT_EQ(gf2PowXMod(0), 1u);
    EXPECT_EQ(gf2PowXMod(1), 2u); // the polynomial x
}

TEST(Crc32Reference, EmptyMessageIsZero)
{
    EXPECT_EQ(crc32Reference({}), 0u);
}

TEST(Crc32Reference, SingleBitMessage)
{
    // F(0x80...) for one byte 0x80: x^7 * x^32 mod G.
    u8 byte = 0x80;
    EXPECT_EQ(crc32Reference({&byte, 1}), gf2PowXMod(7 + 32));
}

TEST(Crc32Reference, LinearInMessage)
{
    // CRC of (A xor B) == CRC(A) xor CRC(B) for equal-length messages
    // (pure polynomial remainder with zero init is linear).
    Rng rng(5);
    for (int i = 0; i < 20; i++) {
        auto a = randomBytes(rng, 24);
        auto b = randomBytes(rng, 24);
        std::vector<u8> x(24);
        for (int k = 0; k < 24; k++)
            x[k] = a[k] ^ b[k];
        EXPECT_EQ(crc32Reference(x),
                  crc32Reference(a) ^ crc32Reference(b));
    }
}

TEST(CrcTables, SignBlockMatchesReference)
{
    Rng rng(6);
    const CrcTables &t = CrcTables::instance();
    for (int i = 0; i < 200; i++) {
        u64 block = rng.next();
        EXPECT_EQ(t.signBlock64(block), crc32ReferenceBlock64(block));
    }
}

TEST(CrcTables, ShiftIsMultiplicationByX64)
{
    Rng rng(7);
    const CrcTables &t = CrcTables::instance();
    u32 x64 = gf2PowXMod(64);
    for (int i = 0; i < 200; i++) {
        u32 c = static_cast<u32>(rng.next());
        EXPECT_EQ(t.shift64(c), gf2MulMod(c, x64));
    }
}

TEST(CrcTables, AppendBlockIsSliceBy8)
{
    // The slice-by-8 identity the streaming fast path relies on:
    // appendBlock64(crc, block) == shift64(crc) ^ signBlock64(block).
    Rng rng(14);
    const CrcTables &t = CrcTables::instance();
    for (int i = 0; i < 200; i++) {
        u32 crc = static_cast<u32>(rng.next());
        u64 block = rng.next();
        EXPECT_EQ(t.appendBlock64(crc, block),
                  t.shift64(crc) ^ t.signBlock64(block));
    }
}

TEST(CrcTables, AppendByteIsMultiplicationByX8PlusByte)
{
    // appendByte(crc, b) == crc * x^8 ^ b * x^32 mod G.
    Rng rng(15);
    const CrcTables &t = CrcTables::instance();
    u32 x8 = gf2PowXMod(8);
    u32 x32 = gf2PowXMod(32);
    for (int i = 0; i < 200; i++) {
        u32 crc = static_cast<u32>(rng.next());
        u8 byte = static_cast<u8>(rng.nextBounded(256));
        EXPECT_EQ(t.appendByte(crc, byte),
                  gf2MulMod(crc, x8) ^ gf2MulMod(byte, x32));
    }
}

TEST(CrcTables, ShiftBytesIsMultiplicationByX8n)
{
    Rng rng(16);
    const CrcTables &t = CrcTables::instance();
    for (int i = 0; i < 100; i++) {
        u32 crc = static_cast<u32>(rng.next());
        u64 bytes = rng.nextBounded(40);
        EXPECT_EQ(t.shiftBytes(crc, bytes),
                  gf2MulMod(crc, gf2PowXMod(8 * bytes)))
            << "bytes " << bytes;
    }
}

TEST(CrcTables, StorageBudgetMatchesPaper)
{
    // Twelve 1 KB LUTs (8 sign + 4 shift).
    EXPECT_EQ(CrcTables::storageBytes(), 12u * 1024);
}

TEST(Crc32Tabular, MatchesReferenceOnAlignedMessages)
{
    Rng rng(8);
    for (std::size_t len : {8u, 16u, 64u, 144u, 1024u}) {
        auto msg = randomBytes(rng, len);
        EXPECT_EQ(crc32Tabular(msg), crc32Reference(msg))
            << "length " << len;
    }
}

TEST(Crc32Tabular, UnalignedTailsAreLengthExact)
{
    // The tail-padding defect this pins: the tabular CRC of a message
    // whose length is not a multiple of 8 must equal the reference CRC
    // of exactly those bytes - NOT of the message zero-padded to a
    // 64-bit boundary.
    Rng rng(9);
    for (std::size_t len : {1u, 3u, 7u, 11u, 13u, 20u, 24u, 28u, 100u}) {
        auto msg = randomBytes(rng, len);
        EXPECT_EQ(crc32Tabular(msg), crc32Reference(msg))
            << "length " << len;
        auto padded = msg;
        padded.resize((len + 7) / 8 * 8, 0);
        if (padded.size() != msg.size()) {
            EXPECT_NE(crc32Tabular(msg), crc32Tabular(padded))
                << "length " << len
                << ": trailing zero bytes must change the signature";
        }
    }
}

TEST(Crc32Tabular, TrailingZeroBytesNeverAlias)
{
    // Fragment signatures feed 20/24/28-byte buffers; under the padded
    // scheme any of them aliased its zero-extended sibling. Exhaust
    // 1..7 appended zero bytes over a few base lengths.
    Rng rng(17);
    for (std::size_t len : {4u, 20u, 24u, 28u}) {
        auto msg = randomBytes(rng, len);
        u32 base = crc32Tabular(msg);
        auto extended = msg;
        for (int pad = 1; pad <= 7; pad++) {
            extended.push_back(0);
            EXPECT_NE(crc32Tabular(extended), base)
                << "length " << len << " + " << pad << " zero bytes";
        }
    }
}

TEST(Crc32Stream, EmptyStreamIsZero)
{
    Crc32Stream s;
    EXPECT_EQ(s.value(), 0u);
    EXPECT_EQ(s.lengthBytes(), 0u);
}

TEST(Crc32Stream, ByteAtATimeEqualsOneShot)
{
    Rng rng(18);
    auto msg = randomBytes(rng, 37);
    Crc32Stream s;
    for (u8 byte : msg)
        s.update({&byte, 1});
    EXPECT_EQ(s.value(), crc32Reference(msg));
    EXPECT_EQ(s.lengthBytes(), msg.size());
}

TEST(Crc32Stream, ResetRestartsTheMessage)
{
    Rng rng(19);
    auto msg = randomBytes(rng, 24);
    Crc32Stream s;
    s.update(randomBytes(rng, 13));
    s.reset();
    s.update(msg);
    EXPECT_EQ(s.value(), crc32Reference(msg));
}

TEST(Crc32Stream, PutHelpersMatchSerializedBytes)
{
    // putU32/putF32 must hash exactly the little-endian byte layout
    // the pipeline serializers emit.
    Crc32Stream s;
    s.putU32(0x04030201u);
    s.putF32(1.5f);
    u32 bits;
    float f = 1.5f;
    std::memcpy(&bits, &f, 4);
    std::vector<u8> expect = {1, 2, 3, 4,
                              static_cast<u8>(bits),
                              static_cast<u8>(bits >> 8),
                              static_cast<u8>(bits >> 16),
                              static_cast<u8>(bits >> 24)};
    EXPECT_EQ(s.value(), crc32Reference(expect));
}

TEST(Crc32Combine, ConcatenationIdentityAligned)
{
    // For any 64-bit-aligned split point, combining the halves' CRCs
    // equals the whole message's CRC (the Algorithm 1 property).
    Rng rng(10);
    for (int trial = 0; trial < 40; trial++) {
        std::size_t bytesA = (1 + rng.nextBounded(8)) * 8;
        std::size_t bytesB = (1 + rng.nextBounded(8)) * 8;
        auto a = randomBytes(rng, bytesA);
        auto b = randomBytes(rng, bytesB);
        std::vector<u8> whole = a;
        whole.insert(whole.end(), b.begin(), b.end());

        u32 combined =
            crc32Combine(crc32Tabular(a), crc32Tabular(b), bytesB);
        EXPECT_EQ(combined, crc32Reference(whole));
    }
}

TEST(Crc32Combine, ConcatenationIdentityArbitraryByteLengths)
{
    // Byte-exact combine: B's length need not be 64-bit aligned.
    Rng rng(11);
    for (int trial = 0; trial < 60; trial++) {
        std::size_t bytesA = rng.nextBounded(40);
        std::size_t bytesB = rng.nextBounded(40);
        auto a = randomBytes(rng, bytesA);
        auto b = randomBytes(rng, bytesB);
        std::vector<u8> whole = a;
        whole.insert(whole.end(), b.begin(), b.end());

        u32 combined =
            crc32Combine(crc32Tabular(a), crc32Tabular(b), bytesB);
        EXPECT_EQ(combined, crc32Reference(whole))
            << bytesA << " || " << bytesB;
    }
}

TEST(Crc32Combine, MultiWayConcatenation)
{
    // Fold N sub-messages of arbitrary byte length incrementally, as
    // the Signature Unit does.
    Rng rng(12);
    for (int trial = 0; trial < 20; trial++) {
        u32 running = 0;
        std::vector<u8> whole;
        int parts = 2 + static_cast<int>(rng.nextBounded(6));
        for (int pIdx = 0; pIdx < parts; pIdx++) {
            std::size_t bytes = 1 + rng.nextBounded(40);
            auto part = randomBytes(rng, bytes);
            running = crc32Combine(running, crc32Tabular(part), bytes);
            whole.insert(whole.end(), part.begin(), part.end());
        }
        EXPECT_EQ(running, crc32Reference(whole));
    }
}

TEST(Crc32, SensitiveToSingleBitFlips)
{
    Rng rng(13);
    auto msg = randomBytes(rng, 64);
    u32 orig = crc32Tabular(msg);
    for (int i = 0; i < 64; i++) {
        auto flipped = msg;
        flipped[i] ^= 1u << (i % 8);
        EXPECT_NE(crc32Tabular(flipped), orig) << "byte " << i;
    }
}

TEST(Crc32, SensitiveToBlockOrder)
{
    // Unlike XOR folding, CRC distinguishes permuted sub-messages.
    Rng rng(14);
    auto a = randomBytes(rng, 16);
    auto b = randomBytes(rng, 16);
    std::vector<u8> ab = a, ba = b;
    ab.insert(ab.end(), b.begin(), b.end());
    ba.insert(ba.end(), a.begin(), a.end());
    EXPECT_NE(crc32Tabular(ab), crc32Tabular(ba));
}

/**
 * Parameterised length sweep (satellite: every length 0..64 plus a few
 * large odd lengths): tabular == reference, and streaming under a
 * random segmentation == one-shot. These fail under the old
 * zero-padding implementation for every non-multiple-of-8 length.
 */
class CrcLengthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CrcLengthSweep, TabularMatchesReferenceExactly)
{
    Rng rng(100 + GetParam());
    auto msg = randomBytes(rng, GetParam());
    EXPECT_EQ(crc32Tabular(msg), crc32Reference(msg));
}

TEST_P(CrcLengthSweep, StreamingEqualsOneShotUnderAnySegmentation)
{
    Rng rng(200 + GetParam());
    auto msg = randomBytes(rng, GetParam());
    const u32 expected = crc32Reference(msg);
    for (int trial = 0; trial < 4; trial++) {
        Crc32Stream s;
        std::size_t pos = 0;
        while (pos < msg.size()) {
            std::size_t take =
                1 + rng.nextBounded(msg.size() - pos);
            s.update({msg.data() + pos, take});
            pos += take;
        }
        EXPECT_EQ(s.value(), expected) << "trial " << trial;
        EXPECT_EQ(s.lengthBytes(), msg.size());
    }
}

TEST_P(CrcLengthSweep, EveryAvailableBackendMatchesReference)
{
    // Dispatch property (hardware CRC satellite): every backend this
    // build + CPU can run must produce the exact same bits as the
    // portable slice-by-8 core AND the bitwise reference, for every
    // swept length and for nonzero incoming CRC states. A hardware
    // path that is "almost" the repo CRC (reflected variant, wrong
    // polynomial, zero-padded tail) fails here on the very first
    // length that exercises it.
    Rng rng(400 + GetParam());
    auto msg = randomBytes(rng, GetParam());
    const u32 seeds[] = {0u, 0xdeadbeefu,
                         static_cast<u32>(rng.next())};
    const CrcBackend backends[] = {CrcBackend::Portable,
                                   CrcBackend::Clmul};
    for (u32 seed : seeds) {
        const u32 expected = crc32AppendWith(
            CrcBackend::Portable, seed, msg.data(), msg.size());
        // Portable must itself agree with the reference: the
        // incoming state acts as a prefix CRC, so combine() gives
        // the ground truth for a seeded append.
        EXPECT_EQ(expected,
                  crc32Combine(seed, crc32Reference(msg), msg.size()))
            << "seed " << seed;
        for (CrcBackend b : backends) {
            if (!crcBackendAvailable(b))
                continue;
            EXPECT_EQ(crc32AppendWith(b, seed, msg.data(), msg.size()),
                      expected)
                << crcBackendName(b) << " diverged, seed " << seed;
        }
    }
}

TEST_P(CrcLengthSweep, CombineMatchesConcatenatedReference)
{
    // crc32Combine(F(A), F(B), |B|) == F(A || B) with B of the swept
    // length appended to a fixed-length unaligned prefix.
    Rng rng(300 + GetParam());
    auto a = randomBytes(rng, 13);
    auto b = randomBytes(rng, GetParam());
    std::vector<u8> whole = a;
    whole.insert(whole.end(), b.begin(), b.end());
    EXPECT_EQ(crc32Combine(crc32Tabular(a), crc32Tabular(b), b.size()),
              crc32Reference(whole));
}

INSTANTIATE_TEST_SUITE_P(Lengths0To64, CrcLengthSweep,
                         ::testing::Range<std::size_t>(0, 65));

INSTANTIATE_TEST_SUITE_P(LargeOddLengths, CrcLengthSweep,
                         ::testing::Values(127, 145, 255, 1001, 4097));

// ---------------------------------------------------------------------------
// Backend dispatch plumbing (crc/crc32_backend.hh)
// ---------------------------------------------------------------------------

TEST(CrcBackendDispatch, ActiveBackendIsAvailableAndNamed)
{
    const CrcBackend active = crcActiveBackend();
    EXPECT_TRUE(crcBackendAvailable(active));
    EXPECT_STRNE(crcBackendName(active), "");
    // Portable is compiled unconditionally: dispatch may pick a
    // hardware path, but the fallback must never disappear.
    EXPECT_TRUE(crcBackendAvailable(CrcBackend::Portable));
}

TEST(CrcBackendDispatch, StreamBulkPathMatchesByteAtATime)
{
    // Crc32Stream hands large updates to the active backend and keeps
    // small ones on the tabular core; both routes must agree for the
    // same message, whatever backend the dispatch picked.
    Rng rng(9001);
    for (std::size_t n : {64u, 65u, 100u, 4096u}) {
        auto msg = randomBytes(rng, n);
        Crc32Stream bulk;
        bulk.update(msg);
        Crc32Stream bytewise;
        for (u8 byte : msg)
            bytewise.update({&byte, 1});
        EXPECT_EQ(bulk.value(), bytewise.value()) << "length " << n;
        EXPECT_EQ(bulk.value(), crc32Reference(msg)) << "length " << n;
    }
}
