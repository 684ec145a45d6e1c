/**
 * @file
 * Set-associative cache model tests: LRU/writeback behaviour plus the
 * level-linking contract (misses and dirty evictions propagate at
 * their actual line addresses, in the evicting cache's lineBytes).
 */

#include <gtest/gtest.h>

#include "timing/cache.hh"
#include "timing/dram.hh"

using namespace regpu;

namespace
{

CacheParams
smallCache(u32 sizeBytes = 1024, u32 ways = 2, u32 line = 64,
           const char *name = "test")
{
    CacheParams p;
    p.name = name;
    p.lineBytes = line;
    p.ways = ways;
    p.sizeBytes = sizeBytes;
    return p;
}

} // namespace

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheModel, SameLineDifferentOffsetsHit)
{
    CacheModel c(smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(CacheModel, AssociativityHoldsConflictingLines)
{
    // 1 KB, 2-way, 64 B lines -> 8 sets; addresses 8*64 apart conflict.
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0x0, false);
    c.access(stride, false);
    EXPECT_TRUE(c.access(0x0, false).hit);
    EXPECT_TRUE(c.access(stride, false).hit);
}

TEST(CacheModel, LruEvictsLeastRecentlyUsed)
{
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0 * stride, false);
    c.access(1 * stride, false);
    c.access(0 * stride, false);      // touch A: B becomes LRU
    c.access(2 * stride, false);      // evicts B
    EXPECT_TRUE(c.access(0 * stride, false).hit);
    EXPECT_FALSE(c.access(1 * stride, false).hit);
}

TEST(CacheModel, DirtyEvictionReportsWritebackWithVictimAddress)
{
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0 * stride, true); // dirty
    c.access(1 * stride, false);
    CacheAccessResult r = c.access(2 * stride, false); // evicts dirty
    EXPECT_TRUE(r.writeback);
    // The dirty data leaves at *its* address, not the requester's.
    EXPECT_EQ(r.writebackAddr, 0u * stride);
    EXPECT_EQ(c.writebacks(), 1u);
    r = c.access(3 * stride, false); // evicts a clean line
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheModel, VictimAddressKeepsSetIndexAndTag)
{
    // Set 3, tag 5, mid-line offset: the reconstructed victim address
    // must carry every bit of the line address, not just the tag.
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    const Addr victim = 5 * stride + 3 * 64;
    c.access(victim + 17, true);
    c.access(6 * stride + 3 * 64, false);
    CacheAccessResult r = c.access(7 * stride + 3 * 64, false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, victim);

    // invalidateAll reconstructs the same address for its flush.
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);
    l1.access(victim + 17, true);
    l1.invalidateAll();
    EXPECT_EQ(l2.accesses(), 1u);
    EXPECT_TRUE(l2.access(victim, false).hit);
}

TEST(CacheModel, AccessRangeSplitsIntoLines)
{
    CacheModel c(smallCache());
    // 200 bytes from 0x10 crosses lines 0,1,2,3.
    EXPECT_EQ(c.accessRange(0x10, 200, false).missLines, 4u);
    EXPECT_EQ(c.accessRange(0x10, 200, false).missLines, 0u);
}

TEST(CacheModel, AccessRangeZeroBytesIsNoOp)
{
    // Regression: the old model still touched one line for a
    // zero-byte range, charging a full access that never happened.
    CacheModel c(smallCache());
    CacheModel::RangeOutcome r = c.accessRange(0x0, 0, false);
    EXPECT_EQ(r.missLines, 0u);
    EXPECT_EQ(r.writebacks, 0u);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.demandBytes(TrafficClass::Geometry), 0u);
}

TEST(CacheModel, InvalidateAllColdsTheCache)
{
    CacheModel c(smallCache());
    c.access(0x0, false);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(CacheModel, TableOneConfigsConstructible)
{
    GpuConfig cfg;
    CacheModel vertex(cfg.vertexCache);
    CacheModel texture(cfg.textureCache);
    CacheModel tile(cfg.tileCache);
    CacheModel l2(cfg.l2Cache);
    EXPECT_EQ(vertex.params().sizeBytes, 4 * KiB);
    EXPECT_EQ(l2.params().ways, 8u);
}

TEST(CacheModel, StreamingWorkingSetLargerThanCacheThrashes)
{
    CacheModel c(smallCache(1024, 2, 64)); // 16 lines capacity
    // Stream 64 distinct lines twice: second pass must still miss
    // (capacity misses), validating the reuse-distance behaviour the
    // paper leans on ("reuse distance of an entire frame").
    for (int pass = 0; pass < 2; pass++)
        for (Addr line = 0; line < 64; line++)
            c.access(line * 64, false);
    EXPECT_EQ(c.misses(), 128u);
}

TEST(CacheModel, ResetStatsKeepsContents)
{
    CacheModel c(smallCache());
    c.access(0x0, false);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x0, false).hit); // contents survived
}

// ---- Level-linking -------------------------------------------------------

TEST(CacheModel, ReadMissRefillsFromNextLevelAtLineAddress)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    l1.access(0x1008, false);
    // The refill demanded the full aligned line from the L2.
    EXPECT_EQ(l2.accesses(), 1u);
    EXPECT_EQ(l1.fills(), 1u);
    EXPECT_EQ(l1.fillBytes(TrafficClass::Geometry), 64u);
    EXPECT_EQ(l2.demandBytes(TrafficClass::Geometry), 64u);
    // The L2 now holds the line (probe with a fresh class to spot it).
    EXPECT_TRUE(l2.access(0x1000, false).hit);
}

TEST(CacheModel, OnlyMissingLinesRefill)
{
    // Regression for the old MemSystem::refill(addr, misses) bug: a
    // range where only the *second* line misses must refill the
    // second line's address, not addr + 0.
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    l1.accessRange(0x0, 64, false);    // line 0 cached, L2 fills line 0
    EXPECT_EQ(l2.misses(), 1u);
    l1.accessRange(0x0, 128, false);   // line 0 hits, line 1 misses
    EXPECT_EQ(l1.fills(), 2u);
    EXPECT_EQ(l2.accesses(), 2u);      // only the missing line forwarded
    EXPECT_TRUE(l2.access(0x40, false).hit); // line 1, not line 0 again
}

TEST(CacheModel, DirtyEvictionWritesBackThroughLink)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);
    const Addr stride = 8 * 64; // l1 set-conflict stride

    l1.access(0 * stride, true); // dirty in l1 (write-allocate, no fill)
    EXPECT_EQ(l2.accesses(), 0u); // write miss does not fetch
    l1.access(1 * stride, false);
    l1.access(2 * stride, false); // evicts the dirty line
    EXPECT_EQ(l1.writebacks(), 1u);
    EXPECT_EQ(l1.writebackBytes(TrafficClass::Geometry), 64u);
    // The victim line arrived in the L2 as a (dirty) write.
    EXPECT_TRUE(l2.access(0 * stride, false).hit);
}

TEST(CacheModel, WritebackReachesDramAsWritebackTraffic)
{
    GpuConfig cfg;
    DramModel dram(cfg);
    CacheModel l2(smallCache(1024, 2, 64, "l2"));
    l2.linkDram(&dram);
    const Addr stride = 8 * 64;

    l2.access(0 * stride, true, TrafficClass::Geometry);
    l2.access(1 * stride, false, TrafficClass::Texels);
    l2.access(2 * stride, false, TrafficClass::Texels); // evicts dirty
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Geometry), 64u);
    // The writeback is charged to the class that *produced* the dirty
    // line (Geometry), not the Texels access that evicted it.
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Texels), 0u);
    // Read fills show up as reads of the requester's class.
    EXPECT_EQ(dram.traffic().reads(TrafficClass::Texels), 128u);
}

TEST(CacheModel, InvalidateAllFlushesDirtyLinesDownstream)
{
    GpuConfig cfg;
    DramModel dram(cfg);
    CacheModel c(smallCache(1024, 2, 64, "flush"));
    c.linkDram(&dram);

    c.access(0x0, true);
    c.access(0x40, false);
    c.invalidateAll();
    // The dirty line's bytes were not silently dropped.
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Geometry), 64u);
    EXPECT_EQ(c.writebacks(), 1u);
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(CacheModel, MissLatencyIncludesDownstreamFill)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    CacheAccessResult miss = l1.access(0x0, false);
    // l1 hit latency + l2 fill (which itself missed into nothing).
    EXPECT_GE(miss.latency,
              l1.params().hitLatency + l2.params().hitLatency);
    CacheAccessResult hit = l1.access(0x0, false);
    EXPECT_EQ(hit.latency, l1.params().hitLatency);
}
