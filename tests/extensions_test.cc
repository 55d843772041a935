/**
 * @file
 * Tests for the extension features: sector caches, stream buffers,
 * stack-distance profiling, and write-aware MIN.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/stack_distance.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mtc/min_cache.hh"

namespace membw {
namespace {

MemRef
ld(Addr a)
{
    return MemRef{a, 4, RefKind::Load};
}

MemRef
st(Addr a)
{
    return MemRef{a, 4, RefKind::Store};
}

// ---------------------------- sector caches ----------------------

CacheConfig
sectorCache(Bytes sector)
{
    CacheConfig c;
    c.size = 1_KiB;
    c.assoc = 2;
    c.blockBytes = 32;
    c.sectorBytes = sector;
    return c;
}

TEST(SectorCache, ValidationRules)
{
    CacheConfig c = sectorCache(24); // not a power of two
    EXPECT_THROW(c.validate(), FatalError);
    c = sectorCache(64); // larger than the block
    EXPECT_THROW(c.validate(), FatalError);
    c = sectorCache(8);
    c.alloc = AllocPolicy::WriteValidate;
    EXPECT_THROW(c.validate(), FatalError);
    c = sectorCache(8);
    EXPECT_NO_THROW(c.validate());
    EXPECT_NE(c.describe().find("sect"), std::string::npos);
}

TEST(SectorCache, MissFetchesOnlyTheSector)
{
    Cache cache(sectorCache(8));
    const AccessResult miss = cache.access(ld(0x100));
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.fetchedBytes, 8u); // one sector, not 32B

    // Same sector: free hit.
    const AccessResult hit = cache.access(ld(0x104));
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.fetchedBytes, 0u);

    // Other sector of the same block: partial fill of 8B.
    const AccessResult partial = cache.access(ld(0x110));
    EXPECT_TRUE(partial.hit);
    EXPECT_EQ(partial.fetchedBytes, 8u);
    EXPECT_EQ(cache.stats().partialFills, 1u);
}

TEST(SectorCache, MissRatioUnchangedTrafficReduced)
{
    // Random single-word accesses: sectoring must not change hits
    // or misses (the address block is the same), only traffic.
    Rng rng(5);
    Trace t;
    for (int i = 0; i < 20000; ++i)
        t.append(rng.below(1 << 12) * 4, 4, RefKind::Load);

    Cache plain(sectorCache(0));
    Cache sectored(sectorCache(4));
    for (const MemRef &r : t) {
        plain.access(r);
        sectored.access(r);
    }
    EXPECT_EQ(plain.stats().misses, sectored.stats().misses);
    EXPECT_LT(sectored.stats().trafficBelow(),
              plain.stats().trafficBelow() / 2);
}

TEST(SectorCache, WritebackCoversDirtySectorsOnly)
{
    Cache cache(sectorCache(8));
    cache.access(st(0x100)); // allocate, fetch sector, dirty word
    const Bytes flushed = cache.flush();
    EXPECT_EQ(flushed, 8u); // one dirty sector, not the whole block
}

// ---------------------------- stream buffers ---------------------

CacheConfig
streamCache(unsigned buffers, unsigned depth = 4)
{
    CacheConfig c;
    c.size = 1_KiB;
    c.assoc = 2;
    c.blockBytes = 32;
    c.streamBuffers = buffers;
    c.streamDepth = depth;
    return c;
}

TEST(StreamBuffers, ValidationRules)
{
    CacheConfig c = streamCache(4, 0);
    EXPECT_THROW(c.validate(), FatalError);
    c = streamCache(4);
    c.taggedPrefetch = true;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(StreamBuffers, SequentialMissesHitTheStream)
{
    Cache cache(streamCache(2, 4));
    // First miss allocates a stream covering the next 4 blocks.
    cache.access(ld(0x0));
    EXPECT_EQ(cache.stats().streamAllocs, 1u);
    EXPECT_EQ(cache.stats().streamFetchBytes, 4 * 32u);

    // The next sequential block: served from the stream head.
    cache.access(ld(0x20));
    EXPECT_EQ(cache.stats().streamHits, 1u);
    // The stream extended by one block.
    EXPECT_EQ(cache.stats().streamFetchBytes, 5 * 32u);
    // No demand fetch was needed for the stream hit.
    EXPECT_EQ(cache.stats().demandFetchBytes, 32u);
}

TEST(StreamBuffers, NonStreamMissesReallocate)
{
    Cache cache(streamCache(1, 4));
    cache.access(ld(0x0));      // stream at 0x20..
    cache.access(ld(0x4000));   // unrelated: stream reallocated
    EXPECT_EQ(cache.stats().streamAllocs, 2u);
    EXPECT_EQ(cache.stats().streamHits, 0u);
    // Eight prefetched blocks, only misses used: pure waste — the
    // paper's "falsely identify streams" cost.
    EXPECT_EQ(cache.stats().streamFetchBytes, 8 * 32u);
}

TEST(StreamBuffers, WasteShowsInTrafficNotMisses)
{
    // Strided accesses (one block apart) keep streams useful;
    // random accesses make them pure overhead.
    Rng rng(9);
    Trace random;
    for (int i = 0; i < 5000; ++i)
        random.append(rng.below(1 << 14) * 32, 4, RefKind::Load);

    Cache with(streamCache(4));
    Cache without(streamCache(0));
    for (const MemRef &r : random) {
        with.access(r);
        without.access(r);
    }
    EXPECT_EQ(with.stats().misses, without.stats().misses);
    EXPECT_GT(with.stats().trafficBelow(),
              without.stats().trafficBelow());
}

// ------------------------- stack distance ------------------------

TEST(StackDistance, SimpleSequence)
{
    // A B A B: distances for the re-references are both 1.
    Trace t;
    for (Addr a : {0, 4, 0, 4})
        t.append(a, 4, RefKind::Load);
    StackDistanceProfile p(t, 4);
    EXPECT_EQ(p.references(), 4u);
    EXPECT_EQ(p.coldMisses(), 2u);
    ASSERT_GE(p.histogram().size(), 2u);
    EXPECT_EQ(p.histogram()[1], 2u);
    // Capacity 1 misses everything; capacity 2 only cold misses.
    EXPECT_EQ(p.missesAtCapacity(1), 4u);
    EXPECT_EQ(p.missesAtCapacity(2), 2u);
}

TEST(StackDistance, ZeroDistanceReRereference)
{
    Trace t;
    for (Addr a : {0, 0, 0})
        t.append(a, 4, RefKind::Load);
    StackDistanceProfile p(t, 4);
    EXPECT_EQ(p.coldMisses(), 1u);
    EXPECT_EQ(p.histogram()[0], 2u);
    EXPECT_EQ(p.missesAtCapacity(1), 1u);
}

TEST(StackDistance, MatchesDirectLruSimulation)
{
    // The profile must agree *exactly* with a fully-associative LRU
    // cache at every capacity.
    Rng rng(31);
    Trace t;
    Addr cursor = 0;
    for (int i = 0; i < 30000; ++i) {
        cursor = rng.chance(0.4) ? rng.below(600)
                                 : (cursor + 1) % 600;
        t.append(cursor * 32, 4, RefKind::Load);
    }
    StackDistanceProfile profile(t, 32);

    for (unsigned blocks : {4u, 16u, 64u, 256u}) {
        CacheConfig cfg;
        cfg.size = static_cast<Bytes>(blocks) * 32;
        cfg.assoc = 0;
        cfg.blockBytes = 32;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        EXPECT_EQ(profile.missesAtCapacity(blocks),
                  cache.stats().misses)
            << blocks << " blocks";
    }
}

TEST(StackDistance, MissRatioMonotoneInSize)
{
    Rng rng(17);
    Trace t;
    for (int i = 0; i < 10000; ++i)
        t.append(rng.below(4096) * 4, 4, RefKind::Load);
    StackDistanceProfile p(t, 32);
    double prev = 1.1;
    for (Bytes size : {128u, 512u, 2048u, 8192u}) {
        const double mr = p.missRatioAtSize(size);
        EXPECT_LE(mr, prev);
        prev = mr;
    }
}

// ------------------------- write-aware MIN -----------------------

TEST(WriteAwareMin, NeverGeneratesMoreTraffic)
{
    // The clean-victim preference only chooses among dead blocks, so
    // it adds no miss, and a dead dirty block is written back exactly
    // once, on eviction or in the final flush: total traffic is
    // unchanged, and only the write-back/flush split can move.
    Rng rng(77);
    Trace t;
    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng.below(4096) * 4;
        t.append(a, 4,
                 rng.chance(0.5) ? RefKind::Store : RefKind::Load);
    }
    bool moved = false;
    for (Bytes size : {1_KiB, 4_KiB}) {
        for (bool bypass : {true, false}) {
            MinCacheConfig plain = canonicalMtc(size);
            plain.allowBypass = bypass;
            MinCacheConfig aware = plain;
            aware.writeAware = true;
            const MinCacheStats a = runMinCache(t, plain);
            const MinCacheStats b = runMinCache(t, aware);
            EXPECT_EQ(b.trafficBelow(), a.trafficBelow())
                << size << " bypass " << bypass;
            EXPECT_EQ(a.misses, b.misses) << size << " bypass " << bypass;
            EXPECT_LE(b.writebackBytes, a.writebackBytes) << size;
            moved |= b.flushWritebackBytes > a.flushWritebackBytes;
        }
    }
    EXPECT_TRUE(moved) << "no config deferred a write-back to the flush";
}

TEST(WriteAwareMin, PrefersCleanVictimAmongDeadBlocks)
{
    // Capacity 2, write-back.  Make a dirty dead block and a clean
    // dead block, then force an eviction: plain MIN may write back;
    // write-aware must evict the clean one (no writeback yet).
    MinCacheConfig cfg;
    cfg.size = 8;
    cfg.blockBytes = 4;
    cfg.alloc = AllocPolicy::WriteValidate;
    cfg.allowBypass = false;
    cfg.writeAware = true;

    Trace t;
    t.append(0, 4, RefKind::Store); // dirty, never reused
    t.append(4, 4, RefKind::Load);  // clean, never reused
    t.append(8, 4, RefKind::Load);  // forces an eviction

    const MinCacheStats s = runMinCache(t, cfg);
    // The clean block was evicted: no mid-run writeback; the dirty
    // word flushes at completion.
    EXPECT_EQ(s.writebackBytes, 0u);
    EXPECT_EQ(s.flushWritebackBytes, 4u);
}

// ---------------- feature interactions in hierarchies -------------

TEST(FeatureInteraction, SectoredL1FillsFlowToL2)
{
    // A sectored L1 above an L2: the L2 receives sector-sized
    // requests, and inter-level accounting still balances.
    CacheConfig l1 = sectorCache(8);
    l1.name = "L1";
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 8_KiB;
    l2.assoc = 2;
    l2.blockBytes = 32;

    CacheHierarchy h({l1, l2});
    for (Addr a = 0; a < 2048; a += 4)
        h.access(MemRef{a, 4, RefKind::Load});
    h.flush();
    EXPECT_EQ(h.trafficBelow(0), h.level(1).stats().requestBytes);
    // Sectoring quarters the fill traffic between the levels.
    EXPECT_LT(h.trafficBelow(0), 2048u + 512u);
}

TEST(FeatureInteraction, StreamBufferFetchesReachL2)
{
    CacheConfig l1 = streamCache(2, 4);
    l1.name = "L1";
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 8_KiB;
    l2.assoc = 2;
    l2.blockBytes = 64;

    CacheHierarchy h({l1, l2});
    h.access(MemRef{0x0, 4, RefKind::Load});
    // Demand fill 32B + 4-deep stream = 5 L2 requests of 32B.
    EXPECT_EQ(h.level(1).stats().requestBytes, 5 * 32u);
    EXPECT_EQ(h.trafficBelow(0), 5 * 32u);
}

TEST(FeatureInteraction, StreamHitAvoidsSecondL2Trip)
{
    CacheConfig l1 = streamCache(2, 4);
    l1.name = "L1";
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 8_KiB;
    l2.assoc = 2;
    l2.blockBytes = 64;

    CacheHierarchy h({l1, l2});
    h.access(MemRef{0x0, 4, RefKind::Load});
    const Bytes before = h.level(1).stats().requestBytes;
    // The next block sits in the stream buffer: serving it costs
    // only the one-block stream extension, not a demand refetch.
    h.access(MemRef{0x20, 4, RefKind::Load});
    EXPECT_EQ(h.level(1).stats().requestBytes, before + 32u);
}

} // namespace
} // namespace membw
