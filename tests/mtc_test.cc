/**
 * @file
 * Unit tests for src/mtc: next-use table, MIN replacement, bypass,
 * write-validate, and the canonical MTC.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "mtc/min_cache.hh"
#include "mtc/next_use.hh"
#include "resilience/checkpoint.hh"

namespace membw {
namespace {

Trace
loadsAt(std::initializer_list<Addr> addrs)
{
    Trace t;
    for (Addr a : addrs)
        t.append(a, 4, RefKind::Load);
    return t;
}

TEST(NextUse, PointsToNextReferenceOfSameBlock)
{
    // Word-granularity: A B A C B A.  Finite keys are next-use ticks.
    const Trace t = loadsAt({0, 4, 0, 8, 4, 0});
    const NextUseTable next = makeNextUseTable(t, 4);
    ASSERT_EQ(next->refs(), 6u);
    EXPECT_EQ(next->keys[0], 2u);
    EXPECT_EQ(next->keys[1], 4u);
    EXPECT_EQ(next->keys[2], 5u);
    // Last uses key past the trace: C at 3, B at 4, A at 5.
    EXPECT_GE(next->keys[3], 6u);
    EXPECT_GE(next->keys[4], 6u);
    EXPECT_GE(next->keys[5], 6u);
}

TEST(NextUse, LastUsesKeyOnAddressRank)
{
    // A last reference keys on refs() + the block's rank by address,
    // so never-used-again blocks outrank every finite key, highest
    // address first.
    const Trace t = loadsAt({8, 0, 8, 4, 0});
    const NextUseTable next = makeNextUseTable(t, 4);
    EXPECT_EQ(next->blockBytes, 4u);
    EXPECT_EQ(next->deadAddrs, (std::vector<Addr>{0, 4, 8}));
    EXPECT_EQ(next->keySpace(), 8u);
    EXPECT_EQ(next->keys,
              (std::vector<VictimKey>{2, 4, 5 + 2, 5 + 1, 5 + 0}));
}

TEST(NextUse, BlockGranularityMergesWords)
{
    // With 8B blocks, addresses 0 and 4 are the same block.
    const Trace t = loadsAt({0, 4, 8});
    const NextUseTable next = makeNextUseTable(t, 8);
    EXPECT_EQ(next->keys, (std::vector<VictimKey>{1, 3 + 0, 3 + 1}));
}

TEST(NextUse, RejectsNonPowerOfTwo)
{
    const Trace t = loadsAt({0});
    EXPECT_THROW(makeNextUseTable(t, 24), FatalError);
}

TEST(MinCacheConfig, Validation)
{
    MinCacheConfig c;
    c.size = 10; // not a block multiple
    EXPECT_THROW(c.validate(), FatalError);
    c = MinCacheConfig{};
    c.alloc = AllocPolicy::WriteNoAllocate;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(MinCache, BeladyChoosesFurthestVictim)
{
    // Capacity 2 words, no bypass.  Trace: A B C A B.
    // MIN evicts C's victim optimally: on miss C, the furthest of
    // {A (next at 3), B (next at 4)} is B, so B is evicted and A
    // hits at 3 while B misses at 4.
    MinCacheConfig c;
    c.size = 8;
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteAllocate;
    c.allowBypass = false;
    const Trace t = loadsAt({0, 4, 8, 0, 4});
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.misses, 4u); // A,B,C compulsory + B again
    EXPECT_EQ(s.hits, 1u);   // A at position 3
}

TEST(MinCache, BypassSkipsLowestPriorityMiss)
{
    // Capacity 2. Trace: A B C A B — with bypass, C (never reused)
    // bypasses the cache; A and B both hit afterwards.
    MinCacheConfig c;
    c.size = 8;
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteAllocate;
    c.allowBypass = true;
    const Trace t = loadsAt({0, 4, 8, 0, 4});
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.bypasses, 1u);
    EXPECT_EQ(s.hits, 2u);
    // Traffic: two fills + one bypassed word.
    EXPECT_EQ(s.fetchBytes, 12u);
}

TEST(MinCache, WriteValidateStoresFetchNothing)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    t.append(0, 4, RefKind::Store);
    t.append(4, 4, RefKind::Store);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.fetchBytes, 0u);
    // Both dirty words flushed at completion.
    EXPECT_EQ(s.flushWritebackBytes, 8u);
}

TEST(MinCache, WriteAllocateStoresFetchBlocks)
{
    MinCacheConfig c = canonicalMtc(64);
    c.alloc = AllocPolicy::WriteAllocate;
    Trace t;
    t.append(0, 4, RefKind::Store);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.fetchBytes, 4u); // word-sized block fetched
    EXPECT_EQ(s.flushWritebackBytes, 4u);
}

TEST(MinCache, PartialBlockLoadFillsMissingWords)
{
    // 32B blocks with write-validate: store validates one word; a
    // later load of another word in the block fills only that word.
    MinCacheConfig c;
    c.size = 64;
    c.blockBytes = 32;
    c.alloc = AllocPolicy::WriteValidate;
    Trace t;
    t.append(0, 4, RefKind::Store);
    t.append(8, 4, RefKind::Load);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.hits, 1u); // block present
    EXPECT_EQ(s.fetchBytes, 4u);
    EXPECT_EQ(s.flushWritebackBytes, 4u); // one dirty word
}

TEST(MinCache, DirtyEvictionWritesBack)
{
    MinCacheConfig c;
    c.size = 8; // two word blocks
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteValidate;
    c.allowBypass = false;
    Trace t;
    t.append(0, 4, RefKind::Store); // dirty A
    t.append(4, 4, RefKind::Load);  // B
    t.append(8, 4, RefKind::Load);  // C evicts A (dirty)
    t.append(4, 4, RefKind::Load);  // keep B attractive
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.writebackBytes, 4u);
}

TEST(MinCache, TrafficRatioAndCounters)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    for (Addr a = 0; a < 64; a += 4)
        t.append(a, 4, RefKind::Load);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.accesses, 16u);
    EXPECT_EQ(s.requestBytes, 64u);
    EXPECT_EQ(s.fetchBytes, 64u); // compulsory only
    EXPECT_DOUBLE_EQ(s.trafficRatio(), 1.0);
}

TEST(MinCache, CanonicalMtcMatchesPaperDefinition)
{
    const MinCacheConfig c = canonicalMtc(8_KiB);
    EXPECT_EQ(c.blockBytes, wordBytes); // transfer = request size
    EXPECT_EQ(c.alloc, AllocPolicy::WriteValidate);
    EXPECT_TRUE(c.allowBypass);
    EXPECT_EQ(c.blocks(), 2048u);
    EXPECT_NE(c.describe().find("MIN"), std::string::npos);
}

TEST(MinCache, RejectsSpanningRefs)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    t.append(2, 4, RefKind::Load); // spans two 4B blocks
    EXPECT_THROW(runMinCache(t, c), FatalError);
}

TEST(MinCache, RejectsTableOfAnotherGranularity)
{
    // A word-granularity table keys the trace by 4B blocks; a 32B
    // cache must not accept it in place of its own.
    const Trace t = loadsAt({0, 4, 8, 0, 64});
    MinCacheConfig c;
    c.size = 64;
    c.blockBytes = 32;
    c.alloc = AllocPolicy::WriteAllocate;
    EXPECT_THROW(MinCacheSim(t, c, makeNextUseTable(t, wordBytes)),
                 FatalError);
    EXPECT_NO_THROW(MinCacheSim(t, c, makeNextUseTable(t, 32)));
}

/**
 * Reference MIN: the resident set is a std::set ordered by
 * (nextUse, addr) and the victim is its last element, exactly the
 * order the MTCS checkpoint rows record.
 */
struct ReferenceMin
{
    MinCacheStats stats;
    std::uint64_t pops = 0;

    ReferenceMin(const Trace &trace, const MinCacheConfig &c)
    {
        struct Block
        {
            Tick nextUse;
            std::uint64_t valid, dirty;
        };
        std::vector<Tick> next(trace.size(), tickInfinity);
        std::map<Addr, Tick> seen;
        for (std::size_t i = trace.size(); i-- > 0;) {
            const Addr b = trace[i].addr / c.blockBytes * c.blockBytes;
            if (seen.count(b))
                next[i] = seen[b];
            seen[b] = i;
        }
        const std::uint64_t full =
            (std::uint64_t{2} << (c.blockBytes / wordBytes - 1)) - 1;
        auto wb = [&](const Block &blk) -> Bytes {
            if (blk.dirty == 0)
                return 0;
            return c.alloc == AllocPolicy::WriteValidate
                       ? std::popcount(blk.dirty) * wordBytes
                       : c.blockBytes;
        };
        std::set<std::pair<Tick, Addr>> order;
        std::map<Addr, Block> blocks;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const MemRef &r = trace[i];
            const Addr b = r.addr / c.blockBytes * c.blockBytes;
            const std::uint64_t words =
                ((std::uint64_t{2} << ((r.addr + r.size - 1 - b) / 4)) -
                 1) &
                ~((std::uint64_t{1} << ((r.addr - b) / 4)) - 1);
            stats.accesses++;
            stats.requestBytes += r.size;
            if (auto it = blocks.find(b); it != blocks.end()) {
                Block &blk = it->second;
                order.erase({blk.nextUse, b});
                blk.nextUse = next[i];
                order.insert({next[i], b});
                if (r.isLoad()) {
                    stats.fetchBytes +=
                        std::popcount(words & ~blk.valid) * wordBytes;
                    blk.valid |= words;
                } else {
                    blk.valid |= words;
                    blk.dirty |= words;
                }
                stats.hits++;
                continue;
            }
            stats.misses++;
            if (blocks.size() == c.blocks()) {
                auto victim = std::prev(order.end());
                if (c.allowBypass && next[i] > victim->first) {
                    stats.bypasses++;
                    (r.isLoad() ? stats.fetchBytes
                                : stats.writebackBytes) += r.size;
                    continue;
                }
                if (victim->first == tickInfinity) {
                    // Scan dead blocks from the top for a clean one.
                    std::size_t scanned = 0;
                    for (auto it = victim;; --it) {
                        if (it->first != tickInfinity ||
                            scanned == (c.writeAware ? 32u : 1u))
                            break;
                        scanned++;
                        if (blocks[it->second].dirty == 0) {
                            victim = it;
                            break;
                        }
                        if (it == order.begin())
                            break;
                    }
                    pops += scanned;
                }
                stats.writebackBytes += wb(blocks[victim->second]);
                blocks.erase(victim->second);
                order.erase(victim);
            }
            Block blk{next[i], full, 0};
            if (r.isStore()) {
                blk.dirty = words;
                if (c.alloc == AllocPolicy::WriteValidate) {
                    blk.valid = words;
                    stats.validates++;
                }
            }
            if (r.isLoad() || c.alloc == AllocPolicy::WriteAllocate)
                stats.fetchBytes += c.blockBytes;
            blocks[b] = blk;
            order.insert({next[i], b});
        }
        for (const auto &[b, blk] : blocks)
            stats.flushWritebackBytes += wb(blk);
    }
};

void
expectSameStats(const MinCacheStats &got, const MinCacheStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.hits, want.hits) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.bypasses, want.bypasses) << what;
    EXPECT_EQ(got.validates, want.validates) << what;
    EXPECT_EQ(got.requestBytes, want.requestBytes) << what;
    EXPECT_EQ(got.fetchBytes, want.fetchBytes) << what;
    EXPECT_EQ(got.writebackBytes, want.writebackBytes) << what;
    EXPECT_EQ(got.flushWritebackBytes, want.flushWritebackBytes) << what;
}

/**
 * Level runs over word trace @p t: for first capacities of 1, 3 and
 * 16 blocks, bypass on and off, every level under both policies
 * equals the reference MIN and a one-level run, whether the level run
 * is stepped in random slices or memoised by a shared table, and a
 * shared table answers capacities off its grid (below the first, an
 * odd multiple of it, above the distinct blocks) like the reference.
 */
void
checkLevelRuns(const Trace &t, Rng &rng, const std::string &round)
{
    const NextUseTable table = makeNextUseTable(t, wordBytes);
    auto config = [](std::uint64_t blocks, bool bypass,
                     AllocPolicy alloc) {
        MinCacheConfig c = canonicalMtc(blocks * wordBytes);
        c.allowBypass = bypass;
        c.alloc = alloc;
        return c;
    };
    for (const unsigned first : {1u, 3u, 16u}) {
        for (const bool bypass : {false, true}) {
            const std::string what =
                round + " first " + std::to_string(first) +
                (bypass ? " bypass" : " no bypass");
            // The first query through a fresh table runs the level
            // run from its own capacity.
            const NextUseTable shared = makeNextUseTable(t, wordBytes);
            const AllocPolicy firstAlloc = first == 3
                                               ? AllocPolicy::WriteAllocate
                                               : AllocPolicy::WriteValidate;
            runMinCache(t, config(first, bypass, firstAlloc), shared);
            ASSERT_TRUE(shared->levelResults) << what;
            const MinLevelResults pass = *shared->levelResults;
            const std::size_t levels = pass.writeValidate.size();
            ASSERT_EQ(pass.writeAllocate.size(), levels) << what;
            EXPECT_EQ(pass.firstBlocks, first) << what;
            EXPECT_EQ(pass.distinctBlocks, table->deadAddrs.size()) << what;
            EXPECT_GE(std::uint64_t{first} << (levels - 1),
                      pass.distinctBlocks)
                << what;
            if (levels > 1) {
                EXPECT_LT(std::uint64_t{first} << (levels - 2),
                          pass.distinctBlocks)
                    << what;
            }

            MinCacheSim sliced(t, config(first, bypass, firstAlloc),
                               table, static_cast<unsigned>(levels));
            while (!sliced.done())
                sliced.step(1 + rng.below(400));
            const MinLevelResults steps = sliced.finalizeLevels();

            for (std::size_t j = 0; j < levels; ++j) {
                for (const AllocPolicy alloc :
                     {AllocPolicy::WriteAllocate,
                      AllocPolicy::WriteValidate}) {
                    const bool wa = alloc == AllocPolicy::WriteAllocate;
                    const MinCacheConfig c =
                        config(std::uint64_t{first} << j, bypass, alloc);
                    const std::string at = what + " level " +
                                           std::to_string(j) + " " +
                                           c.describe();
                    const MinCacheStats &got =
                        (wa ? pass.writeAllocate : pass.writeValidate)[j];
                    expectSameStats(got, ReferenceMin(t, c).stats, at);
                    expectSameStats(got, MinCacheSim(t, c, table).run(),
                                    at + " one-level");
                    expectSameStats(
                        (wa ? steps.writeAllocate : steps.writeValidate)[j],
                        got, at + " sliced");
                    ASSERT_NE(pass.find(c), nullptr) << at;
                    expectSameStats(runMinCache(t, c, shared), got,
                                    at + " shared");
                }
            }

            // Off the grid: the shared table falls back to a cell of
            // the query's own, or answers from the last level.
            std::vector<std::uint64_t> off{3 * std::uint64_t{first},
                                           pass.distinctBlocks + 5};
            if (first > 1)
                off.push_back(first - 1);
            for (const std::uint64_t blocks : off) {
                const MinCacheConfig c =
                    config(blocks, bypass, AllocPolicy::WriteValidate);
                const std::string at = what + " off-grid " + c.describe();
                EXPECT_EQ(pass.find(c) != nullptr,
                          blocks >= pass.distinctBlocks)
                    << at;
                expectSameStats(runMinCache(t, c, shared),
                                ReferenceMin(t, c).stats, at);
            }
            // Another bypass setting never reads the run.
            const MinCacheConfig other =
                config(first, !bypass, AllocPolicy::WriteValidate);
            EXPECT_EQ(pass.find(other), nullptr) << what;
            expectSameStats(runMinCache(t, other, shared),
                            ReferenceMin(t, other).stats,
                            what + " other bypass");
        }
    }
}

TEST(MinCache, MatchesReferenceMinOnRandomizedGrid)
{
    Rng rng(2024);
    for (int round = 0; round < 6; ++round) {
        // Word refs over a hot region and a sparse cold one, with
        // some double-word refs that stay inside 8B blocks.
        Trace t;
        const std::size_t refs = 1500 + rng.below(1500);
        for (std::size_t i = 0; i < refs; ++i) {
            const bool hot = rng.chance(0.7);
            const Addr a =
                hot ? rng.below(256) * 4 : 0x10000 + rng.below(4096) * 4;
            const RefKind kind =
                rng.chance(0.35) ? RefKind::Store : RefKind::Load;
            if (round % 2 == 1 && rng.chance(0.2))
                t.append(a / 8 * 8, 8, kind);
            else
                t.append(a, 4, kind);
        }
        for (Bytes block : {4, 8, 16, 32, 64, 128, 256}) {
            if (block < 8 && round % 2 == 1)
                continue; // 8B refs span 4B blocks
            const NextUseTable table = makeNextUseTable(t, block);
            for (unsigned blocks : {1u, 3u, 16u, 100u}) {
                for (int variant = 0; variant < 8; ++variant) {
                    MinCacheConfig c;
                    c.size = blocks * block;
                    c.blockBytes = block;
                    c.alloc = variant & 1 ? AllocPolicy::WriteAllocate
                                          : AllocPolicy::WriteValidate;
                    c.allowBypass = variant & 2;
                    c.writeAware = variant & 4;
                    const std::string what =
                        c.describe() + (c.writeAware ? " aware" : "") +
                        " round " + std::to_string(round);
                    const ReferenceMin ref(t, c);

                    // Random slices with a checkpoint round trip at a
                    // random cursor.
                    const std::size_t cut = rng.below(refs + 1);
                    MinCacheSim first(t, c, table);
                    while (first.cursor() < cut)
                        first.step(std::min<std::size_t>(
                            1 + rng.below(400), cut - first.cursor()));
                    ChkWriter w;
                    first.saveState(w);
                    const std::string image = w.serialize();
                    auto opened =
                        ChkReader::fromMemory(image.data(), image.size());
                    ASSERT_TRUE(opened.ok()) << what;
                    ChkReader r = std::move(opened.value());
                    MinCacheSim sim(t, c, table);
                    sim.loadState(r);
                    ASSERT_FALSE(r.failed())
                        << what << ": " << r.error().describe();
                    while (!sim.done())
                        sim.step(1 + rng.below(400));
                    expectSameStats(sim.finalize(), ref.stats, what);
                    EXPECT_EQ(sim.victimScanPops(), ref.pops) << what;
                }
            }
        }
        if (round % 2 == 0)
            checkLevelRuns(t, rng, "round " + std::to_string(round));
    }
}

TEST(MinCache, SharedTableAnswersConcurrentFirstQueries)
{
    // Four threads make the first queries on one table at once, each
    // over the canonical sizes in its own order, plus one off-grid
    // size; whichever query runs the level run, every answer must
    // equal a one-level run of its own.
    Rng rng(1996);
    Trace t;
    for (std::size_t i = 0; i < 20000; ++i)
        t.append(rng.chance(0.8) ? rng.below(512) * 4
                                 : 0x40000 + rng.below(8192) * 4,
                 4, rng.chance(0.3) ? RefKind::Store : RefKind::Load);
    std::vector<MinCacheConfig> cells;
    for (const Bytes size : {256, 1024, 4096, 16384, 3072}) {
        cells.push_back(canonicalMtc(size));
        cells.back().alloc = AllocPolicy::WriteAllocate;
        cells.push_back(canonicalMtc(size));
    }

    const NextUseTable shared = makeNextUseTable(t, wordBytes);
    const std::size_t keyBytes = shared->bytes();
    constexpr int threads = 4;
    std::vector<std::vector<MinCacheStats>> got(
        threads, std::vector<MinCacheStats>(cells.size()));
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int k = 0; k < threads; ++k)
        pool.emplace_back([&, k] {
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            for (std::size_t n = 0; n < cells.size(); ++n) {
                const std::size_t rotated =
                    (n + 3 * static_cast<std::size_t>(k)) % cells.size();
                const std::size_t c =
                    k % 2 ? cells.size() - 1 - rotated : rotated;
                got[k][c] = runMinCache(t, cells[c], shared);
            }
        });
    for (std::thread &th : pool)
        th.join();

    ASSERT_TRUE(shared->levelResults);
    // The memoised run counts towards the table's resident bytes.
    EXPECT_EQ(shared->bytes(), keyBytes + shared->levelResults->bytes());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const MinCacheStats want =
            MinCacheSim(t, cells[c], makeNextUseTable(t, wordBytes)).run();
        for (int k = 0; k < threads; ++k)
            expectSameStats(got[k][c], want,
                            cells[c].describe() + " thread " +
                                std::to_string(k));
    }
}

} // namespace
} // namespace membw
