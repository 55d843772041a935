/**
 * @file
 * Fully-associative Belady-MIN cache — the paper's minimal-traffic
 * cache (MTC, Section 5.2) and the MIN-replacement comparison points
 * of Tables 9/10.
 *
 * The canonical MTC has all four properties: full associativity,
 * transfer size equal to the request size (4B words), MIN
 * replacement, and bypassing of lower-priority misses.  This class
 * generalizes the block size and the write-miss policy so the factor
 * isolation experiments (MIN/fa/32B/WA etc.) reuse the same engine.
 * Like the paper, write costs use MIN rather than the write-aware
 * Horwitz algorithm, so measured traffic is an aggressive bound, not
 * an exact minimum.
 */

#ifndef MEMBW_MTC_MIN_CACHE_HH
#define MEMBW_MTC_MIN_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/config.hh"
#include "common/types.hh"
#include "mtc/next_use.hh"
#include "obs/mem_probe.hh"
#include "trace/trace.hh"

namespace membw {

class StatsGroup;
class ChkWriter;
class ChkReader;

/** Configuration for a MIN-replacement fully-associative cache. */
struct MinCacheConfig
{
    Bytes size = 8_KiB;
    Bytes blockBytes = wordBytes; ///< MTC uses word-sized blocks
    /** WriteAllocate or WriteValidate (always write-back). */
    AllocPolicy alloc = AllocPolicy::WriteValidate;
    /** Allow misses whose next use is furthest to bypass the cache. */
    bool allowBypass = true;

    /**
     * Write-aware victim selection (a Horwitz-inspired heuristic):
     * among the blocks never referenced again, prefer a clean one
     * over a dirty one.  This cannot change total traffic: the
     * choice among dead blocks adds no miss and changes no bypass,
     * and a dead dirty block is written back exactly once, on
     * eviction or in the end-of-run flush.  It only moves write-back
     * bytes from writebackBytes into flushWritebackBytes.  The paper
     * implemented plain MIN and asserted the disparity from an
     * optimal write-aware policy is small (Section 5.2).
     */
    bool writeAware = false;

    unsigned blocks() const
    {
        return static_cast<unsigned>(size / blockBytes);
    }
    void validate() const;
    std::string describe() const;
};

/** Traffic summary of a MIN-cache run. */
struct MinCacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;  ///< subset of misses never cached
    std::uint64_t validates = 0; ///< write-validate allocs (no fetch)

    Bytes requestBytes = 0;
    Bytes fetchBytes = 0;        ///< fills (and bypass load transfers)
    Bytes writebackBytes = 0;    ///< dirty evictions + bypassed stores
    Bytes flushWritebackBytes = 0;

    Bytes
    trafficBelow() const
    {
        return fetchBytes + writebackBytes + flushWritebackBytes;
    }

    double
    trafficRatio() const
    {
        return requestBytes
                   ? static_cast<double>(trafficBelow()) / requestBytes
                   : 0.0;
    }
};

/**
 * Per-level stats of one multi-level MIN pass (see MinCacheSim's
 * level constructor): level j holds firstBlocks << j blocks, and the
 * last level is the first at or above the trace's distinct-block
 * count.  Both write-miss policies come from the same pass.
 */
struct MinLevelResults
{
    std::uint64_t firstBlocks = 0;
    std::uint64_t distinctBlocks = 0;
    bool allowBypass = true;
    std::vector<MinCacheStats> writeAllocate;
    std::vector<MinCacheStats> writeValidate;

    /**
     * The stats of a word-block, plain-MIN @p config, or null when
     * the pass does not answer it: another bypass setting, or a
     * capacity neither on the grid nor at or above distinctBlocks
     * (every such capacity never evicts, so the last level answers).
     */
    const MinCacheStats *find(const MinCacheConfig &config) const;

    /** Resident bytes (artifact-cache accounting). */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + (writeAllocate.size() +
                                writeValidate.size()) *
                                   sizeof(MinCacheStats);
    }
};

/**
 * Two-pass MIN simulation over a whole trace.
 *
 * The constructor runs pass one (next-use table); run() performs the
 * stack simulation.  Victim choice follows Belady's MIN [3]: evict
 * the resident block referenced furthest in the future.  With
 * bypassing enabled (Section 5.2, footnote 2), a miss in a full cache
 * bypasses it exactly when no resident block is dead (never used
 * again) and the missing block's victim key exceeds every resident
 * key.  So a missing block that is dead ranks above every finite
 * next use but below every resident dead block: it bypasses unless a
 * dead block is resident, and that block is evicted instead.
 *
 * One run answers one capacity, or a grid of them (a *level run*):
 * MIN with this bypass rule is a stack algorithm, so the blocks held
 * at one capacity are a subset of those held at twice it, and one
 * pass over the trace cascades each miss down the levels (Mattson et
 * al. 1970; Sugumar and Abraham 1993).
 *
 * The simulation is resumable: step() advances by a bounded number of
 * references and saveState()/loadState() checkpoint the resident set
 * and counters of a one-level run.  The next-use side table is
 * rebuilt deterministically by the constructor, so checkpoints stay
 * proportional to the cache, not the trace.
 */
class MinCacheSim
{
  public:
    MinCacheSim(const Trace &trace, const MinCacheConfig &config);

    /**
     * Like the two-argument constructor, but reuses a next-use table
     * previously built by makeNextUseTable() for the same trace at
     * config.blockBytes granularity, skipping pass one.  A null
     * table, or one built for another trace length or block size, is
     * fatal.
     */
    MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                NextUseTable nextUse);

    /**
     * A level run: level j holds config.blocks() << j blocks, for j
     * below @p levels.  Each reference is stepped once, its miss
     * pushed down the levels until it lands.  Word blocks and plain
     * MIN only (fatal otherwise); both write-miss policies are
     * answered, config.alloc only picks what finalize() and stats()
     * report.  A level run does not checkpoint, probe or count
     * victim-scan pops.
     */
    MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                NextUseTable nextUse, unsigned levels);

    ~MinCacheSim();

    /** Simulate the full trace, including the final dirty flush. */
    MinCacheStats run();

    /** Advance by up to @p n references from the cursor. */
    void step(std::size_t n);

    /** References simulated so far. */
    std::size_t cursor() const { return cursor_; }

    /** True once every reference has been simulated. */
    bool done() const { return cursor_ == trace_.size(); }

    /**
     * Stats including the end-of-run dirty flush (Section 4.1).
     * Valid once done(); does not mutate, so mid-run heartbeats may
     * also call it for a conservative snapshot.
     */
    MinCacheStats finalize() const;

    /** Stats of every level of a level run (fatal on a one-level
     * run), with the end-of-run flush. */
    MinLevelResults finalizeLevels() const;

    /** Raw counters without the flush estimate — monotonic, so
     * interval samplers can diff successive snapshots safely.  A
     * level run reports its first level. */
    const MinCacheStats &stats() const { return stats_; }

    /** Cumulative victim-scan pops of never-used-again keys. */
    std::uint64_t victimScanPops() const { return victimScanPops_; }

    /** Attach @p probe (null to detach) reporting victim-scan work. */
    void setProbe(MemProbe *probe) { probe_ = probe; }

    /** Serialize cursor, counters, and resident set ("MTCS").  Fatal
     * on a level run. */
    void saveState(ChkWriter &w) const;

    /**
     * Restore state written by saveState() for the same trace and
     * config; mismatches latch a classified error on @p r.  Fatal
     * on a level run.
     */
    void loadState(ChkReader &r);

  private:
    /**
     * Hierarchical bitmap over victim keys: set, clear and test touch
     * one word per tier at most, and find-max scans one word per
     * tier.  All tiers live in one array, leaf tier first.
     */
    class MaxBitmap
    {
      public:
        void init(std::size_t bits);
        void set(std::size_t i);
        void clear(std::size_t i);
        bool
        test(std::size_t i) const
        {
            return words_[i >> 6] >> (i & 63) & 1;
        }
        /** Highest set bit, or false when the bitmap is empty. */
        bool findMax(std::size_t &out) const;
        /** Call @p f on every set bit in ascending order. */
        template <class F> void forEach(F &&f) const;

      private:
        std::vector<std::uint64_t> words_;
        /** Start of each tier in words_; the last tier is one word. */
        std::vector<std::size_t> tiers_;
    };

    struct LevelState;

    void checkTable();
    template <class State> void stepKeys(State state, std::size_t end);
    void stepLevels(std::size_t end);
    MinCacheStats levelStats(unsigned level, AllocPolicy alloc) const;
    template <class F> void visitState(F &&f) const;
    Bytes writebackSize(std::uint64_t dirtyMask) const;
    void resetResident();

    const Trace &trace_;
    MinCacheConfig config_;
    NextUseTable nextUse_;

    std::uint64_t fullMask_ = 0;
    unsigned capacity_ = 0;

    MinCacheStats stats_;

    /** Cumulative victim-scan pops (see victimScanPops()).  Telemetry:
     * sampled as a trace counter and an epoch-profiler metric, and
     * checkpointed with the stats so a resumed profiled run stays
     * byte-identical; still excluded from MinCacheStats itself. */
    std::uint64_t victimScanPops_ = 0;

    MemProbe *probe_ = nullptr;

    /**
     * The resident set: one bit per victim key (see NextUseKeys), set
     * while the block holding that key is resident.  Trace position t
     * references exactly one block, so at most one resident block
     * holds key t, and the access at t hits if and only if bit t is
     * set.  A block keys on refs() + rank once it is never referenced
     * again, so the MIN victim, dead blocks first, highest address
     * first among them, else the furthest next use, is the highest set
     * bit.  Each key is issued once per run, so a block needs no
     * address, slot or owner: its key names it.
     */
    MaxBitmap resident_;
    std::size_t residentCount_ = 0;

    /**
     * Per-key valid/dirty state, written when a key is issued and
     * never cleared.  Word blocks keep one dirty bit per key (valid is
     * always the whole word); wider blocks keep a valid and a dirty
     * word mask per key, 16 bytes per key over the whole key space,
     * so their memory grows with the trace, not the cache.
     */
    std::vector<std::uint64_t> keyState_;

    /** Cascade state of a level run; null for a one-level run, whose
     * resident_ and keyState_ are then unused. */
    std::unique_ptr<LevelState> levels_;

    std::size_t cursor_ = 0;
};

/** Convenience: run an MTC (or variant) and return its stats. */
MinCacheStats runMinCache(const Trace &trace,
                          const MinCacheConfig &config);

/**
 * Like runMinCache(), reusing a shared next-use table.  The table
 * also memoises one level run: the first query with word blocks and
 * plain MIN runs it from its own capacity under the table's lock, and
 * every later query that the run answers (MinLevelResults::find())
 * reads its stats.  Any other query runs its own one-level cell.
 */
MinCacheStats runMinCache(const Trace &trace,
                          const MinCacheConfig &config,
                          NextUseTable nextUse);

/** Publish @p stats under @p group (typically "mtc"). */
void publishMinCacheStats(StatsGroup &group,
                          const MinCacheStats &stats);

/** The paper's canonical MTC configuration for a given size. */
MinCacheConfig canonicalMtc(Bytes size);

} // namespace membw

#endif // MEMBW_MTC_MIN_CACHE_HH
