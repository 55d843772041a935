#include "mtc/min_cache.hh"

#include <algorithm>
#include <bit>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "mtc/next_use.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/checkpoint.hh"

namespace membw {

void
MinCacheConfig::validate() const
{
    if (blockBytes < wordBytes || !isPowerOfTwo(blockBytes))
        fatal("MTC block size must be a power of two >= 4B");
    if (blockBytes > 64 * wordBytes)
        fatal("MTC block size above 256B is unsupported");
    if (size == 0 || size % blockBytes != 0)
        fatal("MTC size must be a non-zero multiple of the block");
    if (alloc == AllocPolicy::WriteNoAllocate)
        fatal("MTC does not support write-no-allocate");
}

std::string
MinCacheConfig::describe() const
{
    return formatSize(size) + "/full/" + formatSize(blockBytes) +
           " MIN-" + toString(alloc) + (allowBypass ? "+bypass" : "");
}

namespace {

/**
 * Per-key state views over MinCacheSim's keyState_ words.  Keys are
 * issued once per run, so a key's state is written once, while its
 * words are still zero, and never cleared.
 */

/** Word blocks: valid is always the whole word; one dirty bit. */
struct DirtyBits
{
    std::uint64_t *bits;

    static std::size_t words(std::size_t keys) { return (keys + 63) / 64; }
    std::uint64_t valid(std::size_t, std::uint64_t full) const { return full; }
    std::uint64_t
    dirty(std::size_t k) const
    {
        return bits[k >> 6] >> (k & 63) & 1;
    }
    void
    put(std::size_t k, std::uint64_t, std::uint64_t dirty)
    {
        if (dirty)
            bits[k >> 6] |= std::uint64_t{1} << (k & 63);
    }
    /** Move a hit block from key @p from to @p to; no word is ever
     * missing from a resident word block. */
    std::uint64_t
    hit(std::size_t from, std::size_t to, bool load, std::uint64_t)
    {
        if (!load || dirty(from))
            put(to, 1, 1);
        return 0;
    }
};

/** Wider blocks: a valid and a dirty word mask per key. */
struct Masks
{
    std::uint64_t *masks; ///< valid at 2k, dirty at 2k + 1

    static std::size_t words(std::size_t keys) { return 2 * keys; }
    std::uint64_t
    valid(std::size_t k, std::uint64_t) const
    {
        return masks[2 * k];
    }
    std::uint64_t dirty(std::size_t k) const { return masks[2 * k + 1]; }
    void
    put(std::size_t k, std::uint64_t valid, std::uint64_t dirty)
    {
        masks[2 * k] = valid;
        masks[2 * k + 1] = dirty;
    }
    /** Move a hit block from key @p from to @p to and apply the
     * access; returns the words a load had to fetch. */
    std::uint64_t
    hit(std::size_t from, std::size_t to, bool load, std::uint64_t words)
    {
        std::uint64_t valid = masks[2 * from];
        std::uint64_t dirty = masks[2 * from + 1];
        std::uint64_t missing = 0;
        if (load) {
            missing = words & ~valid;
            valid |= missing;
        } else {
            valid |= words;
            dirty |= words;
        }
        put(to, valid, dirty);
        return missing;
    }
};

} // namespace

MinCacheSim::MinCacheSim(const Trace &trace, const MinCacheConfig &config)
    : MinCacheSim(trace, config,
                  makeNextUseTable(trace, config.blockBytes))
{
}

MinCacheSim::MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                         NextUseTable nextUse)
    : trace_(trace), config_(config), nextUse_(std::move(nextUse))
{
    checkTable();
    resetResident();
}

/**
 * Cascade state of a level run.  A block held at one level is held at
 * every larger one, so each resident block has a *home*, the smallest
 * level holding it, and each level keeps a bitmap of the keys homed
 * there.  A level that is not full holds every block seen so far, and
 * once full it stays full, so the full levels are the first `full`.
 */
struct MinCacheSim::LevelState
{
    std::vector<MaxBitmap> homed; ///< per level: keys homed there
    /** Per level: the highest key homed there (0 before any). */
    std::vector<std::size_t> top;
    /** Per key: its block's home level, or levels() if not held. */
    std::vector<std::uint8_t> home;
    /** Per key: its block is dirty at the levels that hold it from
     * this one up; levels() if clean at every level. */
    std::vector<std::uint8_t> dirty;
    unsigned full = 0;
    std::uint64_t seen = 0; ///< distinct blocks referenced so far

    /** Per level L, levels() for a new block: loads and stores whose
     * block was held from level L up, so they miss below L. */
    std::vector<std::uint64_t> loadsFrom, storesFrom;

    /** Per level: misses that bypassed it and its dirty evictions. */
    struct Events
    {
        std::uint64_t bypassLoads = 0;
        std::uint64_t bypassStores = 0;
        Bytes bypassLoadBytes = 0;
        Bytes bypassStoreBytes = 0;
        std::uint64_t dirtyEvictions = 0;
    };
    std::vector<Events> events;
    Bytes requestBytes = 0;

    unsigned levels() const { return static_cast<unsigned>(top.size()); }
};

MinCacheSim::MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                         NextUseTable nextUse, unsigned levels)
    : trace_(trace), config_(config), nextUse_(std::move(nextUse))
{
    checkTable();
    if (config_.blockBytes != wordBytes || config_.writeAware)
        fatal("an MTC level run needs word blocks and plain MIN");
    // Capacities must fit 64 bits and level numbers a byte.
    const unsigned maxLevels =
        65 - static_cast<unsigned>(std::bit_width(capacity_));
    if (levels == 0 || levels > maxLevels)
        fatal("an MTC level run from " + std::to_string(capacity_) +
              " blocks needs 1 to " + std::to_string(maxLevels) +
              " levels");

    levels_ = std::make_unique<LevelState>();
    LevelState &ls = *levels_;
    const std::size_t keys = nextUse_->keySpace();
    ls.homed.resize(levels);
    for (MaxBitmap &b : ls.homed)
        b.init(keys);
    ls.top.assign(levels, 0);
    ls.home.assign(keys, static_cast<std::uint8_t>(levels));
    ls.dirty.assign(keys, static_cast<std::uint8_t>(levels));
    ls.loadsFrom.assign(levels + 1, 0);
    ls.storesFrom.assign(levels + 1, 0);
    ls.events.resize(levels);
}

MinCacheSim::~MinCacheSim() = default;

void
MinCacheSim::checkTable()
{
    config_.validate();
    if (!nextUse_ || nextUse_->refs() != trace_.size())
        fatal("MTC shared next-use table does not match the trace");
    if (nextUse_->blockBytes != config_.blockBytes)
        fatal("MTC shared next-use table was built for " +
              formatSize(nextUse_->blockBytes) + " blocks, not " +
              formatSize(config_.blockBytes));

    const unsigned words_per_block =
        static_cast<unsigned>(config_.blockBytes / wordBytes);
    fullMask_ = words_per_block == 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << words_per_block) - 1;
    capacity_ = config_.blocks();
}

template <class F>
void
MinCacheSim::visitState(F &&f) const
{
    // The views write only from step() and loadState(); const
    // callers only read through them.
    std::uint64_t *words = const_cast<std::uint64_t *>(keyState_.data());
    if (config_.blockBytes == wordBytes)
        f(DirtyBits{words});
    else
        f(Masks{words});
}

Bytes
MinCacheSim::writebackSize(std::uint64_t dirtyMask) const
{
    if (dirtyMask == 0)
        return 0;
    if (config_.alloc == AllocPolicy::WriteValidate)
        return static_cast<Bytes>(std::popcount(dirtyMask)) * wordBytes;
    return config_.blockBytes;
}

void
MinCacheSim::resetResident()
{
    const std::size_t keys = nextUse_->keySpace();
    resident_.init(keys);
    residentCount_ = 0;
    visitState([&](auto state) {
        keyState_.assign(decltype(state)::words(keys), 0);
    });
}

void
MinCacheSim::MaxBitmap::init(std::size_t bits)
{
    tiers_.clear();
    std::size_t total = 0;
    std::size_t words = (bits + 63) / 64;
    if (words == 0)
        words = 1;
    for (;;) {
        tiers_.push_back(total);
        total += words;
        if (words == 1)
            break;
        words = (words + 63) / 64;
    }
    words_.assign(total, 0);
}

void
MinCacheSim::MaxBitmap::set(std::size_t i)
{
    // A tier's word was already non-zero iff the tiers above
    // already record it, so the walk stops there.
    for (const std::size_t base : tiers_) {
        std::uint64_t &word = words_[base + (i >> 6)];
        const std::uint64_t old = word;
        word = old | std::uint64_t{1} << (i & 63);
        if (old != 0)
            break;
        i >>= 6;
    }
}

void
MinCacheSim::MaxBitmap::clear(std::size_t i)
{
    for (const std::size_t base : tiers_) {
        std::uint64_t &word = words_[base + (i >> 6)];
        word &= ~(std::uint64_t{1} << (i & 63));
        if (word != 0)
            break;
        i >>= 6;
    }
}

bool
MinCacheSim::MaxBitmap::findMax(std::size_t &out) const
{
    if (words_[tiers_.back()] == 0)
        return false;
    std::size_t i = 0;
    for (std::size_t l = tiers_.size(); l-- > 0;) {
        const std::uint64_t word = words_[tiers_[l] + i];
        i = (i << 6) +
            (63 - static_cast<std::size_t>(std::countl_zero(word)));
    }
    out = i;
    return true;
}

template <class F>
void
MinCacheSim::MaxBitmap::forEach(F &&f) const
{
    const std::size_t leaves = tiers_.size() > 1 ? tiers_[1] : 1;
    for (std::size_t w = 0; w < leaves; ++w)
        for (std::uint64_t word = words_[w]; word != 0;
             word &= word - 1)
            f(w * 64 +
              static_cast<std::size_t>(std::countr_zero(word)));
}

template <class State>
void
MinCacheSim::stepKeys(State state, std::size_t end)
{
    const Bytes block_bytes = config_.blockBytes;
    const std::size_t refs = trace_.size();
    const MemRef *trace = trace_.data();
    const VictimKey *keys = nextUse_->keys.data();
    const std::size_t limit = config_.writeAware ? 32 : 1;
    const bool bypass = config_.allowBypass;
    const bool write_allocate = config_.alloc == AllocPolicy::WriteAllocate;
    const std::uint64_t full = fullMask_;

    // Counters live in locals for the loop and are stored back on
    // every exit, including a fatal reference.
    MinCacheStats s = stats_;
    std::uint64_t pops = victimScanPops_;
    std::size_t resident = residentCount_;
    std::size_t i = cursor_;
    auto store_back = [&] {
        stats_ = s;
        victimScanPops_ = pops;
        residentCount_ = resident;
        cursor_ = i;
    };

    for (; i < end; ++i) {
        const MemRef &ref = trace[i];
        const std::size_t key = keys[i];
        const Addr block = alignDown(ref.addr, block_bytes);
        if (alignDown(ref.addr + ref.size - 1, block_bytes) != block) {
            store_back();
            fatal("MTC reference spans a block boundary");
        }
        std::uint64_t words = 1;
        if constexpr (!std::is_same_v<State, DirtyBits>) {
            const unsigned first =
                static_cast<unsigned>((ref.addr - block) / wordBytes);
            const unsigned last = static_cast<unsigned>(
                (ref.addr + ref.size - 1 - block) / wordBytes);
            words = ((std::uint64_t{2} << last) - 1) ^
                    ((std::uint64_t{1} << first) - 1);
        }

        s.accesses++;
        s.requestBytes += ref.size;

        // Position i is the recorded next use of the block it
        // references, so it hits iff key i is resident.
        if (resident_.test(i)) {
            resident_.clear(i);
            resident_.set(key);
            const std::uint64_t missing =
                state.hit(i, key, ref.isLoad(), words);
            s.fetchBytes +=
                static_cast<Bytes>(std::popcount(missing)) * wordBytes;
            s.hits++;
            continue;
        }

        s.misses++;

        if (resident == capacity_) {
            std::size_t top = 0;
            resident_.findMax(top);
            std::size_t victim = top;
            if (top < refs) {
                // No dead block is resident; the furthest next use
                // goes, unless the incoming block's is further still
                // and it bypasses the cache.
                if (bypass && key > top) {
                    s.bypasses++;
                    if (ref.isLoad())
                        s.fetchBytes += ref.size;
                    else
                        s.writebackBytes += ref.size;
                    continue;
                }
                resident_.clear(top);
            } else {
                // Pop the victim and, for the write-aware scan, up to
                // 31 more dead keys in descending address order,
                // stopping at the first clean block, whose eviction
                // defers a write-back without adding a miss.  Keys
                // not chosen are set back.  Only the popped prefix of
                // cand is ever read.
                std::size_t cand[32];
                std::size_t popped = 0;
                std::size_t chosen = 0;
                for (;;) {
                    resident_.clear(top);
                    cand[popped++] = top;
                    if (state.dirty(top) == 0) {
                        chosen = popped - 1;
                        break;
                    }
                    if (popped == limit || !resident_.findMax(top) ||
                        top < refs)
                        break;
                }
                victim = cand[chosen];
                pops += popped;
                MEMBW_PROBE(probe_, onMtcScan(popped));
                for (std::size_t k = 0; k < popped; ++k)
                    if (k != chosen)
                        resident_.set(cand[k]);
            }
            s.writebackBytes += writebackSize(state.dirty(victim));
            resident--;
        }

        if (ref.isLoad()) {
            state.put(key, full, 0);
            s.fetchBytes += block_bytes;
        } else if (write_allocate) {
            state.put(key, full, words);
            s.fetchBytes += block_bytes;
        } else { // WriteValidate: allocate without fetching.
            state.put(key, words, words);
            s.validates++;
        }
        resident_.set(key);
        resident++;
    }
    store_back();
}

void
MinCacheSim::stepLevels(std::size_t end)
{
    LevelState &ls = *levels_;
    const std::size_t refs = trace_.size();
    const MemRef *trace = trace_.data();
    const VictimKey *keys = nextUse_->keys.data();
    const bool bypass = config_.allowBypass;
    MaxBitmap *homed = ls.homed.data();
    std::size_t *top = ls.top.data();
    std::uint8_t *home = ls.home.data();
    std::uint8_t *dirty = ls.dirty.data();
    LevelState::Events *events = ls.events.data();
    const unsigned none = ls.levels();

    // Evict the top of full level j, home @p x there in its place and
    // return the evicted key, which is pushed on to level j + 1.
    auto swapTop = [&](unsigned j, std::size_t x) {
        const std::size_t z = top[j];
        if (dirty[z] <= j)
            events[j].dirtyEvictions++;
        homed[j].clear(z);
        homed[j].set(x);
        home[x] = static_cast<std::uint8_t>(j);
        homed[j].findMax(top[j]);
        return z;
    };

    std::size_t i = cursor_;
    for (; i < end; ++i) {
        const MemRef &ref = trace[i];
        if (alignDown(ref.addr + ref.size - 1, wordBytes) !=
            alignDown(ref.addr, wordBytes)) {
            cursor_ = i;
            stats_ = levelStats(0, config_.alloc);
            fatal("MTC reference spans a block boundary");
        }
        const std::size_t key = keys[i];
        const bool load = ref.isLoad();
        ls.requestBytes += ref.size;

        // Levels from `held` up hold the block under key i and hit; a
        // new block is held nowhere.  Key i is below every other
        // resident key, so clearing it leaves top[held] right unless
        // it was alone there, and the block lands back at `held`
        // below under a larger key, which restores it.
        const unsigned held = home[i];
        (load ? ls.loadsFrom : ls.storesFrom)[held]++;
        if (held != none) {
            homed[held].clear(i);
            home[i] = static_cast<std::uint8_t>(none);
        }

        // The levels below `held` miss.  Those below `full` are full:
        // the incoming block bypasses each whose top is a finite next
        // use nearer than its own, then enters the next one, and the
        // key it evicts there is pushed down, leaving each further
        // full level whose top it exceeds and swapping with the top
        // of the first it does not.  A level that is not full, or the
        // hit level, takes whatever is pushed.
        const unsigned stop = std::min(held, ls.full);
        unsigned j = 0;
        if (bypass) {
            for (; j < stop && top[j] < refs && key > top[j]; ++j) {
                LevelState::Events &e = events[j];
                if (load) {
                    e.bypassLoads++;
                    e.bypassLoadBytes += ref.size;
                } else {
                    e.bypassStores++;
                    e.bypassStoreBytes += ref.size;
                }
            }
        }
        std::size_t x = key;
        if (j < stop) {
            for (x = swapTop(j++, key); j < stop; ++j) {
                if (x < top[j])
                    x = swapTop(j, x);
                else if (dirty[x] <= j)
                    events[j].dirtyEvictions++;
            }
        }
        homed[j].set(x);
        home[x] = static_cast<std::uint8_t>(j);
        top[j] = std::max(top[j], x);

        if (held == none)
            for (++ls.seen; ls.full < none &&
                            std::uint64_t{capacity_} << ls.full <= ls.seen;)
                ++ls.full;
        // A store dirties the block wherever it is held.  A load
        // keeps the dirtiness of the levels it hit; below them the
        // block was fetched clean.
        dirty[key] = load ? std::max<std::uint8_t>(
                                dirty[i], static_cast<std::uint8_t>(held))
                          : 0;
    }
    cursor_ = i;
    stats_ = levelStats(0, config_.alloc);
}

MinCacheStats
MinCacheSim::levelStats(unsigned level, AllocPolicy alloc) const
{
    const LevelState &ls = *levels_;
    MinCacheStats s;
    std::uint64_t loadMisses = 0, storeMisses = 0;
    for (unsigned l = 0; l <= ls.levels(); ++l) {
        s.accesses += ls.loadsFrom[l] + ls.storesFrom[l];
        if (l > level) {
            loadMisses += ls.loadsFrom[l];
            storeMisses += ls.storesFrom[l];
        }
    }
    const LevelState::Events &e = ls.events[level];
    s.misses = loadMisses + storeMisses;
    s.hits = s.accesses - s.misses;
    s.bypasses = e.bypassLoads + e.bypassStores;
    s.requestBytes = ls.requestBytes;
    s.fetchBytes =
        (loadMisses - e.bypassLoads) * wordBytes + e.bypassLoadBytes;
    const std::uint64_t storesCached = storeMisses - e.bypassStores;
    if (alloc == AllocPolicy::WriteAllocate)
        s.fetchBytes += storesCached * wordBytes;
    else
        s.validates = storesCached;
    s.writebackBytes = e.dirtyEvictions * wordBytes + e.bypassStoreBytes;
    return s;
}

void
MinCacheSim::step(std::size_t n)
{
    MEMBW_SPAN("mtc.step");
    const std::size_t end =
        cursor_ + std::min(n, trace_.size() - cursor_);
    if (levels_) {
        stepLevels(end);
        return;
    }
    visitState([&](auto state) { stepKeys(state, end); });
    tracingCounter("mtc.victim_scan_pops",
                   static_cast<double>(victimScanPops_));
}

MinCacheStats
MinCacheSim::finalize() const
{
    if (levels_) {
        const MinLevelResults all = finalizeLevels();
        return (config_.alloc == AllocPolicy::WriteAllocate
                    ? all.writeAllocate
                    : all.writeValidate)
            .front();
    }
    // Program completion: flush all dirty data (Section 4.1).
    MinCacheStats stats = stats_;
    visitState([&](auto state) {
        resident_.forEach([&](std::size_t k) {
            stats.flushWritebackBytes += writebackSize(state.dirty(k));
        });
    });
    return stats;
}

MinLevelResults
MinCacheSim::finalizeLevels() const
{
    if (!levels_)
        fatal("finalizeLevels() needs an MTC level run");
    const LevelState &ls = *levels_;
    const unsigned levels = ls.levels();

    // A block is flushed dirty at every level that holds it and where
    // it is dirty: from the larger of its home and dirty levels up.
    std::vector<std::uint64_t> flushFrom(levels + 1, 0);
    for (std::size_t k = 0; k < ls.home.size(); ++k)
        if (ls.home[k] != levels)
            flushFrom[std::max(ls.home[k], ls.dirty[k])]++;

    MinLevelResults out;
    out.firstBlocks = capacity_;
    out.distinctBlocks = nextUse_->deadAddrs.size();
    out.allowBypass = config_.allowBypass;
    std::uint64_t flushed = 0;
    for (unsigned j = 0; j < levels; ++j) {
        flushed += flushFrom[j];
        for (const AllocPolicy alloc :
             {AllocPolicy::WriteAllocate, AllocPolicy::WriteValidate}) {
            MinCacheStats s = levelStats(j, alloc);
            s.flushWritebackBytes = flushed * wordBytes;
            (alloc == AllocPolicy::WriteAllocate ? out.writeAllocate
                                                  : out.writeValidate)
                .push_back(s);
        }
    }
    return out;
}

MinCacheStats
MinCacheSim::run()
{
    step(trace_.size() - cursor_);
    return finalize();
}

const MinCacheStats *
MinLevelResults::find(const MinCacheConfig &config) const
{
    if (config.blockBytes != wordBytes || config.writeAware ||
        config.allowBypass != allowBypass)
        return nullptr;
    const std::vector<MinCacheStats> &column =
        config.alloc == AllocPolicy::WriteAllocate ? writeAllocate
                                                   : writeValidate;
    const std::uint64_t blocks = config.blocks();
    if (blocks >= distinctBlocks)
        return &column.back();
    if (blocks % firstBlocks != 0 || !isPowerOfTwo(blocks / firstBlocks))
        return nullptr;
    const auto level =
        static_cast<std::size_t>(std::countr_zero(blocks / firstBlocks));
    return level < column.size() ? &column[level] : nullptr;
}

void
MinCacheSim::saveState(ChkWriter &w) const
{
    if (levels_)
        fatal("an MTC level run does not checkpoint");
    w.beginSection(chkTag("MTCS"));

    // Identity guard: the checkpoint only restores over the same
    // trace and configuration.
    w.u64(config_.size);
    w.u64(config_.blockBytes);
    w.u8(static_cast<std::uint8_t>(config_.alloc));
    w.u8(config_.allowBypass ? 1 : 0);
    w.u8(config_.writeAware ? 1 : 0);
    w.u64(trace_.size());

    w.u64(cursor_);
    w.u64(stats_.accesses);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    w.u64(stats_.bypasses);
    w.u64(stats_.validates);
    w.u64(stats_.requestBytes);
    w.u64(stats_.fetchBytes);
    w.u64(stats_.writebackBytes);
    w.u64(stats_.flushWritebackBytes);
    w.u64(victimScanPops_);

    // Resident set as (nextUse, addr, valid, dirty) rows sorted by
    // (nextUse, addr), the order of the original ordered-set
    // implementation.  Ascending keys are exactly that order: finite
    // ticks first, then never-used-again blocks by address.
    const std::size_t refs = trace_.size();
    const NextUseKeys &table = *nextUse_;
    w.u64(residentCount_);
    visitState([&](auto state) {
        resident_.forEach([&](std::size_t k) {
            const bool finite = k < refs;
            w.u64(finite ? static_cast<Tick>(k) : tickInfinity);
            w.u64(finite ? alignDown(trace_[k].addr, config_.blockBytes)
                         : table.deadAddrs[k - refs]);
            w.u64(state.valid(k, fullMask_));
            w.u64(state.dirty(k));
        });
    });

    w.endSection();
}

void
MinCacheSim::loadState(ChkReader &r)
{
    if (levels_)
        fatal("an MTC level run does not checkpoint");
    r.enterSection(chkTag("MTCS"));

    const std::uint64_t size = r.u64();
    const std::uint64_t block = r.u64();
    const std::uint8_t alloc = r.u8();
    const std::uint8_t bypass = r.u8();
    const std::uint8_t aware = r.u8();
    const std::uint64_t refs = r.u64();
    if (r.failed())
        return;
    if (size != config_.size || block != config_.blockBytes ||
        alloc != static_cast<std::uint8_t>(config_.alloc) ||
        bypass != (config_.allowBypass ? 1 : 0) ||
        aware != (config_.writeAware ? 1 : 0)) {
        r.fail(Errc::Mismatch,
               "MTC checkpoint was taken with a different "
               "configuration (" +
                   config_.describe() + " expected)");
        return;
    }
    if (refs != trace_.size()) {
        r.fail(Errc::Mismatch,
               "MTC checkpoint covers a " + std::to_string(refs) +
                   "-reference trace; this trace has " +
                   std::to_string(trace_.size()));
        return;
    }

    cursor_ = static_cast<std::size_t>(r.u64());
    stats_ = MinCacheStats{};
    stats_.accesses = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    stats_.bypasses = r.u64();
    stats_.validates = r.u64();
    stats_.requestBytes = r.u64();
    stats_.fetchBytes = r.u64();
    stats_.writebackBytes = r.u64();
    stats_.flushWritebackBytes = r.u64();
    victimScanPops_ = r.u64();
    if (cursor_ > trace_.size()) {
        r.fail(Errc::Corrupt,
               "MTC checkpoint cursor lies beyond the end of the trace");
        return;
    }

    const std::uint64_t resident = r.u64();
    if (r.failed())
        return;
    if (resident > capacity_ || resident > r.remaining() / 32) {
        r.fail(Errc::Corrupt,
               "MTC resident count " + std::to_string(resident) +
                   " exceeds the cache capacity");
        return;
    }
    resetResident();

    // A block can be resident at the cursor only under the key issued
    // by its latest reference before the cursor: a finite key at or
    // after the cursor, or a dead key.  Mark those keys.
    const NextUseKeys &table = *nextUse_;
    std::vector<bool> live(table.keySpace());
    for (std::size_t i = 0; i < cursor_; ++i)
        if (table.keys[i] >= cursor_)
            live[table.keys[i]] = true;

    auto corrupt = [&](const std::string &what) {
        r.fail(Errc::Corrupt, "MTC checkpoint " + what);
        resetResident();
    };
    visitState([&](auto state) {
        for (std::uint64_t i = 0; i < resident && !r.failed(); ++i) {
            const Tick nu = r.u64();
            const Addr addr = r.u64();
            const std::uint64_t valid = r.u64();
            const std::uint64_t dirty = r.u64();
            if (r.failed())
                return;
            std::size_t key;
            if (nu == tickInfinity) {
                const auto it = std::lower_bound(
                    table.deadAddrs.begin(), table.deadAddrs.end(), addr);
                if (it == table.deadAddrs.end() || *it != addr)
                    return corrupt("holds a block the trace never "
                                   "references");
                key = trace_.size() +
                      static_cast<std::size_t>(it - table.deadAddrs.begin());
            } else {
                if (nu >= trace_.size())
                    return corrupt("has an invalid next-use key");
                key = static_cast<std::size_t>(nu);
                if (addr != alignDown(trace_[key].addr, config_.blockBytes))
                    return corrupt("keys a block on a tick that "
                                   "references another block");
            }
            if (valid == 0 || ((valid | dirty) & ~fullMask_) != 0 ||
                (dirty & ~valid) != 0)
                return corrupt("has valid/dirty bits outside its block");
            if (resident_.test(key))
                return corrupt("repeats a resident block");
            if (!live[key])
                return corrupt("holds a block under a key that is not "
                               "live at its cursor");
            resident_.set(key);
            state.put(key, valid, dirty);
            residentCount_++;
        }
    });
    if (r.failed())
        return;

    r.leaveSection();
}

MinCacheStats
runMinCache(const Trace &trace, const MinCacheConfig &config)
{
    return MinCacheSim(trace, config).run();
}

MinCacheStats
runMinCache(const Trace &trace, const MinCacheConfig &config,
            NextUseTable nextUse)
{
    if (nextUse && nextUse->refs() == trace.size() &&
        nextUse->blockBytes == wordBytes &&
        config.blockBytes == wordBytes && !config.writeAware) {
        config.validate();
        std::shared_ptr<const MinLevelResults> pass;
        {
            std::lock_guard<std::mutex> lock(nextUse->levelMutex);
            if (!nextUse->levelResults) {
                // Levels double from this query's capacity up to the
                // first that holds every distinct block.
                unsigned levels = 1;
                while ((std::uint64_t{config.blocks()} << (levels - 1)) <
                       nextUse->deadAddrs.size())
                    ++levels;
                MEMBW_SPAN_D("mtc.level_pass",
                             "first=" + formatSize(config.size) +
                                 " levels=" + std::to_string(levels) +
                                 " refs=" + std::to_string(trace.size()));
                MinCacheSim sim(trace, config, nextUse, levels);
                sim.step(trace.size());
                nextUse->levelResults =
                    std::make_shared<const MinLevelResults>(
                        sim.finalizeLevels());
            }
            pass = nextUse->levelResults;
        }
        if (const MinCacheStats *stats = pass->find(config))
            return *stats;
    }
    return MinCacheSim(trace, config, std::move(nextUse)).run();
}

void
publishMinCacheStats(StatsGroup &group, const MinCacheStats &stats)
{
    auto &accesses = group.addCounter(
        "accesses", "references presented to the MTC", "refs");
    accesses.set(stats.accesses);
    group.addCounter("hits", "MIN-cache hits", "refs")
        .set(stats.hits);
    auto &misses =
        group.addCounter("misses", "MIN-cache misses", "refs");
    misses.set(stats.misses);
    group.addCounter("bypasses",
                     "misses serviced without caching (footnote 2)",
                     "refs")
        .set(stats.bypasses);
    group.addCounter("validates",
                     "write-validate allocations without a fetch",
                     "events")
        .set(stats.validates);
    group.addRatio("miss_rate", "misses / accesses", misses,
                   accesses);

    StatsGroup bytes = group.group("bytes");
    auto &request = bytes.addCounter(
        "request", "traffic above the MTC (D_0)", "bytes");
    request.set(stats.requestBytes);
    bytes.addCounter("fetch", "fills and bypass load transfers",
                     "bytes")
        .set(stats.fetchBytes);
    bytes.addCounter("writeback",
                     "dirty evictions and bypassed stores", "bytes")
        .set(stats.writebackBytes);
    bytes.addCounter("flush_writeback", "end-of-run dirty flush",
                     "bytes")
        .set(stats.flushWritebackBytes);
    auto &below = bytes.addCounter(
        "below", "minimal traffic below the cache", "bytes");
    below.set(stats.trafficBelow());
    group.addRatio("traffic_ratio",
                   "minimal R = bytes.below / bytes.request", below,
                   request);
}

MinCacheConfig
canonicalMtc(Bytes size)
{
    MinCacheConfig config;
    config.size = size;
    config.blockBytes = wordBytes;
    config.alloc = AllocPolicy::WriteValidate;
    config.allowBypass = true;
    return config;
}

} // namespace membw
