/**
 * @file
 * Internal ladder-kernel machinery shared by ladder_sweep.cc and
 * time_partition.cc.  Not installed API — tools and tests go through
 * ladder_sweep.hh / time_partition.hh.
 *
 * Each replica keeps its sets as move-to-front rows (ConfigSim): the
 * ways of a set are stored in recency order, so LRU needs no stamps
 * and a plain way packs into one word.  The kernel body is a function
 * template monomorphized on three axes:
 *
 *  - W      — the way count baked in at compile time for the hot
 *             geometries (1, 2, 4, 8; 0 keeps it a runtime value),
 *  - Masked — plain vs write-validate (per-word valid/dirty masks),
 *  - Filtered — whether the kernel skips references outside its
 *             owned set range (set-partitioned workers),
 *
 * plus the reference source (decoded BlockStream or fused word
 * decode).  selectKernel() maps a (ways, masked, filtered) point to
 * one stamped-out instantiation, chosen once per configuration so the
 * per-chunk call is a single indirect jump to straight-line code.
 * Every instantiation is counter-identical to Cache::access(), which
 * is what lets the equivalence tests demand byte-equal results across
 * way specializations, sources and partition counts.
 */

#ifndef MEMBW_EXEC_LADDER_KERNEL_HH
#define MEMBW_EXEC_LADDER_KERNEL_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "trace/block_stream.hh"

namespace membw {
namespace ladder {

/** Empty way sentinel: block numbers are addr >> log2(block) with
 * block >= 4B, so bits 62-63 are clear; ~0 is never an encoded way,
 * and ~0 >> 1 never equals a block number, so probes skip it. */
constexpr std::uint64_t tagInvalid = ~std::uint64_t{0};

struct ConfigSim;

/** One monomorphized chunk kernel (selected by selectKernel). */
using ChunkKernel = void (*)(ConfigSim &, const BlockStream &,
                             std::size_t, std::size_t);

/** Fused-decode variant: replays word-sized aligned references
 * straight from the MemRef array, skipping the BlockStream
 * materialization entirely (selected by selectWordKernel).  Returns
 * false the moment a reference violates the all-word invariant —
 * state and counters are then partial garbage and the caller must
 * restart on the decoded-stream path. */
using WordKernel = bool (*)(ConfigSim &, const MemRef *, std::size_t,
                            std::size_t);

/**
 * Flat-array replica of one Cache, specialized for the ladder
 * regime (LRU, no sector/stream/prefetch).  Each set is one row whose
 * ways are kept in recency order, most recently used first, so the
 * LRU state is the order itself and no per-way stamp is stored:
 *
 *  - a hit at way w rotates row[0..w], moving the block to the front;
 *  - a miss evicts row[ways-1] (the LRU block) and shifts the rest
 *    down one, placing the new block at the front;
 *  - invalid ways are always at the tail, so a set with a free way
 *    fills it with no eviction counted, as Cache::access() does.
 *
 * This is exact: Cache::access() stamps every touch with a unique
 * sequence number, so its lowest-lastUse victim is precisely the
 * block at the tail of this order, and every counter matches bit for
 * bit.  Way indices differ from the direct simulator's, but no
 * counter depends on them.
 *
 * A plain (not write-validate) way is one packed word,
 * (blockNum << 1) | dirty: the dirty mask only ever matters as a
 * boolean there (write-back bytes are always blockBytes).  The shift
 * is lossless — block numbers are addr >> log2(block) with block
 * >= 4B, so bit 63 is always clear — and an encoded way can never
 * equal tagInvalid.  A 4-way row is 32 bytes, so from the 64B-aligned
 * base no row straddles a host cache line.  A masked (write-validate) row carries three
 * planes, [tags | dirty | valid], whose per-way word masks move with
 * their tags; its tag words use the same encoding with the dirty bit
 * clear.  The planes of an invalid way are never read.
 *
 * A partitioned replica owns sets [setLo, setLo + setSpan) only: its
 * rows cover just that span, and every reference to one set funnels
 * through one replica in trace order, which is the only order LRU
 * decisions depend on.
 */
struct ConfigSim
{
    unsigned ways = 1;
    unsigned stride = 1; ///< u64s per set row (ways, 3 * ways masked)
    std::uint64_t setMask = 0;
    std::uint64_t setLo = 0;   ///< first owned set
    std::uint64_t setSpan = 0; ///< owned set count
    Bytes blockBytes = 0;
    bool writeBack = true;
    AllocPolicy alloc = AllocPolicy::WriteAllocate;
    bool masked = false; ///< write-validate: per-word valid/dirty
    std::uint64_t fullMask = 0;
    ChunkKernel kernel = nullptr;

    std::vector<std::uint64_t> rowStore; ///< backing (over-allocated)
    std::uint64_t *rows = nullptr;       ///< 64B-aligned row base
    CacheStats stats;

    /** Full replica (all sets) unless a [setLo, setLo+setSpan) range
     * is given; @p span == 0 means "every set". */
    explicit ConfigSim(const CacheConfig &config, std::uint64_t lo = 0,
                       std::uint64_t span = 0)
        : ways(config.ways()),
          setMask(config.sets() - 1),
          setLo(lo),
          setSpan(span ? span : config.sets()),
          blockBytes(config.blockBytes),
          writeBack(config.write == WritePolicy::WriteBack),
          alloc(config.alloc),
          masked(config.alloc == AllocPolicy::WriteValidate)
    {
        const unsigned wordsPerBlock =
            static_cast<unsigned>(blockBytes / wordBytes);
        fullMask = wordsPerBlock == 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << wordsPerBlock) - 1;
        stride = masked ? 3 * ways : ways;
        // Every word starts as tagInvalid: the tag plane is then
        // empty, and the masked planes of invalid ways are don't-care.
        rowStore.assign(static_cast<std::size_t>(setSpan) * stride + 8,
                        tagInvalid);
        rows = rowStore.data();
        while (reinterpret_cast<std::uintptr_t>(rows) % 64 != 0)
            ++rows;
    }

    /** End-of-run flush over the owned lines, identical to
     * Cache::flush() (a partitioned flush sums to the full one —
     * every counter here is additive). */
    void
    flush()
    {
        for (std::uint64_t s = 0; s < setSpan; ++s) {
            std::uint64_t *const row = rows + s * stride;
            // Valid ways form a prefix of the row.
            for (unsigned w = 0; w < ways && row[w] != tagInvalid;
                 ++w) {
                stats.evictions++;
                const std::uint64_t dirty =
                    masked ? row[ways + w] : row[w] & 1;
                if (dirty) {
                    stats.writebacks++;
                    stats.flushWritebackBytes +=
                        masked ? static_cast<Bytes>(
                                     std::popcount(dirty)) *
                                     wordBytes
                               : blockBytes;
                }
                row[w] = tagInvalid;
            }
        }
    }
};

/**
 * Reference sources the chunk kernel is monomorphized over.  Both
 * yield the exact per-reference tuple (blockNum, isStore, size,
 * wordMask) the accounting consumes, so every kernel instantiation
 * stays counter-identical regardless of where the bits come from.
 */

/** Decoded SoA arrays of a materialized BlockStream. */
struct StreamSource
{
    static constexpr bool validating = false;

    const std::uint64_t *blockNum;
    const std::uint8_t *isStore;
    const std::uint16_t *size;
    const std::uint64_t *wordMask;

    explicit StreamSource(const BlockStream &s)
        : blockNum(s.blockNum),
          isStore(s.isStore),
          size(s.size),
          wordMask(s.wordMask)
    {
    }

    std::uint64_t bn(std::size_t i, unsigned) const
    {
        return blockNum[i];
    }
    bool store(std::size_t i) const { return isStore[i] != 0; }
    Bytes bytes(std::size_t i) const { return size[i]; }
    std::uint64_t mask(std::size_t i, Bytes) const
    {
        return wordMask[i];
    }
    bool word(std::size_t) const { return true; }
};

/**
 * Fused decode straight from the MemRef array.  Valid only when
 * every reference is one aligned word (the QPT recording invariant):
 * such a reference never spans a block, its word mask is a single
 * bit, and its size is wordBytes — all derivable from the address in
 * a couple of ALU ops, cheaper than re-reading them from a decoded
 * side array.  The invariant is not pre-scanned; validating makes
 * the kernel check word() per reference (two predictable compares)
 * and abort the chunk on the first violation, so an eligible trace
 * never pays a separate eligibility pass.
 */
struct WordSource
{
    static constexpr bool validating = true;

    const MemRef *refs;

    explicit WordSource(const MemRef *r) : refs(r) {}

    std::uint64_t bn(std::size_t i, unsigned blockShift) const
    {
        return refs[i].addr >> blockShift;
    }
    bool store(std::size_t i) const { return refs[i].isStore(); }
    Bytes bytes(std::size_t) const { return wordBytes; }
    std::uint64_t mask(std::size_t i, Bytes blockMask) const
    {
        return std::uint64_t{1}
               << ((refs[i].addr & blockMask) / wordBytes);
    }
    bool word(std::size_t i) const
    {
        return refs[i].size == wordBytes &&
               refs[i].addr % wordBytes == 0;
    }
};

/** Move plane[pos] to the front, shifting plane[0..pos) down one. */
inline void
rotateToFront(std::uint64_t *plane, unsigned pos)
{
    const std::uint64_t moved = plane[pos];
    for (unsigned k = pos; k > 0; --k)
        plane[k] = plane[k - 1];
    plane[0] = moved;
}

/**
 * Replay source references [begin, end).  Masked selects the
 * write-validate variant (per-word valid/dirty, partial fills;
 * validate() guarantees WV is write-back); the plain variant keeps
 * only a dirty bit per way.  Filtered skips references whose set is
 * outside [setLo, setLo + setSpan).  W bakes the way count in at
 * compile time (0 reads it from the sim), which lets the probe and
 * the row rotations unroll.
 *
 * The probe scans from the MRU way, so the common case — a hit on
 * the block the set touched last — costs one compare and, for a
 * load, no row write at all.  Branch-free variants (conditional-move
 * probe and rotation, rewriting the row on every reference) measured
 * slower: the unconditional row stores chain each reference to the
 * previous one through store-to-load forwarding.
 *
 * The counters live in locals for the duration of the chunk:
 * CacheStats is too wide to register-allocate, and the compiler
 * cannot prove the rows don't alias the sim object.
 *
 * Returns false (for validating sources) on the first reference that
 * breaks the all-word invariant; the sim state is then partial and
 * must be discarded.  A validating chunk additionally counts stores
 * into stats.stores so the caller can reconstruct the trace totals
 * (loads/stores/requestBytes) without a separate scan: every owned
 * reference lands in hits+misses, so loads = hits + misses - stores
 * and requestBytes = wordBytes * (hits + misses).
 */
template <unsigned W, bool Masked, bool Filtered, class Source>
inline bool
runChunkBody(ConfigSim &c, Source src, std::size_t begin,
             std::size_t end)
{
    const unsigned n = W ? W : c.ways;
    const unsigned stride = Masked ? 3 * n : n;
    std::uint64_t *const rows = c.rows;
    const std::uint64_t setMask = c.setMask;
    const std::uint64_t setLo = c.setLo;
    const std::uint64_t setSpan = c.setSpan;
    const Bytes blockBytes = c.blockBytes;
    const unsigned blockShift =
        static_cast<unsigned>(std::countr_zero(blockBytes));
    const Bytes blockMask = blockBytes - 1;
    const bool writeBack = c.writeBack;
    const bool writeAllocate = c.alloc == AllocPolicy::WriteAllocate;
    CacheStats st = c.stats;

    // Per-chunk deltas, folded into st on exit.  loadMisses and
    // demandFetchBytes are derived at fold time: every load miss
    // fetches a block, stores fetch only on (unmasked) write-allocate,
    // and an unmasked write-back always moves a whole block.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t maskedWritebackBytes = 0;
    std::uint64_t writeThroughBytes = 0;
    const auto fold = [&] {
        const std::uint64_t loadMisses = misses - storeMisses;
        st.hits += hits;
        st.misses += misses;
        st.loadMisses += loadMisses;
        st.storeMisses += storeMisses;
        st.stores += stores;
        st.evictions += evictions;
        st.writebacks += writebacks;
        st.writebackBytes +=
            Masked ? maskedWritebackBytes : blockBytes * writebacks;
        st.writeThroughBytes += writeThroughBytes;
        st.demandFetchBytes +=
            blockBytes *
            (loadMisses +
             ((!Masked && writeAllocate) ? storeMisses : 0));
        c.stats = st;
    };
    // Count the eviction of the tail way ahead of a fill (nothing to
    // count when it is invalid: invalid ways sit at the tail).
    const auto evictTail = [&](const std::uint64_t *row) {
        if (row[n - 1] == tagInvalid)
            return;
        evictions++;
        const std::uint64_t dirty =
            Masked ? row[2 * n - 1] : row[n - 1] & 1;
        if (dirty) {
            writebacks++;
            if constexpr (Masked)
                maskedWritebackBytes +=
                    static_cast<Bytes>(std::popcount(dirty)) * wordBytes;
        }
    };

    for (std::size_t i = begin; i < end; ++i) {
        if constexpr (Source::validating) {
            // Checked before the set filter: a non-word reference may
            // span two blocks (two sets), so no single worker could
            // claim it — the whole partitioned run must restart on
            // the decoded-stream path.
            if (!src.word(i)) {
                fold();
                return false;
            }
        }
        const std::uint64_t bn = src.bn(i, blockShift);
        const std::uint64_t set = bn & setMask;
        if (Filtered && set - setLo >= setSpan)
            continue;
        std::uint64_t *const row =
            rows + static_cast<std::size_t>(
                       Filtered ? set - setLo : set) *
                       stride;
        const bool store = src.store(i);
        if constexpr (Source::validating)
            stores += store;
        if constexpr (!Masked) {
            // Most references hit the MRU way: one compare, and for a
            // load no row write.
            if ((row[0] >> 1) != bn) {
                unsigned w = 1;
                while (w < n && (row[w] >> 1) != bn)
                    ++w;
                if (w == n) {
                    misses++;
                    if (store) {
                        storeMisses++;
                        if (!writeBack || !writeAllocate)
                            writeThroughBytes += src.bytes(i);
                        if (!writeAllocate)
                            continue;
                    }
                    evictTail(row);
                    rotateToFront(row, n - 1);
                    row[0] = (bn << 1) |
                             static_cast<std::uint64_t>(store && writeBack);
                    continue;
                }
                rotateToFront(row, w);
            }
            hits++;
            if (store) {
                if (writeBack)
                    row[0] |= 1;
                else
                    writeThroughBytes += src.bytes(i);
            }
            continue;
        }

        // Masked: a hit moves its way's three planes to the front; a
        // miss moves the tail way there and replaces it.
        unsigned w = 0;
        while (w < n && (row[w] >> 1) != bn)
            ++w;
        const bool hit = w < n;
        const std::uint64_t words = src.mask(i, blockMask);
        std::uint64_t dirty = 0;
        std::uint64_t valid = 0;
        if (hit) {
            hits++;
            dirty = row[n + w];
            valid = row[2 * n + w];
        } else {
            misses++;
            evictTail(row);
            w = n - 1;
            // A load miss fetches the whole block; a store miss
            // allocates without fetching (write-validate).
            valid = store ? 0 : c.fullMask;
        }
        if (store) {
            // The written words become valid and dirty.
            storeMisses += !hit;
            valid |= words;
            dirty |= words;
        } else if (const std::uint64_t missing = words & ~valid) {
            st.partialFills++;
            st.partialFillBytes +=
                static_cast<Bytes>(std::popcount(missing)) * wordBytes;
            valid |= missing;
        }
        for (unsigned p = 0; p < 3; ++p)
            rotateToFront(row + p * n, w);
        row[0] = bn << 1;
        row[n] = dirty;
        row[2 * n] = valid;
    }
    fold();
    return true;
}

template <unsigned W, bool Masked, bool Filtered>
void
runChunk(ConfigSim &c, const BlockStream &s, std::size_t begin,
         std::size_t end)
{
    runChunkBody<W, Masked, Filtered>(c, StreamSource(s), begin, end);
}

template <unsigned W, bool Masked, bool Filtered>
bool
runWordChunk(ConfigSim &c, const MemRef *refs, std::size_t begin,
             std::size_t end)
{
    return runChunkBody<W, Masked, Filtered>(c, WordSource(refs),
                                             begin, end);
}

/**
 * The monomorphized kernel for one configuration point.  Way counts
 * without a baked specialization (3, 5, 6, 7, 9..16) get the
 * runtime-way variant.
 */
ChunkKernel selectKernel(unsigned ways, bool masked, bool filtered);

/** selectKernel's fused-decode twin: the same dispatch table over
 * runWordChunk instantiations (see WordSource for the validity
 * precondition). */
WordKernel selectWordKernel(unsigned ways, bool masked,
                            bool filtered);

/** Sum every additive counter of @p from into @p into.  The
 * stream-derived totals (accesses/loads/stores/requestBytes) are
 * additive too, but partition callers overwrite them from the
 * stream, so adding them here is still correct for partial chunks. */
void mergeStats(CacheStats &into, const CacheStats &from);

/** Package final @p stats (with stream totals applied) as the
 * single-level TrafficResult the direct simulator would produce. */
TrafficResult ladderTraffic(const BlockStream &stream,
                            CacheStats stats);

/** Same, with the stream-derived totals passed directly (the fused
 * word path has no BlockStream to read them from). */
TrafficResult ladderTraffic(std::size_t refs, std::uint64_t loads,
                            std::uint64_t stores,
                            std::uint64_t requestBytes,
                            CacheStats stats);

} // namespace ladder
} // namespace membw

#endif // MEMBW_EXEC_LADDER_KERNEL_HH
