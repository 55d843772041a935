/**
 * @file
 * Forward "next use" side table for Belady MIN simulation.
 *
 * Pass one of the two-pass MTC simulation (Section 5.2): for every
 * trace position i, a victim key for the block referenced there (at
 * a caller-chosen block granularity).  A block referenced again keys
 * on the tick of that next reference; at its last reference it keys
 * on refs() + its rank among the trace's distinct blocks sorted by
 * address.  So the MIN victim order, "never used again beats every
 * finite next use, highest address first among those", is plain
 * integer order over the keys.
 */

#ifndef MEMBW_MTC_NEXT_USE_HH
#define MEMBW_MTC_NEXT_USE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace membw {

struct MinLevelResults;

/** One victim key; see NextUseKeys. */
using VictimKey = std::uint32_t;

/** Victim keys of one trace at one block granularity. */
struct NextUseKeys
{
    /** Block granularity the keys were built for. */
    Bytes blockBytes = 0;

    /**
     * Per position: the tick of the block's next reference (below
     * refs()), or refs() + rank at the block's last reference.
     * References that span two blocks (which QPT-style word traces
     * never do) take the earlier of the two next uses.
     */
    std::vector<VictimKey> keys;

    /** The trace's distinct blocks sorted by address: rank → block. */
    std::vector<Addr> deadAddrs;

    std::size_t refs() const { return keys.size(); }

    /** Number of distinct keys: refs() + deadAddrs.size(). */
    std::size_t keySpace() const { return keys.size() + deadAddrs.size(); }

    /**
     * The MIN level run memoised over these keys (see runMinCache()),
     * or null before the first query that runs it.  Guarded by
     * levelMutex; the keys themselves never change once built.
     */
    mutable std::shared_ptr<const MinLevelResults> levelResults;
    mutable std::mutex levelMutex;

    /** Resident bytes of the two arrays and of the memoised level
     * results (artifact-cache accounting). */
    std::size_t bytes() const;
};

/**
 * Shareable next-use table.  Every MTC cell of a sweep that uses the
 * same (trace, block granularity) pair needs the same table; build it
 * once with makeNextUseTable() and hand the same handle to each
 * MinCacheSim so pass one runs once per sweep instead of once per
 * cell.  At word granularity it also carries the one MIN level run
 * that answers the sweep's canonical MTC cells.
 */
using NextUseTable = std::shared_ptr<const NextUseKeys>;

/**
 * Build the victim keys of @p trace at @p blockBytes granularity.
 * Fatal unless the granularity is a power of two and the key space
 * fits a VictimKey.
 */
NextUseTable makeNextUseTable(const Trace &trace, Bytes blockBytes);

} // namespace membw

#endif // MEMBW_MTC_NEXT_USE_HH
