/**
 * @file
 * Sweep planner: route each cell of a multi-configuration sweep to
 * the cheapest exact engine.
 *
 * Given the full config list of a sweep, CollapsedSweep groups the
 * cells by block size and precomputes every group that an exact
 * one-pass engine covers:
 *
 *  - fully-associative LRU groups over load-only traces collapse
 *    into one Mattson stack-distance pass (exec/fa_sweep.*);
 *  - set-associative LRU groups collapse into one chunked
 *    BlockStream pass through the ladder kernel
 *    (exec/ladder_sweep.*), whatever their mix of sizes,
 *    associativities, and write policies.
 *
 * Everything else — Random/FIFO replacement, sectoring, stream
 * buffers, prefetch, multi-level hierarchies, MTC cells — is left
 * uncovered and the caller's per-cell fallback simulates it
 * directly, so results stay exact everywhere.
 *
 * Intended use in a parallelSweep() caller: construct the planner
 * *before* the per-cell fan-out (group passes themselves fan across
 * @p jobs workers), then each cell either consumes its precomputed
 * TrafficResult or simulates directly.  Precomputed results are
 * index-addressed, so cell accounting (ordering, --sigterm-after
 * truncation, stats publication) is unchanged.
 */

#ifndef MEMBW_EXEC_COLLAPSED_SWEEP_HH
#define MEMBW_EXEC_COLLAPSED_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "trace/trace.hh"

namespace membw {

struct MappedTrace;
struct BlockStream;
class StackDistanceProfile;
class ThreadPool;

/** Which engine actually produced a sweep cell's result. */
enum class CellRoute : std::uint8_t
{
    Direct = 0,  ///< per-cell fallback simulation
    Ladder = 1,  ///< collapsed set-associative ladder pass
    Mattson = 2, ///< collapsed FA stack-distance pass
};

/** Stable lowercase name for reports and trace span details. */
const char *cellRouteName(CellRoute route);

/** Knobs for the planner (the 3-argument ctor fills defaults).
 * Every member has a default initializer, so a partial aggregate
 * such as CollapseOptions{jobs} builds without
 * -Wmissing-field-initializers. */
struct CollapseOptions
{
    /** Worker threads shared by group fan-out and set partitioning. */
    unsigned jobs = 1;

    /**
     * Disable intra-trace set partitioning (--no-partition): group
     * passes still fan across jobs, but each ladder pass runs the
     * serial kernel.  Results are byte-identical either way — this
     * is the escape hatch the partition_equivalence test diffs.
     */
    bool noPartition = false;

    /**
     * Zero-copy source: when set, ladder BlockStreams borrow this
     * validated mapping (trace_mmap.hh) instead of decoding
     * @p trace.  The two must describe the same references —
     * @p trace is still used for Mattson group passes.
     */
    const MappedTrace *mapped = nullptr;

    /**
     * Externally-owned worker pool for the group fan-out (see
     * SweepOptions::pool — the same serialization contract applies).
     * The set-partitioned kernel path still manages its own workers.
     */
    ThreadPool *pool = nullptr;

    /**
     * Artifact-cache hook: supply the decoded BlockStream for a block
     * size instead of decoding it fresh (the daemon memoizes streams
     * by trace CRC + block size).  Must return a stream equivalent to
     * buildBlockStream(trace, blockBytes).  Overrides @p mapped for
     * ladder passes when set.
     */
    std::function<std::shared_ptr<const BlockStream>(Bytes blockBytes)>
        streamProvider{};

    /**
     * Artifact-cache hook: supply the Mattson stack-distance profile
     * for a block size, equivalent to
     * StackDistanceProfile(trace, blockBytes).  When unset each FA
     * group pass builds its own profile.
     */
    std::function<
        std::shared_ptr<const StackDistanceProfile>(Bytes blockBytes)>
        profileProvider{};
};

class CollapsedSweep
{
  public:
    /** An empty planner covers nothing (every cell falls back). */
    CollapsedSweep() = default;

    /**
     * Plan and run every collapsible group of @p configs over
     * @p trace, fanning the group passes across @p jobs workers.
     * Results are exact and jobs-independent.
     */
    CollapsedSweep(const Trace &trace,
                   const std::vector<CacheConfig> &configs,
                   unsigned jobs);

    /**
     * As above with full options.  When partitioning is allowed
     * (jobs > 1, !noPartition) and there are fewer groups than
     * workers, ladder groups run the exact set-partitioned kernel
     * (exec/time_partition.hh) so a single big configuration still
     * uses every worker; results stay byte-identical to the serial
     * plan at any setting.
     */
    CollapsedSweep(const Trace &trace,
                   const std::vector<CacheConfig> &configs,
                   const CollapseOptions &options);

    /** True iff config @p i was covered by a one-pass group. */
    bool
    has(std::size_t i) const
    {
        return i < results_.size() && results_[i].has_value();
    }

    /** The precomputed result for a covered config. */
    const TrafficResult &
    result(std::size_t i) const
    {
        return *results_[i];
    }

    /**
     * The engine that covered config @p i — Direct for cells the
     * caller must simulate itself (also for indices never planned,
     * so it is safe on a default-constructed planner).
     */
    CellRoute
    route(std::size_t i) const
    {
        return i < routes_.size() ? routes_[i] : CellRoute::Direct;
    }

    /** Configs covered by any one-pass engine. */
    std::size_t covered() const { return covered_; }

    /** Mattson stack-distance group passes run. */
    std::size_t mattsonPasses() const { return mattsonPasses_; }

    /** Ladder-kernel group passes run. */
    std::size_t ladderPasses() const { return ladderPasses_; }

    /** Ladder passes that ran the set-partitioned parallel kernel
     * (a subset of ladderPasses()). */
    std::size_t partitionedPasses() const { return partitionedPasses_; }

  private:
    std::vector<std::optional<TrafficResult>> results_;
    std::vector<CellRoute> routes_;
    std::size_t covered_ = 0;
    std::size_t mattsonPasses_ = 0;
    std::size_t ladderPasses_ = 0;
    std::size_t partitionedPasses_ = 0;
};

} // namespace membw

#endif // MEMBW_EXEC_COLLAPSED_SWEEP_HH
