#include "exec/time_partition.hh"

#include <algorithm>
#include <string>
#include <thread>

#include "common/log.hh"
#include "exec/ladder_kernel.hh"
#include "exec/ladder_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "obs/trace_span.hh"

namespace membw {

namespace {

/** One (config, set-range) work unit of a partitioned sweep. */
struct PartCell
{
    std::size_t cfg = 0;
    std::uint64_t setLo = 0;
    std::uint64_t setSpan = 0;
};

} // namespace

unsigned
partitionPartsFor(const CacheConfig &cfg, unsigned jobs,
                  unsigned parts, std::size_t configCount)
{
    unsigned p = parts;
    if (p == 0) {
        // Derive: enough parts per config that the *effective*
        // workers have work even when few configs exist (1 config ->
        // jobs parts; >= jobs configs -> cross-config parallelism
        // suffices).  Every part rescans the whole stream, so parts
        // beyond the host's hardware threads are pure replay
        // overhead — the derivation clamps to hardware concurrency.
        // Explicit `parts` is honored untouched (results are
        // byte-identical at ANY count; the equivalence tests sweep
        // it directly).
        const unsigned hw = std::max(
            1u, std::thread::hardware_concurrency());
        const unsigned eff = std::min(std::max(jobs, 1u), hw);
        const std::size_t k = std::max<std::size_t>(configCount, 1);
        p = static_cast<unsigned>((eff + k - 1) / k);
    }
    const std::uint64_t sets = cfg.sets();
    if (p > sets)
        p = static_cast<unsigned>(sets);
    return std::max(p, 1u);
}

std::optional<std::vector<TrafficResult>>
partitionedLadderSweep(const BlockStream &stream,
                       const std::vector<CacheConfig> &configs,
                       const PartitionOptions &opts)
{
    if (!ladderCollapsible(stream, configs))
        fatal("partitionedLadderSweep: configs are outside the "
              "one-pass regime (check ladderCollapsible first)");

    // Lay out the cell list: each config contributes its own
    // (possibly clamped) number of contiguous set ranges, remainder
    // sets spread over the leading parts.
    std::vector<PartCell> cells;
    std::vector<unsigned> partsPerCfg(configs.size(), 1);
    for (std::size_t j = 0; j < configs.size(); ++j) {
        const unsigned p = partitionPartsFor(
            configs[j], opts.jobs, opts.parts, configs.size());
        partsPerCfg[j] = p;
        const std::uint64_t sets = configs[j].sets();
        const std::uint64_t span = sets / p;
        const std::uint64_t rem = sets % p;
        std::uint64_t lo = 0;
        for (unsigned part = 0; part < p; ++part) {
            const std::uint64_t s = span + (part < rem ? 1 : 0);
            cells.push_back(PartCell{j, lo, s});
            lo += s;
        }
    }

    MEMBW_SPAN_D("time_partition.sweep",
                 "configs=" + std::to_string(configs.size()) +
                     " cells=" + std::to_string(cells.size()) +
                     " jobs=" + std::to_string(opts.jobs));

    SweepOptions sweep;
    sweep.jobs = opts.jobs;
    sweep.cancel = opts.cancel;
    SweepResult<CacheStats> run = parallelSweep(
        cells.size(), sweep, [&](std::size_t i) {
            const PartCell &cell = cells[i];
            const CacheConfig &cfg = configs[cell.cfg];
            const bool filtered =
                cell.setSpan != cfg.sets();
            ladder::ConfigSim sim(cfg, cell.setLo, cell.setSpan);
            sim.kernel = ladder::selectKernel(sim.ways, sim.masked,
                                              filtered);
            // One sim per cell: no per-chunk locality to exploit,
            // so replay the whole stream in one call.
            sim.kernel(sim, stream, 0, stream.refs);
            sim.flush();
            return sim.stats;
        });
    if (run.interrupted)
        return std::nullopt;

    // Merge in part order (integer sums — order-independent, kept
    // deterministic anyway) and apply the stream totals.
    std::vector<TrafficResult> out;
    out.reserve(configs.size());
    std::size_t next = 0;
    for (std::size_t j = 0; j < configs.size(); ++j) {
        CacheStats merged;
        for (unsigned part = 0; part < partsPerCfg[j]; ++part)
            ladder::mergeStats(merged, run.cells[next++]);
        out.push_back(ladder::ladderTraffic(stream, merged));
    }
    return out;
}

std::optional<TrafficResult>
partitionedLadderRun(const BlockStream &stream, const CacheConfig &cfg,
                     const PartitionOptions &opts)
{
    std::vector<CacheConfig> configs{cfg};
    auto results = partitionedLadderSweep(stream, configs, opts);
    if (!results)
        return std::nullopt;
    return std::move(results->front());
}

WordRunOutcome
partitionedLadderRunWord(const Trace &trace, const CacheConfig &cfg,
                         const PartitionOptions &opts,
                         TrafficResult &result)
{
    if (!ladderKernelSupported(cfg))
        fatal("partitionedLadderRunWord: config outside the ladder "
              "regime (check ladderKernelSupported() first)");

    const unsigned p = partitionPartsFor(cfg, opts.jobs, opts.parts, 1);
    const std::uint64_t sets = cfg.sets();
    const std::uint64_t span = sets / p;
    const std::uint64_t rem = sets % p;
    std::vector<PartCell> cells;
    std::uint64_t lo = 0;
    for (unsigned part = 0; part < p; ++part) {
        const std::uint64_t s = span + (part < rem ? 1 : 0);
        cells.push_back(PartCell{0, lo, s});
        lo += s;
    }

    MEMBW_SPAN_D("time_partition.word_run",
                 "cells=" + std::to_string(cells.size()) +
                     " jobs=" + std::to_string(opts.jobs));

    // The validating kernels count hits+misses (= owned references)
    // and stores per worker; since set partitioning assigns every
    // reference to exactly one worker, the sums reconstruct the trace
    // totals with no separate scan.
    struct WordCell
    {
        CacheStats stats;
        bool ok = true;
    };
    SweepOptions sweep;
    sweep.jobs = opts.jobs;
    sweep.cancel = opts.cancel;
    SweepResult<WordCell> run = parallelSweep(
        cells.size(), sweep, [&](std::size_t i) {
            const PartCell &cell = cells[i];
            const bool filtered = cell.setSpan != sets;
            ladder::ConfigSim sim(cfg, cell.setLo, cell.setSpan);
            const ladder::WordKernel kernel = ladder::selectWordKernel(
                sim.ways, sim.masked, filtered);
            WordCell out;
            out.ok = kernel(sim, trace.data(), 0, trace.size());
            if (out.ok)
                sim.flush();
            out.stats = sim.stats;
            return out;
        });
    if (run.interrupted)
        return WordRunOutcome::Interrupted;
    for (const WordCell &cell : run.cells)
        if (!cell.ok)
            return WordRunOutcome::NotAllWord;

    CacheStats merged;
    for (const WordCell &cell : run.cells)
        ladder::mergeStats(merged, cell.stats);
    const std::uint64_t refs = merged.hits + merged.misses;
    const std::uint64_t stores = merged.stores;
    result = ladder::ladderTraffic(
        static_cast<std::size_t>(refs), refs - stores, stores,
        static_cast<std::uint64_t>(refs) * wordBytes, merged);
    return WordRunOutcome::Done;
}

TimeSliceEstimate
timeSlicedLadderEstimate(const BlockStream &stream,
                         const CacheConfig &cfg, unsigned slices,
                         std::size_t warmupWindow,
                         const PartitionOptions &opts)
{
    std::vector<CacheConfig> configs{cfg};
    if (!ladderCollapsible(stream, configs))
        fatal("timeSlicedLadderEstimate: config is outside the "
              "one-pass regime");
    slices = std::max(slices, 1u);
    if (slices > stream.refs && stream.refs > 0)
        slices = static_cast<unsigned>(stream.refs);

    TimeSliceEstimate est;
    est.slices = slices;
    est.warmupWindow = warmupWindow;

    const std::size_t len =
        stream.refs ? (stream.refs + slices - 1) / slices : 0;
    struct SliceOut
    {
        CacheStats stats;
        std::size_t warmupRefs = 0;
    };
    std::vector<SliceOut> outs = parallelSweep(
        slices, opts.jobs, [&](std::size_t sl) {
            const std::size_t begin = std::min(sl * len, stream.refs);
            const std::size_t end =
                std::min(begin + len, stream.refs);
            const std::size_t warmBegin =
                begin > warmupWindow ? begin - warmupWindow : 0;

            ladder::ConfigSim sim(cfg);
            sim.kernel = ladder::selectKernel(
                sim.ways, sim.masked, /*filtered=*/false);
            // Reconstruct state from the warm-up window, then zero
            // the counters so only the owned slice is counted.
            sim.kernel(sim, stream, warmBegin, begin);
            sim.stats = CacheStats{};
            sim.kernel(sim, stream, begin, end);
            if (sl + 1 == slices)
                sim.flush(); // final state approximates the real end
            SliceOut out;
            out.stats = sim.stats;
            out.warmupRefs = begin - warmBegin;
            return out;
        });

    CacheStats merged;
    for (const SliceOut &out : outs) {
        ladder::mergeStats(merged, out.stats);
        est.warmupRefs += out.warmupRefs;
    }
    est.result = ladder::ladderTraffic(stream, merged);
    return est;
}

} // namespace membw
