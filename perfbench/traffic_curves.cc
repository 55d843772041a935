/**
 * @file
 * Workload traffic_curves: the Figure 4 grid at scale 0.3 on one
 * worker — Compress, Eqntott and Swm through 4-way caches of 64B-4MB
 * with 4B-128B blocks, plus the MTC-WA and MTC-WV columns.
 *
 * The paper's headline artifact, and the workload where the exec
 * ladder and the MTC do most of the work.  Each round decodes one
 * BlockStream per block size (trace), runs one collapsed ladder
 * sweep per trace (exec), builds the next-use table and runs every
 * MTC cell (mtc), then renders the stats JSON of all results (obs).
 */

#include <map>
#include <memory>
#include <optional>

#include "cache/hierarchy.hh"
#include "exec/collapsed_sweep.hh"
#include "mtc/min_cache.hh"
#include "mtc/next_use.hh"
#include "obs/export.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "perfbench.hh"
#include "trace/block_stream.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace membw;

constexpr double scale = 0.3;
const char *const benchmarks[] = {"Compress", "Eqntott", "Swm"};
const std::vector<Bytes> sizes = {64,      256,     1_KiB,
                                  4_KiB,   16_KiB,  64_KiB,
                                  256_KiB, 1_MiB,   4_MiB};
const std::vector<Bytes> blocks = {4, 8, 16, 32, 64, 128};

/** Figure 4's cache cell, or nothing where the paper leaves it out. */
std::optional<CacheConfig>
cellConfig(Bytes size, Bytes block)
{
    if (size < block || size / block < 4)
        return std::nullopt;
    CacheConfig cfg;
    cfg.size = size;
    cfg.assoc = 4;
    cfg.blockBytes = block;
    return cfg;
}

std::string
trafficCounters(const TrafficResult &r)
{
    const CacheStats &s = r.l1;
    return joinCounters(
        {r.requestBytes, r.pinBytes, s.accesses, s.loads, s.stores,
         s.hits, s.misses, s.loadMisses, s.storeMisses, s.evictions,
         s.writebacks, s.partialFills, s.prefetches, s.streamHits,
         s.streamAllocs, s.requestBytes, s.demandFetchBytes,
         s.partialFillBytes, s.prefetchFetchBytes, s.streamFetchBytes,
         s.writebackBytes, s.writeThroughBytes,
         s.flushWritebackBytes});
}

std::string
mtcCounters(const MinCacheStats &m)
{
    return joinCounters({m.accesses, m.hits, m.misses, m.bypasses,
                         m.validates, m.requestBytes, m.fetchBytes,
                         m.writebackBytes, m.flushWritebackBytes});
}

std::string
cellKey(const char *bench, Bytes size, const std::string &column)
{
    return std::string(bench) + "/" + formatSize(size) + "/" + column;
}

/** Host time one round spent per layer, and the work it did. */
struct Round
{
    double wall = 0.0;
    double cpu = 0.0;
    double calib = 0.0; ///< reference kernel run just before
    std::map<std::string, double> layerSeconds;
    std::uint64_t decodes = 0, ladderPasses = 0, cellsCovered = 0,
                  ladderBytes = 0, mtcCells = 0, mtcAccesses = 0;
    Counters counters;
};

Round
runRound(const std::vector<Trace> &traces)
{
    Round r;
    std::map<std::string, double> &ls = r.layerSeconds;
    std::vector<std::pair<std::string, TrafficResult>> cacheCells;
    std::vector<std::pair<std::string, MinCacheStats>> mtcCells;

    std::string json;
    {
        TraceSpan round("bench/round");
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        for (std::size_t b = 0; b < traces.size(); ++b) {
            const Trace &trace = traces[b];
            const char *bench = benchmarks[b];

            std::map<Bytes, std::shared_ptr<const BlockStream>> streams;
            for (Bytes block : blocks) {
                streams[block] = timed(
                    "bench/trace.decode", ls["trace.decode"], [&] {
                        return std::make_shared<const BlockStream>(
                            buildBlockStream(trace, block));
                    });
                ++r.decodes;
            }

            std::vector<CacheConfig> cfgs;
            std::vector<std::string> keys;
            for (Bytes size : sizes)
                for (Bytes block : blocks)
                    if (const auto cfg = cellConfig(size, block)) {
                        cfgs.push_back(*cfg);
                        keys.push_back(
                            cellKey(bench, size, formatSize(block)));
                    }
            CollapseOptions copt;
            copt.jobs = 1;
            copt.streamProvider = [&](Bytes block) {
                return streams.at(block);
            };
            // Cells the planner leaves uncovered (none at the seed
            // commit) fall back to direct simulation inside the same
            // span, as fig4_traffic_curves does.
            timed("bench/exec.ladder", ls["exec.ladder"], [&] {
                const CollapsedSweep collapsed(trace, cfgs, copt);
                for (std::size_t i = 0; i < cfgs.size(); ++i)
                    cacheCells.emplace_back(
                        keys[i], collapsed.has(i)
                                     ? collapsed.result(i)
                                     : runTrace(trace, cfgs[i]));
                r.ladderPasses += collapsed.ladderPasses();
                r.cellsCovered += collapsed.covered();
                r.ladderBytes += collapsed.ladderPasses() * trace.size() *
                                 streamBytesPerRef;
                return 0;
            });

            const NextUseTable nextUse =
                timed("bench/mtc.next_use", ls["mtc.next_use"],
                      [&] { return makeNextUseTable(trace, wordBytes); });
            for (Bytes size : sizes) {
                MinCacheConfig wa = canonicalMtc(size);
                wa.alloc = AllocPolicy::WriteAllocate;
                const MinCacheStats waStats =
                    timed("bench/mtc.wa", ls["mtc.wa"], [&] {
                        return runMinCache(trace, wa, nextUse);
                    });
                const MinCacheStats wvStats =
                    timed("bench/mtc.wv", ls["mtc.wv"], [&] {
                        return runMinCache(trace, canonicalMtc(size),
                                           nextUse);
                    });
                mtcCells.emplace_back(cellKey(bench, size, "mtc-wa"),
                                      waStats);
                mtcCells.emplace_back(cellKey(bench, size, "mtc-wv"),
                                      wvStats);
                r.mtcCells += 2;
                r.mtcAccesses += waStats.accesses + wvStats.accesses;
            }
        }

        json = timed("bench/obs.render", ls["obs.render"], [&] {
                StatsRegistry registry;
                for (const auto &[key, result] : cacheCells) {
                    StatsGroup g = registry.group("fig4." + key);
                    publishStats(g, result);
                }
                for (const auto &[key, stats] : mtcCells) {
                    StatsGroup g = registry.group("fig4." + key);
                    publishMinCacheStats(g, stats);
                }
                return exportJson(registry);
            });
        r.wall = secondsSince(t0);
        r.cpu = cpuSeconds() - cpu0;
    }

    for (const auto &[key, result] : cacheCells)
        r.counters[key] = trafficCounters(result);
    for (const auto &[key, stats] : mtcCells)
        r.counters[key] = mtcCounters(stats);
    r.counters["render"] = std::to_string(json.size()) + " " +
                           std::to_string(fnv1a64(json));
    return r;
}

} // namespace

Report
runTrafficCurves(const Options &opt)
{
    Report report;

    // Set-up: trace synthesis, five times, each after a calibration;
    // the median normalised CPU time is setup_s and the median wall
    // time workloads.gen_s.
    std::vector<Trace> traces;
    std::vector<double> setups, gens;
    for (int rep = 0; rep < 5; ++rep) {
        traces.clear();
        const double calib = calibrationSeconds();
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        for (const char *bench : benchmarks) {
            WorkloadParams p;
            p.scale = scale;
            p.seed = opt.seed;
            traces.push_back(makeWorkload(bench)->trace(p));
        }
        setups.push_back(normalised(cpuSeconds() - cpu0, calib));
        gens.push_back(secondsSince(t0));
    }
    std::uint64_t refs = 0;
    for (const Trace &t : traces)
        refs += t.size();

    // Timed rounds fill the run; a traced run alternates untraced
    // and traced rounds so both see the same host conditions.
    std::vector<Round> plain, traced;
    std::vector<RoundSpans> spans;
    runRounds(
        opt, 3, [&](std::size_t) { return runRound(traces); }, plain,
        traced, spans);

    // Checks, untimed: every round reproduces the first; one ladder
    // cell per block size matches the direct runTrace path; the
    // goldens of this seed, where recorded, match every counter.
    const Counters &ref = plain.front().counters;
    for (std::size_t i = 1; i < plain.size(); ++i)
        checkSame(ref, plain[i].counters, "round repeat", report);
    for (const Round &r : traced)
        checkSame(ref, r.counters, "traced round", report);
    for (std::size_t b = 0; b < traces.size(); ++b)
        for (Bytes block : blocks) {
            const std::string key =
                cellKey(benchmarks[b], 16_KiB, formatSize(block));
            const auto it = ref.find(key);
            report.check(it != ref.end() &&
                             it->second ==
                                 trafficCounters(runTrace(
                                     traces[b],
                                     *cellConfig(16_KiB, block))),
                         "direct runTrace differs at " + key);
        }
    if (opt.recordGoldens)
        writeGoldens(opt, ref);
    else
        checkGoldens(opt, ref, report);

    // End to end.
    std::vector<double> walls, cpus, calibs, norms;
    for (const Round &r : plain) {
        walls.push_back(r.wall);
        cpus.push_back(r.cpu);
        calibs.push_back(r.calib);
        norms.push_back(normalised(r.cpu, r.calib));
    }
    report.e2e("norm_cpu_s", median(norms));
    report.e2e("setup_s", median(setups));
    report.e2e("peak_rss_mb", peakRssMb());
    report.layer("host.cpu_s", median(cpus));
    report.layer("host.wall_s", median(walls));
    report.layer("host.calib_s", median(calibs));

    // Per layer: self times from spans when traced, else the
    // outside timers; work counts from the first round.
    const Round &first = plain.front();
    auto layerMedian = [&](const std::string &layer) {
        if (opt.trace)
            return spanMedian(spans, layer);
        std::vector<double> v;
        for (const Round &r : plain)
            v.push_back(r.layerSeconds.at(layer));
        return median(v);
    };
    report.layer("workloads.gen_s", median(gens));
    report.layer("workloads.refs", static_cast<double>(refs));
    report.layer("trace.decode_s", layerMedian("trace.decode"));
    report.layer("trace.decodes", static_cast<double>(first.decodes));
    report.layer("exec.ladder_s", layerMedian("exec.ladder"));
    report.layer("exec.ladder_passes",
                 static_cast<double>(first.ladderPasses));
    report.layer("exec.cells_covered",
                 static_cast<double>(first.cellsCovered));
    report.layer("exec.ladder_bytes",
                 static_cast<double>(first.ladderBytes));
    report.layer("mtc.next_use_s", layerMedian("mtc.next_use"));
    report.layer("mtc.wa_s", layerMedian("mtc.wa"));
    report.layer("mtc.wv_s", layerMedian("mtc.wv"));
    report.layer("mtc.cells", static_cast<double>(first.mtcCells));
    report.layer("mtc.accesses", static_cast<double>(first.mtcAccesses));
    report.layer("obs.render_s", layerMedian("obs.render"));
    if (opt.trace) {
        std::vector<double> tracedWalls;
        for (const Round &r : traced)
            tracedWalls.push_back(r.wall);
        reportTracing(report, median(walls), median(tracedWalls), spans);
    }
    return report;
}

} // namespace perfbench
