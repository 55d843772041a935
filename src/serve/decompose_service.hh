/**
 * @file
 * Shared execution-time-decomposition engine for `membw_decompose`
 * and the `membw_served` daemon.
 *
 * A decompose request is three deterministic phase runs (perfect
 * memory, infinite width, full system) over one InstrStream.  The
 * daemon memoizes the stream by (workload, scale, seed) and renders
 * the stats document through the same renderDecomposeStatsJson()
 * the tool uses, so served responses byte-match fresh
 * `membw_decompose --stats-json` output under `--stable-json`.
 */

#ifndef MEMBW_SERVE_DECOMPOSE_SERVICE_HH
#define MEMBW_SERVE_DECOMPOSE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "cpu/experiment.hh"
#include "workloads/workload.hh"

namespace membw {

/** Machine-parameter overrides (the tool's --mshrs/--window/... );
 * 0 and "" keep the experiment's own value. */
struct DecomposeOverrides
{
    unsigned mshrs = 0, window = 0, width = 0;
    unsigned l1l2 = 0, membus = 0;
    bool noPrefetch = false;
    std::string dram; ///< "", fpm, edo, sdram, rdram
};

/** Apply @p ov to @p cfg; fatal() on an unknown --dram kind. */
void applyDecomposeOverrides(ExperimentConfig &cfg,
                             const DecomposeOverrides &ov);

/** A decompose computation: each member a decomposeFields() row. */
struct DecomposeRequest
{
    std::string workload;
    char letter = 'F';
    bool spec95 = false;
    double scale = 0.5;
    std::uint64_t seed = 42;
    DecomposeOverrides overrides;
    bool stableJson = false;
    std::uint64_t watchdogCycles = 1'000'000;
};

/** The machine for @p req with overrides applied. */
ExperimentConfig decomposeConfig(const DecomposeRequest &req);

/** The instruction stream for @p req — the expensive memoizable
 * artifact (workload, scale, seed determine it completely). */
InstrStream buildDecomposeStream(const std::string &workload,
                                 double scale, std::uint64_t seed);

/** Result-cache identity: every decomposeFields() row, canonical. */
std::string decomposeRequestKey(const DecomposeRequest &req);

/**
 * Run the three phases serially with a fresh per-phase watchdog and
 * assemble the decomposition.  @p progress, when set, is installed
 * as the core progress hook (poll cadence 65536 micro-ops); throwing
 * from it aborts the in-flight phase.
 */
DecompositionResult
executeDecompose(const DecomposeRequest &req, const InstrStream &stream,
                 const std::function<void(std::size_t done,
                                          std::size_t total)> &progress =
                     {});

/**
 * The stats-JSON document for a completed decomposition —
 * byte-for-byte what membw_decompose --stats-json writes for the
 * same request (single-experiment clean-completion path).
 */
std::string renderDecomposeStatsJson(const DecomposeRequest &req,
                                     std::size_t streamRefs,
                                     const DecompositionResult &r,
                                     double wallSeconds);

} // namespace membw

#endif // MEMBW_SERVE_DECOMPOSE_SERVICE_HH
