/**
 * @file
 * Workload decompose: Figure 3's latency-tolerance experiments A-F,
 * each run as its perfect, infinite-bandwidth and full phases, at
 * scale 0.2 for Compress and Swm (SPEC92) and Li and Vortex (SPEC95).
 *
 * The cpu/dram timing model does almost all of this work and the
 * exec and mtc layers do none, so it is the workload on which a
 * sweep-engine change should show no effect.
 *
 * One round runs one benchmark's six experiments (about 1.5 s), the
 * benchmarks in turn, so each is calibrated on its own; a full
 * Figure 3 set is the sum over benchmarks of their per-round medians.
 */

#include <map>

#include "cpu/experiment.hh"
#include "cpu/instr_stream.hh"
#include "perfbench.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace membw;

constexpr double scale = 0.2;

struct Benchmark
{
    const char *name;
    bool spec95;
};
const Benchmark benchmarks[] = {
    {"Compress", false}, {"Swm", false}, {"Li", true}, {"Vortex", true}};

/** Phase span names, indexed like runPhase()'s phase argument. */
const char *const phaseSpans[decompositionPhases] = {
    "bench/cpu.perfect", "bench/cpu.infinite", "bench/cpu.full"};
const char *const phaseLayers[decompositionPhases] = {
    "cpu.perfect", "cpu.infinite", "cpu.full"};

std::string
coreCounters(const CoreResult &r)
{
    const MemSysStats &m = r.mem;
    return joinCounters(
        {r.cycles, r.instructions, r.branches, r.mispredicts,
         r.stalls.fetch, r.stalls.window, r.stalls.data,
         r.stalls.memPort, m.loads, m.stores, m.ifetches, m.iMisses,
         m.l1Misses, m.l2Misses, m.mshrMerges, m.wrongPathLoads,
         m.dramRowHits, m.dramRowMisses, m.dramBusyCycles,
         m.l1l2BusBusy, m.memBusBusy, m.l1l2BusWait, m.memBusWait,
         m.l1l2BusTransfers, m.memBusTransfers});
}

std::string
decompKey(const Benchmark &b, char letter, unsigned phase)
{
    return std::string(b.name) + "/" + letter + "/" + phaseName(phase);
}

struct Round
{
    std::size_t bench = 0; ///< index into benchmarks
    double wall = 0.0;
    double cpu = 0.0;
    double calib = 0.0; ///< reference kernel run just before
    std::map<std::string, double> layerSeconds;
    std::uint64_t instructions = 0, simCycles = 0, rowHits = 0,
                  rowMisses = 0;
    Counters counters;
};

Round
runRound(const InstrStream &stream, std::size_t bench)
{
    Round r;
    r.bench = bench;
    std::vector<std::pair<std::string, CoreResult>> results;
    {
        TraceSpan round("bench/round");
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        for (char letter = 'A'; letter <= 'F'; ++letter) {
            const ExperimentConfig cfg =
                makeExperiment(letter, benchmarks[bench].spec95);
            for (unsigned phase = 0; phase < decompositionPhases; ++phase)
                results.emplace_back(
                    decompKey(benchmarks[bench], letter, phase),
                    timed(phaseSpans[phase],
                          r.layerSeconds[phaseLayers[phase]], [&] {
                              return runPhase(stream, cfg, phase);
                          }));
        }
        r.wall = secondsSince(t0);
        r.cpu = cpuSeconds() - cpu0;
    }
    for (const auto &[key, result] : results) {
        r.counters[key] = coreCounters(result);
        if (key.ends_with("/full")) {
            r.instructions += result.instructions;
            r.simCycles += result.cycles;
            r.rowHits += result.mem.dramRowHits;
            r.rowMisses += result.mem.dramRowMisses;
        }
    }
    return r;
}

/** A full Figure 3 set's value: per benchmark, the median of
 * @p value over that benchmark's rounds; summed over benchmarks. */
template <class Rounds, class F>
double
perSet(const Rounds &rounds, F &&value)
{
    double sum = 0.0;
    for (std::size_t b = 0; b < std::size(benchmarks); ++b) {
        std::vector<double> v;
        for (std::size_t i = 0; i < rounds.size(); ++i)
            if (rounds[i].bench == b)
                v.push_back(value(i));
        sum += median(v);
    }
    return sum;
}

} // namespace

Report
runDecompose(const Options &opt)
{
    Report report;

    // Set-up: workload runs plus InstrStream synthesis, five times,
    // each after a calibration; the median normalised CPU time is
    // setup_s.
    std::vector<InstrStream> streams;
    std::vector<double> setups, gens, builds;
    std::uint64_t refs = 0;
    for (int rep = 0; rep < 5; ++rep) {
        streams.clear();
        refs = 0;
        double gen = 0.0, build = 0.0;
        const double calib = calibrationSeconds();
        const double cpu0 = cpuSeconds();
        for (const Benchmark &bench : benchmarks) {
            WorkloadParams p;
            p.scale = scale;
            p.seed = opt.seed;
            const WorkloadRun run =
                timed("bench/workloads.gen", gen, [&] {
                    return makeWorkload(bench.name)->run(p);
                });
            refs += run.trace.size();
            streams.push_back(
                timed("bench/cpu.stream_build", build, [&] {
                    return InstrStream::fromRun(
                        run, codeFootprintBytes(bench.name), p.seed);
                }));
        }
        setups.push_back(normalised(cpuSeconds() - cpu0, calib));
        gens.push_back(gen);
        builds.push_back(build);
    }

    // Rounds go through the benchmarks in turn, each at least twice.
    const std::size_t nBench = std::size(benchmarks);
    std::vector<Round> plain, traced;
    std::vector<RoundSpans> spans;
    runRounds(
        opt, 2 * nBench,
        [&](std::size_t i) {
            return runRound(streams[i % nBench], i % nBench);
        },
        plain, traced, spans);

    // Checks, untimed: every round reproduces its benchmark's first;
    // the one-call runDecomposition() route agrees with the three
    // timed phase calls for experiment D of every benchmark; the
    // goldens of this seed, where recorded, match every counter.
    Counters ref;
    for (std::size_t b = 0; b < nBench; ++b)
        ref.insert(plain[b].counters.begin(), plain[b].counters.end());
    for (std::size_t i = nBench; i < plain.size(); ++i)
        checkSame(plain[i % nBench].counters, plain[i].counters,
                  "round repeat", report);
    for (std::size_t i = 0; i < traced.size(); ++i)
        checkSame(plain[i % nBench].counters, traced[i].counters,
                  "traced round", report);
    for (std::size_t b = 0; b < nBench; ++b) {
        const DecompositionResult d = runDecomposition(
            streams[b], makeExperiment('D', benchmarks[b].spec95));
        const CoreResult *phases[] = {&d.perfect, &d.infinite, &d.full};
        for (unsigned phase = 0; phase < decompositionPhases; ++phase) {
            const std::string key = decompKey(benchmarks[b], 'D', phase);
            const auto it = ref.find(key);
            report.check(it != ref.end() &&
                             it->second == coreCounters(*phases[phase]),
                         "runDecomposition differs at " + key);
        }
    }
    if (opt.recordGoldens)
        writeGoldens(opt, ref);
    else
        checkGoldens(opt, ref, report);

    auto plainSet = [&](auto field) {
        return perSet(plain,
                      [&](std::size_t i) { return field(plain[i]); });
    };
    report.e2e("norm_cpu_s", plainSet([](const Round &r) {
                   return normalised(r.cpu, r.calib);
               }));
    report.e2e("setup_s", median(setups));
    report.e2e("peak_rss_mb", peakRssMb());
    report.layer("host.cpu_s",
                 plainSet([](const Round &r) { return r.cpu; }));
    report.layer("host.wall_s",
                 plainSet([](const Round &r) { return r.wall; }));
    std::vector<double> calibs;
    for (const Round &r : plain)
        calibs.push_back(r.calib);
    report.layer("host.calib_s", median(calibs));

    // Per layer: self times from spans when traced (traced round i
    // ran benchmark i % nBench), else the outside timers.
    auto layerSet = [&](const std::string &layer) {
        if (!opt.trace)
            return plainSet(
                [&](const Round &r) { return r.layerSeconds.at(layer); });
        return perSet(traced, [&](std::size_t i) {
            const auto it = spans[i].selfSeconds.find(layer);
            return it == spans[i].selfSeconds.end() ? 0.0 : it->second;
        });
    };
    report.layer("workloads.gen_s", median(gens));
    report.layer("workloads.refs", static_cast<double>(refs));
    report.layer("cpu.stream_build_s", median(builds));
    for (const char *layer : phaseLayers)
        report.layer(std::string(layer) + "_s", layerSet(layer));
    std::uint64_t instructions = 0, cycles = 0, rowHits = 0,
                  rowMisses = 0;
    for (std::size_t b = 0; b < nBench; ++b) {
        instructions += plain[b].instructions;
        cycles += plain[b].simCycles;
        rowHits += plain[b].rowHits;
        rowMisses += plain[b].rowMisses;
    }
    report.layer("cpu.instructions", static_cast<double>(instructions));
    report.layer("cpu.sim_cycles", static_cast<double>(cycles));
    report.layer("dram.row_hits", static_cast<double>(rowHits));
    report.layer("dram.row_misses", static_cast<double>(rowMisses));
    if (opt.trace)
        reportTracing(
            report, plainSet([](const Round &r) { return r.wall; }),
            perSet(traced, [&](std::size_t i) { return traced[i].wall; }),
            spans);
    return report;
}

} // namespace perfbench
