/**
 * @file
 * Shared plumbing of the end-to-end benchmark: options, the metric
 * report, timing and span helpers, golden-counter files and host
 * measurements.  Each workload (traffic_curves.cc, decompose.cc,
 * served_mix.cc) calls the library's public functions directly and
 * times every call from outside.
 */

#ifndef MEMBW_PERFBENCH_PERFBENCH_HH
#define MEMBW_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Call @p f under the benchmark span @p span (a string literal named
 * spanPrefix + layer) and add its host time to @p acc.
 */
template <class F>
auto
timed(const char *span, double &acc, F &&f)
{
    membw::TraceSpan s(span);
    const auto t0 = Clock::now();
    auto result = f();
    acc += secondsSince(t0);
    return result;
}

/** BlockStream column bytes per reference: blockNum, isStore, size
 * and wordMask (8 + 1 + 2 + 8).  A ladder pass streams them once, so
 * exec.ladder_bytes is passes x references x this. */
constexpr std::uint64_t streamBytesPerRef = 19;

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenDir;     ///< where <workload>_<seed>.txt live
    bool recordGoldens = false; ///< write the golden file, do not check
    std::string daemon;        ///< membw_served executable
    std::string runDir;        ///< scratch dir for sockets
};

/**
 * What a workload measured, by metric name (units live in main.cc's
 * metric tables).  Every workload sets every end-to-end metric; a
 * per-layer metric a workload never sets is a layer it does not
 * call and reads 0.
 */
struct Report
{
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes; ///< failure descriptions
    std::vector<std::string> info;  ///< sample counts and findings

    void e2e(const std::string &name, double v) { endToEnd[name] = v; }
    void layer(const std::string &name, double v) { perLayer[name] = v; }
    /** Count one checked result; @p ok false records a failure. */
    void check(bool ok, const std::string &what);
};

/** Linear-interpolated percentile (p in [0,1]); 0 when empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** VmHWM of @p pid (0 = this process) in MiB, from /proc. */
double peakRssMb(int pid = 0);

/**
 * CPU seconds (user + system, all threads) used so far by @p pid
 * (0 = this process).  Unlike wall time it excludes time the host
 * withheld the CPU, though contention from other tenants still
 * slows it (see normalised()).
 */
double cpuSeconds(int pid = 0);

/**
 * Measured host parallelism: wall time of one fixed CPU-bound loop
 * on one thread over the wall time of four threads each running the
 * same loop, times four.  1.0 means four threads get one core's
 * throughput; 4.0 means four free cores.
 */
double hostParallelism();

/**
 * CPU seconds of a fixed reference kernel: 4-way LRU tag probes for
 * six cache sizes over a synthetic 1M-reference block stream, the
 * streaming loads and small-set probes a ladder pass is made of.
 * Measured next to a timed call, it tracks how fast the shared host
 * runs such code at that moment (a busy SMT sibling or memory
 * traffic from other tenants slows both alike).
 */
double calibrationSeconds();

/** Reference-kernel CPU seconds on the nominal host that normalised
 * times are quoted for. */
constexpr double nominalCalibrationSeconds = 0.040;

/**
 * @p cpuSeconds rescaled to the nominal host, given the reference
 * kernel's CPU seconds @p calibSeconds measured beside it.  This is
 * what the end-to-end times report: raw CPU time on a shared host
 * drifts by about a quarter over minutes; the ratio drifts far less
 * for work as memory-bound as the kernel (see README.md).
 */
inline double
normalised(double cpuSeconds, double calibSeconds)
{
    return cpuSeconds * nominalCalibrationSeconds / calibSeconds;
}

/** Span name prefix that marks the benchmark's own spans. */
constexpr const char *spanPrefix = "bench/";

/**
 * Per-round layer self times derived from the benchmark's spans
 * recorded since tracing started: each span named "bench/round"
 * yields one entry mapping layer name (span name without prefix) to
 * self seconds, plus the round's duration.  Spans of the program
 * itself are ignored, so a layer span's self time is its duration
 * minus the benchmark spans nested in it.  Aborts the run if the
 * recorder dropped events.
 */
struct RoundSpans
{
    double roundSeconds = 0.0;
    double roundSelfSeconds = 0.0; ///< not covered by a layer span
    std::map<std::string, double> selfSeconds;
};
std::vector<RoundSpans> collectRoundSpans();

/** Arm the span recorder for a traced pass (fresh buffers). */
void startTracing();
/** Disarm it; collected spans stay until the next startTracing(). */
void stopTracing();

/**
 * Run timed rounds until @p opt.seconds have passed and at least
 * @p minRounds ran, each untraced round preceded by a calibration
 * (stored in Round::calib).  @p round gets the untraced round's
 * index.  A traced run follows each untraced round with a traced
 * one of the same index, so both see the same host conditions, and
 * collects the traced rounds' spans into @p spans.
 */
template <class Round, class F>
void
runRounds(const Options &opt, std::size_t minRounds, F &&round,
          std::vector<Round> &plain, std::vector<Round> &traced,
          std::vector<RoundSpans> &spans)
{
    const auto start = Clock::now();
    while (plain.size() < minRounds ||
           (opt.trace && traced.size() < minRounds) ||
           secondsSince(start) < opt.seconds) {
        const std::size_t i = plain.size();
        const double calib = calibrationSeconds();
        plain.push_back(round(i));
        plain.back().calib = calib;
        if (opt.trace) {
            startTracing();
            traced.push_back(round(i));
            stopTracing();
            for (RoundSpans &s : collectRoundSpans())
                spans.push_back(std::move(s));
        }
    }
}

/** Median over traced rounds of @p layer's self seconds. */
double spanMedian(const std::vector<RoundSpans> &spans,
                  const std::string &layer);

/**
 * Report obs.tracing_overhead_pct (traced over untraced wall time of
 * the same work) and obs.span_coverage_pct (share of each traced
 * round its layer spans cover, median).
 */
void reportTracing(Report &report, double plainWall, double tracedWall,
                   const std::vector<RoundSpans> &spans);

/** Golden counters: key -> space-separated counter values. */
using Counters = std::map<std::string, std::string>;

/** Path of the golden file for @p workload at @p seed. */
std::string goldenPath(const Options &opt);

/**
 * Compare @p got with the golden file for this run's seed, counting
 * each key into @p report.  Returns false (and checks nothing) when
 * no golden file exists for the seed.
 */
bool checkGoldens(const Options &opt, const Counters &got,
                  Report &report);

/** Write @p got as the golden file for this run's seed. */
void writeGoldens(const Options &opt, const Counters &got);

/** Compare two counter maps key by key into @p report. */
void checkSame(const Counters &want, const Counters &got,
               const std::string &what, Report &report);

/** Space-separated decimal rendering of @p values. */
std::string joinCounters(std::initializer_list<std::uint64_t> values);

Report runTrafficCurves(const Options &opt);
Report runDecompose(const Options &opt);
Report runServedMix(const Options &opt);

} // namespace perfbench

#endif // MEMBW_PERFBENCH_PERFBENCH_HH
