/**
 * @file
 * membw_perfbench: the repository's end-to-end benchmark.
 *
 *   membw_perfbench --workload traffic_curves|decompose|served_mix
 *                   --seed N --seconds S --trace 0|1
 *                   --goldens DIR --daemon PATH --run-dir DIR
 *                   [--record-goldens]
 *
 * Prints a table of every metric it measured, then as its last
 * stdout line one JSON object {"correct","attempted","failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1.  perfbench/run.py builds it and supplies
 * the paths; see perfbench/README.md.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace_export.hh"
#include "perfbench.hh"

namespace perfbench {

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (notes.size() < 20)
            notes.push_back(what);
    }
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double
peakRssMb(int pid)
{
    const std::string path =
        pid ? "/proc/" + std::to_string(pid) + "/status"
            : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
cpuSeconds(int pid)
{
    if (!pid) {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) / 1e9;
    }
    // utime and stime are fields 14 and 15; the command name before
    // them is parenthesised and may hold spaces.
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream fields(stat.substr(paren + 1));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

std::atomic<std::uint64_t> spinSink{0};

/** Fixed CPU-bound work: a 64-bit LCG chain the compiler cannot
 * shorten (the iteration count arrives at run time). */
void
spin(std::uint64_t iterations)
{
    std::uint64_t x = iterations;
    for (std::uint64_t i = 0; i < iterations; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    spinSink.fetch_add(x, std::memory_order_relaxed);
}

} // namespace

double
hostParallelism()
{
    const std::uint64_t n = 20'000'000;
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clock::now();
        spin(n);
        const double one = secondsSince(t0);
        t0 = Clock::now();
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back(spin, n);
        for (std::thread &t : threads)
            t.join();
        const double four = secondsSince(t0);
        ratios.push_back(4.0 * one / four);
    }
    return median(ratios);
}

double
calibrationSeconds()
{
    static const std::vector<std::uint64_t> blocks = [] {
        // Three quarters sequential runs, one quarter random blocks.
        std::vector<std::uint64_t> v(std::size_t{1} << 20);
        std::uint64_t x = 1, seq = 0;
        for (std::uint64_t &b : v) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            b = (x >> 60) < 12 ? seq++ : (x >> 40) & 0xFFFFF;
        }
        return v;
    }();
    // Thread CPU time: other threads of this process may be busy.
    auto threadCpu = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) / 1e9;
    };
    const double c0 = threadCpu();
    std::uint64_t misses = 0;
    for (std::uint64_t sets = 16; sets <= 16384; sets *= 4) {
        std::vector<std::uint64_t> tags(sets * 4, ~0ULL);
        for (std::uint64_t b : blocks) {
            std::uint64_t *set = &tags[(b & (sets - 1)) * 4];
            unsigned w = 0;
            while (w < 4 && set[w] != b)
                ++w;
            if (w == 4) {
                ++misses;
                w = 3;
            }
            for (; w > 0; --w)
                set[w] = set[w - 1];
            set[0] = b;
        }
    }
    spinSink.fetch_add(misses, std::memory_order_relaxed);
    return threadCpu() - c0;
}

void
startTracing()
{
    membw::tracingReset();
    membw::tracingSetCapacity(std::size_t{1} << 18);
    membw::tracingStart();
}

void
stopTracing()
{
    membw::tracingStop();
}

std::vector<RoundSpans>
collectRoundSpans()
{
    using membw::tracedetail::FlatEvent;
    std::vector<FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    membw::tracedetail::snapshot(events, dropped, threads);
    if (dropped) {
        std::fprintf(stderr,
                     "error: span recorder dropped %llu events\n",
                     static_cast<unsigned long long>(dropped));
        std::exit(1);
    }

    const std::string prefix = spanPrefix;
    std::vector<FlatEvent> spans;
    for (FlatEvent &e : events)
        if (e.kind == 0 && !e.open && e.name.rfind(prefix, 0) == 0)
            spans.push_back(std::move(e));
    // Parents before children: earlier start first, longer first.
    std::sort(spans.begin(), spans.end(),
              [](const FlatEvent &a, const FlatEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.dur > b.dur;
              });

    struct Open
    {
        std::size_t index;
        std::uint64_t end;
        int round; ///< enclosing round entry, -1 for none
    };
    std::vector<RoundSpans> rounds;
    std::vector<Open> stack;
    std::vector<std::uint64_t> childNs(spans.size(), 0);
    std::vector<int> roundOf(spans.size(), -1);
    std::uint32_t tid = ~0u;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const FlatEvent &s = spans[i];
        if (s.tid != tid) {
            stack.clear();
            tid = s.tid;
        }
        while (!stack.empty() && stack.back().end <= s.ts)
            stack.pop_back();
        int round = stack.empty() ? -1 : stack.back().round;
        if (!stack.empty())
            childNs[stack.back().index] += s.dur;
        if (s.name == prefix + "round") {
            round = static_cast<int>(rounds.size());
            rounds.push_back({});
            rounds.back().roundSeconds = s.dur / 1e9;
        }
        roundOf[i] = round;
        stack.push_back({i, s.ts + s.dur, round});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (roundOf[i] < 0)
            continue;
        RoundSpans &r = rounds[static_cast<std::size_t>(roundOf[i])];
        const double self =
            (static_cast<double>(spans[i].dur) -
             static_cast<double>(std::min(childNs[i], spans[i].dur))) /
            1e9;
        const std::string layer = spans[i].name.substr(prefix.size());
        if (layer == "round")
            r.roundSelfSeconds = self;
        else
            r.selfSeconds[layer] += self;
    }
    return rounds;
}

double
spanMedian(const std::vector<RoundSpans> &spans, const std::string &layer)
{
    std::vector<double> v;
    for (const RoundSpans &s : spans) {
        const auto it = s.selfSeconds.find(layer);
        v.push_back(it == s.selfSeconds.end() ? 0.0 : it->second);
    }
    return median(v);
}

void
reportTracing(Report &report, double plainWall, double tracedWall,
              const std::vector<RoundSpans> &spans)
{
    std::vector<double> coverage;
    for (const RoundSpans &s : spans)
        coverage.push_back(100.0 *
                           (1.0 - s.roundSelfSeconds / s.roundSeconds));
    report.layer("obs.tracing_overhead_pct",
                 100.0 * (tracedWall / plainWall - 1.0));
    report.layer("obs.span_coverage_pct", median(coverage));
}

std::string
goldenPath(const Options &opt)
{
    return opt.goldenDir + "/" + opt.workload + "_" +
           std::to_string(opt.seed) + ".txt";
}

bool
checkGoldens(const Options &opt, const Counters &got, Report &report)
{
    std::ifstream in(goldenPath(opt));
    if (!in)
        return false;
    Counters want;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos)
            want[line.substr(0, tab)] = line.substr(tab + 1);
    }
    checkSame(want, got, "golden", report);
    return true;
}

void
writeGoldens(const Options &opt, const Counters &got)
{
    std::ofstream out(goldenPath(opt));
    for (const auto &[key, values] : got)
        out << key << '\t' << values << '\n';
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     goldenPath(opt).c_str());
        std::exit(1);
    }
}

void
checkSame(const Counters &want, const Counters &got,
          const std::string &what, Report &report)
{
    for (const auto &[key, values] : want) {
        const auto it = got.find(key);
        report.check(it != got.end() && it->second == values,
                     what + " mismatch at " + key);
    }
    for (const auto &[key, values] : got)
        if (!want.count(key))
            report.check(false, what + " has no entry " + key);
}

std::string
joinCounters(std::initializer_list<std::uint64_t> values)
{
    std::string out;
    for (std::uint64_t v : values) {
        if (!out.empty())
            out += ' ';
        out += std::to_string(v);
    }
    return out;
}

} // namespace perfbench

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports each of these (their
 * per-workload meaning is in README.md).  Times are normalised CPU
 * time (see normalised()); raw CPU and wall times are per-layer.
 * Keep in step with BENCHMARK.json. */
const MetricDef endToEndDefs[] = {
    {"norm_cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics, grouped by the library module they measure. */
const MetricDef perLayerDefs[] = {
    {"host.cpu_s", "s"},
    {"host.wall_s", "s"},
    {"host.calib_s", "s"},
    {"workloads.gen_s", "s"},
    {"workloads.refs", "count"},
    {"trace.decode_s", "s"},
    {"trace.decodes", "count"},
    {"exec.ladder_s", "s"},
    {"exec.ladder_passes", "count"},
    {"exec.cells_covered", "count"},
    {"exec.ladder_bytes", "bytes"},
    {"mtc.next_use_s", "s"},
    {"mtc.wa_s", "s"},
    {"mtc.wv_s", "s"},
    {"mtc.cells", "count"},
    {"mtc.accesses", "count"},
    {"obs.render_s", "s"},
    {"obs.tracing_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
    {"cpu.stream_build_s", "s"},
    {"cpu.perfect_s", "s"},
    {"cpu.infinite_s", "s"},
    {"cpu.full_s", "s"},
    {"cpu.instructions", "count"},
    {"cpu.sim_cycles", "cycles"},
    {"dram.row_hits", "count"},
    {"dram.row_misses", "count"},
    {"serve.daemon_cpu_s", "s"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.max_qps", "req/s"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.result_hit_ratio", "ratio"},
    {"serve.artifact_hit_ratio", "ratio"},
    {"serve.executed", "count"},
    {"serve.coalesced", "count"},
    {"serve.result_evictions", "count"},
    {"serve.busy_rejected", "count"},
    {"serve.key_mismatches", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.search_sent", "count"},
    {"loadgen.search_failed", "count"},
    {"loadgen.check_sent", "count"},
    {"loadgen.check_failed", "count"},
    {"host.parallelism", "x"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: membw_perfbench --workload "
                 "traffic_curves|decompose|served_mix --seed N "
                 "--seconds S --trace 0|1 --goldens DIR --daemon PATH "
                 "--run-dir DIR [--record-goldens]\n",
                 msg);
    std::exit(2);
}

/** Resolve @p values against @p defs: unknown names are a benchmark
 * bug; missing ones are an error when @p required, else 0. */
template <std::size_t N>
std::vector<std::pair<MetricDef, double>>
resolve(const MetricDef (&defs)[N],
        const std::map<std::string, double> &values, bool required)
{
    for (const auto &[name, v] : values)
        if (std::none_of(std::begin(defs), std::end(defs),
                         [&](const MetricDef &d) { return name == d.name; }))
            throw std::logic_error("undeclared metric " + name);
    std::vector<std::pair<MetricDef, double>> out;
    for (const MetricDef &d : defs) {
        const auto it = values.find(d.name);
        if (it == values.end() && required)
            throw std::logic_error(std::string("workload did not "
                                               "measure ") + d.name);
        const double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            throw std::logic_error(std::string("metric ") + d.name +
                                   " is not finite");
        out.push_back({d, v});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
            haveSeed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
            if (!(opt.seconds > 0 && opt.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--goldens") {
            opt.goldenDir = value();
        } else if (a == "--daemon") {
            opt.daemon = value();
        } else if (a == "--run-dir") {
            opt.runDir = value();
        } else if (a == "--record-goldens") {
            opt.recordGoldens = true;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveSeed)
        usage("--seed is required");
    // A run must end within 180 s; a hung daemon or layer ends it
    // here instead (the daemon dies with this process).
    alarm(175);

    std::vector<std::pair<MetricDef, double>> e2e, layers;
    Report report;
    try {
        if (opt.workload == "traffic_curves")
            report = runTrafficCurves(opt);
        else if (opt.workload == "decompose")
            report = runDecompose(opt);
        else if (opt.workload == "served_mix")
            report = runServedMix(opt);
        else
            usage("unknown --workload");
        report.layer("host.parallelism", hostParallelism());
        e2e = resolve(endToEndDefs, report.endToEnd, true);
        layers = resolve(perLayerDefs, report.perLayer, false);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    auto table = [](const char *title, const auto &metrics) {
        std::printf("-- %s\n", title);
        for (const auto &[def, v] : metrics)
            std::printf("  %-28s %16.6f %s\n", def.name, v, def.unit);
    };
    table("end to end", e2e);
    table("per layer", layers);
    for (const std::string &line : report.info)
        std::printf("-- %s\n", line.c_str());
    std::printf("-- checks: %llu attempted, %llu failed, error_rate %g\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.attempted ? static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                                 : 1.0);
    for (const std::string &n : report.notes)
        std::printf("  FAIL %s\n", n.c_str());

    std::string json = "{\"correct\": ";
    json += report.failed == 0 && report.attempted > 0 ? "true"
                                                        : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[def, v] : opt.trace ? layers : e2e) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        json += first ? "" : ", ";
        first = false;
        json += std::string("\"") + def.name + "\": {\"value\": " +
                num + ", \"unit\": \"" + def.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
