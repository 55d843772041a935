/**
 * @file
 * Workload served_mix: a forked `membw_served --jobs 2` on a private
 * socket under open-loop Poisson load, at most four connections.
 *
 * The mix has three classes:
 *  - 80% repeats of the six served_qps requests (result-cache hits);
 *  - 15% new sizes, blocks or write policy on an already-cached
 *    trace (result-cache misses, artifact-cache hits);
 *  - 5% traces of new seeds (miss every cache).
 * The result cache is bounded below the run's distinct-result
 * footprint, so inserts and evictions happen beside the hits.  This
 * is the only workload where the serve layer does most of the work.
 *
 * Phases: set-up (daemon start to ready plus priming the hot set),
 * the fixed-rate phase at 100 req/s, the max_qps search, the
 * in-process reference passes (executeSweep + renderSweepStatsJson
 * over the fixed phase's distinct requests, whose normalised CPU time
 * is this workload's norm_cpu_s), then untimed checks: every served
 * body against the reference, and the cache-key probe.
 *
 * The daemon's own CPU time and the client-side latencies are
 * per-layer metrics: on a shared host they spread too far run to run
 * to carry a bound (see README.md).
 */

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "mtc/next_use.hh"
#include "obs/json.hh"
#include "perfbench.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/sweep_service.hh"
#include "trace/block_stream.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace membw;

constexpr double scale = 0.05;
const char *const traceWorkloads[] = {"Compress", "Eqntott", "Swm"};
constexpr double fixedRate = 100.0;  ///< req/s of the fixed phase
constexpr unsigned connections = 4;
constexpr double latencyLimitMs = 50.0;
constexpr double successShare = 0.99;
/** Result-cache bound: holds the hot set with room to spare, well
 * below the run's distinct-result footprint. */
constexpr const char *resultCacheBytes = "256K";
/** Artifact-cache bound: holds the three hot traces and their
 * streams while keeping the daemon small; new-seed traces cycle. */
constexpr const char *artifactCacheBytes = "64M";

enum class Kind
{
    Hot,
    NewConfig,
    NewTrace,
};

struct Request
{
    Kind kind;
    std::string line;
};

/** One stable-JSON sweep request line, in served_qps's field order. */
std::string
sweepLine(const std::string &workload, const std::string &sizes,
          const std::string &blocks, unsigned assoc, bool mtc,
          const std::string &extra = "")
{
    return std::string("{\"op\":\"sweep\",") + "\"workload\":\"" +
           workload + "\"," + "\"scale\":" + formatJsonNumber(scale) +
           ",\"sizes\":\"" + sizes + "\",\"blocks\":\"" + blocks +
           "\",\"assoc\":" + std::to_string(assoc) + "," +
           "\"mtc\":" + (mtc ? "true" : "false") + extra +
           ",\"stable\":true}";
}

/** Draws the request mix from the run's seed. */
class MixGen
{
  public:
    explicit MixGen(std::uint64_t seed) : rng_(seed), seed_(seed)
    {
        for (const char *w : traceWorkloads)
            for (const char *sizes : {"1K,4K,16K", "64K,256K"})
                hot_.push_back(sweepLine(w, sizes, "32", 4, true));
        used_.insert(hot_.begin(), hot_.end());
    }

    const std::vector<std::string> &hot() const { return hot_; }

    /** @p n requests with the 80/15/5 class split, shuffled. */
    std::vector<Request>
    batch(std::size_t n)
    {
        const std::size_t nHot = n * 80 / 100;
        const std::size_t nNew = n * 15 / 100;
        std::vector<Request> out;
        for (std::size_t i = 0; i < n; ++i) {
            const Kind k = i < nHot          ? Kind::Hot
                           : i < nHot + nNew ? Kind::NewConfig
                                             : Kind::NewTrace;
            out.push_back({k, make(k)});
        }
        std::shuffle(out.begin(), out.end(), rng_);
        return out;
    }

    /** Exponential inter-arrival gap at @p rate, in seconds. */
    double
    gap(double rate)
    {
        return -std::log(1.0 - unit()) / rate;
    }

  private:
    double
    unit()
    {
        return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    }
    /** Draws 0..n-1, each once per n draws in a seeded order, so
     * every seed gets the same mix composition. */
    class Bag
    {
      public:
        explicit Bag(std::size_t n) : order_(n), pos_(n)
        {
            for (std::size_t i = 0; i < n; ++i)
                order_[i] = i;
        }
        std::size_t
        draw(std::mt19937_64 &rng)
        {
            if (pos_ == order_.size()) {
                std::shuffle(order_.begin(), order_.end(), rng);
                pos_ = 0;
            }
            return order_[pos_++];
        }

      private:
        std::vector<std::size_t> order_;
        std::size_t pos_;
    };

    static constexpr const char *sizeSet[] = {
        "1K", "2K", "4K", "8K", "16K", "32K", "64K", "128K", "256K"};
    static constexpr const char *blockSet[] = {"16", "32", "64",
                                               "16,64", "32,64"};
    static constexpr unsigned assocSet[] = {1, 2, 4, 8};
    static constexpr const char *policySet[] = {
        "", ",\"write\":\"wt\",\"alloc\":\"wna\"", ",\"alloc\":\"wv\"",
        ",\"alloc\":\"wna\""};

    std::string
    make(Kind k)
    {
        if (k == Kind::Hot)
            return hot_[hotBag_.draw(rng_)];
        if (k == Kind::NewTrace) {
            const std::uint64_t seed =
                1'000'000 + (seed_ % 100'000) * 1'000 + newSeeds_++;
            return sweepLine(traceWorkloads[traceBag_.draw(rng_)],
                             "1K,4K,16K", "32", 4, true,
                             ",\"seed\":" + std::to_string(seed));
        }
        for (;;) {
            std::vector<std::size_t> idx(std::size(sizeSet));
            for (std::size_t i = 0; i < idx.size(); ++i)
                idx[i] = i;
            std::shuffle(idx.begin(), idx.end(), rng_);
            idx.resize(1 + countBag_.draw(rng_));
            std::sort(idx.begin(), idx.end());
            std::string sizes;
            for (std::size_t i : idx)
                sizes += (sizes.empty() ? "" : ",") +
                         std::string(sizeSet[i]);
            std::string line = sweepLine(
                traceWorkloads[configBag_.draw(rng_)], sizes,
                blockSet[blockBag_.draw(rng_)],
                assocSet[assocBag_.draw(rng_)], false,
                policySet[policyBag_.draw(rng_)]);
            if (used_.insert(line).second)
                return line;
        }
    }

    std::mt19937_64 rng_;
    std::uint64_t seed_;
    std::uint64_t newSeeds_ = 0;
    Bag hotBag_{6}, traceBag_{3}, configBag_{3}, countBag_{3},
        blockBag_{std::size(blockSet)}, assocBag_{std::size(assocSet)},
        policyBag_{std::size(policySet)};
    std::vector<std::string> hot_;
    std::set<std::string> used_;
};

/** A forked membw_served, shut down (or killed) on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opt, int instance)
        : socket_(opt.runDir + "/served-" + std::to_string(getpid()) +
                  "-" + std::to_string(instance) + ".sock")
    {
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // Die with the benchmark, so no daemon outlives a run.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int devnull = open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                dup2(devnull, STDOUT_FILENO);
            execl(opt.daemon.c_str(), opt.daemon.c_str(), "--socket",
                  socket_.c_str(), "--jobs", "2", "--cache-bytes",
                  resultCacheBytes, "--artifact-bytes",
                  artifactCacheBytes, static_cast<char *>(nullptr));
            _exit(127);
        }
        if (!waitForServer(socket_, 20'000)) {
            stop();
            throw std::runtime_error(
                "membw_served did not come up on " + socket_);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    int pid() const { return static_cast<int>(pid_); }

    /** Ask for shutdown, wait up to 10 s, then kill. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        (void)serveRequestOnce(socket_, "{\"op\":\"shutdown\"}");
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        unlink(socket_.c_str());
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** CPU seconds of every exited, waited-for child process. */
double
childCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** What one request got back. */
struct Sample
{
    double latencyMs = 0.0; ///< from its scheduled send
    double lagMs = 0.0;     ///< actual send minus scheduled send
    bool answered = false;
    bool ok = false;
    bool cached = false;
    std::string response;
};

/**
 * Send @p reqs open-loop at Poisson @p rate over at most
 * `connections` connections.  A connection takes the next request
 * only when free, so a stall delays later sends; latency is timed
 * from each request's scheduled send, which counts that wait.
 */
std::vector<Sample>
openLoop(const std::string &socket, const std::vector<Request> &reqs,
         double rate, MixGen &gen, bool keepResponses)
{
    std::vector<double> due(reqs.size());
    double t = 0.0;
    for (double &d : due) {
        t += gen.gap(rate);
        d = t;
    }
    std::vector<Sample> out(reqs.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    auto at = [&](double s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
    };
    auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };
    std::vector<std::thread> senders;
    for (unsigned c = 0; c < connections; ++c)
        senders.emplace_back([&] {
            ServeClient conn;
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= reqs.size())
                    return;
                std::this_thread::sleep_until(at(due[i]));
                const auto sent = Clock::now();
                Sample &s = out[i];
                s.lagMs = ms(sent - at(due[i]));
                std::optional<std::string> line;
                if ((conn.connected() || conn.connect(socket)) &&
                    conn.sendLine(reqs[i].line))
                    line = conn.recvLine();
                s.latencyMs = ms(Clock::now() - at(due[i]));
                if (!line) {
                    conn.close();
                    continue;
                }
                s.answered = true;
                s.ok = line->rfind("{\"status\":\"ok\"", 0) == 0;
                s.cached = line->find("\"cached\":true") !=
                           std::string::npos;
                if (keepResponses)
                    s.response = std::move(*line);
            }
        });
    for (std::thread &s : senders)
        s.join();
    return out;
}

/** Latency with failures counted as missing any limit (a finite
 * stand-in, so percentiles interpolate cleanly). */
double
effectiveMs(const Sample &s)
{
    return s.ok ? s.latencyMs : 1e9;
}

/**
 * The max_qps criterion: at least 99% of requests succeed, p99
 * latency (failures as infinite) within the limit, and no growing
 * backlog — the last quarter's median latency stays within twice
 * the first quarter's plus 5 ms.
 */
bool
meetsLimit(const std::vector<Sample> &samples)
{
    std::vector<double> lat;
    std::size_t ok = 0;
    for (const Sample &s : samples) {
        lat.push_back(effectiveMs(s));
        ok += s.ok;
    }
    if (ok < successShare * static_cast<double>(samples.size()))
        return false;
    if (percentile(lat, 0.99) > latencyLimitMs)
        return false;
    const std::size_t q = lat.size() / 4;
    const std::vector<double> head(lat.begin(), lat.begin() + q);
    const std::vector<double> tail(lat.end() - q, lat.end());
    return median(tail) <= 2.0 * median(head) + 5.0;
}

/** Numeric field of the daemon's stats envelope. */
std::map<std::string, double>
daemonStats(const std::string &socket)
{
    std::map<std::string, double> out;
    const auto line = serveRequestOnce(socket, "{\"op\":\"stats\"}");
    if (!line)
        throw std::runtime_error("stats request got no answer");
    const JsonValue v = parseJson(*line);
    for (const char *k :
         {"executed", "coalesced", "busy_rejected", "result_hits",
          "result_misses", "result_evictions", "artifact_hits",
          "artifact_misses"})
        if (const JsonValue *f = v.find(k))
            out[k] = f->asNumber();
    return out;
}

/** The response body, or "error: ..." for a well-formed non-ok
 * envelope, or nothing when the line does not parse. */
std::optional<std::string>
responseOutcome(const std::string &line)
{
    try {
        const JsonValue v = parseJson(line);
        const JsonValue *status = v.find("status");
        if (!status)
            return std::nullopt;
        if (status->asString() != "ok")
            return "error: " + status->asString();
        const JsonValue *body = v.find("body");
        return body ? body->asString() : std::string();
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/**
 * In-process reference: executeSweep + renderSweepStatsJson over a
 * trace generated here, each library call timed by layer.  The
 * ladder share is the time up to onPlan (collapse planning runs the
 * ladder passes) minus stream decode; the MTC share is the cell
 * fan-out after it minus the next-use build.  Served sweeps run the
 * canonical MTC, which is write-validate, so that share is mtc.wv.
 */
class Reference
{
  public:
    /** Outcome ("error: ..." when the request is invalid). */
    std::string
    outcome(const std::string &line)
    {
        ServeRequest parsed;
        try {
            parsed = parseServeRequest(line);
        } catch (const FatalError &) {
            return "error: error";
        }
        const SweepRequest &req = parsed.sweep;
        const std::string key = req.workload + "|" +
                                formatJsonNumber(req.scale) + "|" +
                                std::to_string(req.seed);
        auto it = traces_.find(key);
        if (it == traces_.end()) {
            WorkloadParams p;
            p.scale = req.scale;
            p.seed = req.seed;
            Trace t = timed("bench/workloads.gen",
                            seconds["workloads.gen"], [&] {
                                return makeWorkload(req.workload)->trace(p);
                            });
            refs += t.size();
            it = traces_.emplace(key, std::move(t)).first;
        }
        const Trace &trace = it->second;

        double decode = 0.0, nextUse = 0.0;
        SweepExecOptions eopts;
        eopts.jobs = 1;
        eopts.streamProvider = [&](Bytes block) {
            ++decodes;
            return timed("bench/trace.decode", decode, [&] {
                return std::make_shared<const BlockStream>(
                    buildBlockStream(trace, block));
            });
        };
        eopts.nextUseProvider = [&] {
            return timed("bench/mtc.next_use", nextUse, [&] {
                return makeNextUseTable(trace, wordBytes);
            });
        };
        std::optional<TraceSpan> stage(std::in_place,
                                       "bench/exec.ladder");
        auto t0 = Clock::now();
        double ladder = 0.0;
        eopts.onPlan = [&](const CollapsedSweep &c, std::size_t,
                           std::size_t) {
            ladder = secondsSince(t0);
            ladderPasses += c.ladderPasses();
            ladderBytes +=
                c.ladderPasses() * trace.size() * streamBytesPerRef;
            cellsCovered += c.covered();
            stage.reset();
            stage.emplace("bench/mtc.wv");
            t0 = Clock::now();
        };
        std::string result;
        try {
            const SweepOutcome o = executeSweep(req, trace, eopts);
            const double cells = secondsSince(t0);
            stage.reset();
            for (std::size_t i = o.nHier; i < o.cells.size(); ++i) {
                ++mtcCells;
                mtcAccesses += o.cells[i].mtc.accesses;
            }
            seconds["exec.ladder"] += ladder - decode;
            seconds["mtc.wv"] += cells - nextUse;
            result = timed("bench/obs.render", seconds["obs.render"],
                           [&] {
                               return renderSweepStatsJson(
                                   req, trace.size(), o);
                           });
        } catch (const FatalError &) {
            stage.reset();
            result = "error: error";
        }
        seconds["trace.decode"] += decode;
        seconds["mtc.next_use"] += nextUse;
        return result;
    }

    std::map<std::string, double> seconds;
    std::uint64_t refs = 0, decodes = 0, ladderPasses = 0,
                  ladderBytes = 0, cellsCovered = 0, mtcCells = 0,
                  mtcAccesses = 0;

  private:
    std::map<std::string, Trace> traces_;
};

/** Distinct request lines of @p reqs, in first-seen order. */
std::vector<std::string>
distinctLines(const std::vector<Request> &reqs)
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const Request &r : reqs)
        if (seen.insert(r.line).second)
            out.push_back(r.line);
    return out;
}

/** Cache-key probe requests: a base and, for each sweep wire field
 * but op and stable, a variant differing only in that field (an
 * empty base value leaves the field at its default).  The base
 * enables stream buffers so stream_depth matters; stable stays on
 * because unstable bodies carry wall time. */
std::vector<std::pair<std::string, std::string>>
keyProbes()
{
    const std::string head = "{\"op\":\"sweep\",\"stable\":true";
    const std::map<std::string, std::pair<std::string, std::string>>
        fields = {
            {"workload", {"\"Compress\"", "\"Swm\""}},
            {"label", {"\"base\"", "\"variant\""}},
            {"scale", {"0.05", "0.04"}},
            {"seed", {"42", "7"}},
            {"sizes", {"\"8K\"", "\"16K\""}},
            {"blocks", {"\"32\"", "\"64\""}},
            {"mtc", {"false", "true"}},
            {"no_collapse", {"false", "true"}},
            {"no_partition", {"false", "true"}},
            {"watchdog", {"1000000", "2000000"}},
            {"size", {"\"64K\"", "\"32K\""}},
            {"assoc", {"4", "2"}},
            {"block", {"32", "64"}},
            {"sector", {"", "16"}},
            {"repl", {"\"lru\"", "\"fifo\""}},
            {"write", {"\"wb\"", "\"wt\""}},
            {"alloc", {"\"wa\"", "\"wna\""}},
            {"prefetch", {"false", "true"}},
            {"stream_buffers", {"2", "4"}},
            {"stream_depth", {"4", "8"}},
        };
    auto line = [&](const std::string &varied) {
        std::string out = head;
        for (const auto &[name, values] : fields) {
            const std::string &v =
                name == varied ? values.second : values.first;
            if (!v.empty())
                out += ",\"" + name + "\":" + v;
        }
        return out + "}";
    };
    std::vector<std::pair<std::string, std::string>> out;
    out.push_back({"base", line("")});
    for (const auto &[name, values] : fields)
        out.push_back({name, line(name)});
    return out;
}

} // namespace

Report
runServedMix(const Options &opt)
{
    if (opt.daemon.empty() || opt.runDir.empty())
        throw std::runtime_error(
            "served_mix needs --daemon and --run-dir");
    Report report;
    MixGen gen(opt.seed);

    // Set-up: daemon start to ready plus priming the hot set.  Five
    // throwaway daemons are started, primed and stopped, each after a
    // calibration; setup_s is the median of their whole CPU time,
    // read exactly once each has exited, normalised.  A sixth, set up
    // the same way, serves the run.
    auto prime = [&](const Daemon &d) {
        for (const std::string &line : gen.hot()) {
            const auto resp = serveRequestOnce(d.socket(), line);
            report.check(resp &&
                             resp->rfind("{\"status\":\"ok\"", 0) == 0,
                         "priming request failed");
        }
    };
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        const double calib = calibrationSeconds();
        const double cpu0 = childCpuSeconds();
        {
            const Daemon d(opt, rep);
            prime(d);
        }
        setups.push_back(normalised(childCpuSeconds() - cpu0, calib));
    }
    auto daemon = std::make_unique<Daemon>(opt, 5);
    prime(*daemon);
    const std::string &sock = daemon->socket();

    // Fixed-rate phase.
    const double fixedSeconds = 0.7 * opt.seconds;
    const auto fixedCount = static_cast<std::size_t>(
        std::max(100.0, fixedRate * fixedSeconds));
    const std::vector<Request> fixed = gen.batch(fixedCount);
    const auto before = daemonStats(sock);
    const double cpu0 = cpuSeconds(daemon->pid());
    const std::vector<Sample> samples =
        openLoop(sock, fixed, fixedRate, gen, true);
    const double daemonCpu = cpuSeconds(daemon->pid()) - cpu0;
    const auto after = daemonStats(sock);
    auto delta = [&](const char *k) {
        return after.at(k) - before.at(k);
    };

    // max_qps search: probe at the fixed rate, double (or halve)
    // until the limit flips, then bisect geometrically to within 5%.
    // A probe that misses the limit runs once more, so one host stall
    // does not decide the answer; the rate passes if either run meets
    // it.  The search stops at its time budget with the highest rate
    // that passed.
    const double probeSeconds = 0.03 * opt.seconds;
    const auto searchStart = Clock::now();
    auto inBudget = [&] {
        return secondsSince(searchStart) < 0.3 * opt.seconds;
    };
    std::uint64_t searchSent = 0, searchFailed = 0;
    auto probeOnce = [&](double rate) {
        const auto n = static_cast<std::size_t>(
            std::max(200.0, rate * probeSeconds));
        const auto s = openLoop(sock, gen.batch(n), rate, gen, false);
        searchSent += s.size();
        for (const Sample &x : s)
            searchFailed += !x.ok;
        return meetsLimit(s);
    };
    auto probe = [&](double rate) {
        return probeOnce(rate) || probeOnce(rate);
    };
    double best = 0.0; // highest rate that met the limit
    double fail = 0.0; // lowest rate that missed it, 0 = none yet
    for (double rate = fixedRate; rate >= 1.0 && inBudget();) {
        (probe(rate) ? best : fail) = rate;
        if (fail == 0.0)
            rate = 2 * best;
        else if (best == 0.0)
            rate = fail / 2;
        else if (fail / best <= 1.05)
            break;
        else
            rate = std::sqrt(best * fail);
    }
    const double maxQps = best;

    // The in-process reference pass over the fixed phase's distinct
    // requests runs three times, each after a calibration; the median
    // normalised CPU time is norm_cpu_s.  The first pass's bodies are
    // what every served response must equal, and its timers give the
    // untraced per-layer times.
    const std::vector<std::string> lines = distinctLines(fixed);
    std::map<std::string, std::string> want;
    struct PassTime
    {
        double cpu, wall, calib;
    };
    auto referencePass = [&](Reference &r, bool keep) {
        PassTime t{0.0, 0.0, calibrationSeconds()};
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        {
            TraceSpan round("bench/round");
            for (const std::string &line : lines) {
                std::string body = r.outcome(line);
                if (keep)
                    want[line] = std::move(body);
            }
        }
        t.cpu = cpuSeconds() - cpu0;
        t.wall = secondsSince(t0);
        return t;
    };
    Reference ref;
    std::vector<double> refCpus, refWalls, calibs, norms;
    for (int i = 0; i < 3; ++i) {
        Reference again;
        const PassTime t = referencePass(i == 0 ? ref : again, i == 0);
        refCpus.push_back(t.cpu);
        refWalls.push_back(t.wall);
        calibs.push_back(t.calib);
        norms.push_back(normalised(t.cpu, t.calib));
    }
    std::uint64_t fixedFailed = 0;
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const Sample &s = samples[i];
        const auto got = s.answered ? responseOutcome(s.response)
                                    : std::nullopt;
        const bool good = s.ok && got && *got == want.at(fixed[i].line);
        fixedFailed += !good;
        report.check(good, std::string(s.answered ? "wrong or non-ok"
                                                  : "dropped") +
                               " response to " + fixed[i].line);
    }

    // A traced run adds a pass with spans armed; its wall time
    // against the untraced passes' is the tracing overhead.
    std::vector<RoundSpans> spans;
    double tracedWall = 0.0;
    if (opt.trace) {
        Reference again;
        startTracing();
        tracedWall = referencePass(again, false).wall;
        stopTracing();
        spans = collectRoundSpans();
    }

    // Cache-key probe: base then variant per field, each compared
    // with the reference.  Reported, not counted as failures: the
    // known key defect is what it exists to show.
    std::uint64_t mismatches = 0, checkSent = 0, checkFailed = 0;
    std::vector<std::string> flagged;
    Reference probeRef;
    for (const auto &[field, line] : keyProbes()) {
        const auto resp = serveRequestOnce(sock, line);
        ++checkSent;
        const auto got = resp ? responseOutcome(*resp) : std::nullopt;
        checkFailed += !got;
        if (!got || *got != probeRef.outcome(line)) {
            ++mismatches;
            flagged.push_back(field);
        }
    }
    std::string flaggedList;
    for (const std::string &f : flagged)
        flaggedList += (flaggedList.empty() ? "" : ",") + f;

    const double daemonRss = peakRssMb(daemon->pid());
    daemon.reset();

    // End to end.
    std::vector<double> all, hits, misses, cold, lag;
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const Sample &s = samples[i];
        all.push_back(effectiveMs(s));
        lag.push_back(s.lagMs);
        if (!s.ok)
            continue;
        (s.cached ? hits : misses).push_back(s.latencyMs);
        if (fixed[i].kind == Kind::NewTrace)
            cold.push_back(s.latencyMs);
    }
    report.e2e("norm_cpu_s", median(norms));
    report.e2e("setup_s", median(setups));
    report.e2e("peak_rss_mb", daemonRss);

    // Per layer.
    report.layer("host.cpu_s", median(refCpus));
    report.layer("host.wall_s", median(refWalls));
    report.layer("host.calib_s", median(calibs));
    auto layerTime = [&](const std::string &layer) {
        if (opt.trace)
            return spanMedian(spans, layer);
        const auto it = ref.seconds.find(layer);
        return it == ref.seconds.end() ? 0.0 : it->second;
    };
    for (const char *layer :
         {"workloads.gen", "trace.decode", "exec.ladder", "mtc.next_use",
          "mtc.wv", "obs.render"})
        report.layer(std::string(layer) + "_s", layerTime(layer));
    report.layer("workloads.refs", static_cast<double>(ref.refs));
    report.layer("trace.decodes", static_cast<double>(ref.decodes));
    report.layer("exec.ladder_passes",
                 static_cast<double>(ref.ladderPasses));
    report.layer("exec.cells_covered",
                 static_cast<double>(ref.cellsCovered));
    report.layer("exec.ladder_bytes",
                 static_cast<double>(ref.ladderBytes));
    report.layer("mtc.cells", static_cast<double>(ref.mtcCells));
    report.layer("mtc.accesses", static_cast<double>(ref.mtcAccesses));
    report.layer("serve.daemon_cpu_s", daemonCpu);
    report.layer("serve.p50_ms", median(all));
    report.layer("serve.p99_ms", percentile(all, 0.99));
    report.layer("serve.cold_p50_ms", median(cold));
    report.layer("serve.max_qps", maxQps);
    report.layer("serve.hit_p50_ms", median(hits));
    report.layer("serve.miss_p50_ms", median(misses));
    const double rh = delta("result_hits"), rm = delta("result_misses");
    const double ah = delta("artifact_hits");
    const double am = delta("artifact_misses");
    report.layer("serve.result_hit_ratio",
                 rh + rm > 0 ? rh / (rh + rm) : 0);
    report.layer("serve.artifact_hit_ratio",
                 ah + am > 0 ? ah / (ah + am) : 0);
    report.layer("serve.executed", delta("executed"));
    report.layer("serve.coalesced", delta("coalesced"));
    report.layer("serve.result_evictions", delta("result_evictions"));
    report.layer("serve.busy_rejected", delta("busy_rejected"));
    report.layer("serve.key_mismatches",
                 static_cast<double>(mismatches));
    report.layer("loadgen.lag_p99_ms", percentile(lag, 0.99));
    report.layer("loadgen.sent", static_cast<double>(fixed.size()));
    report.layer("loadgen.failed", static_cast<double>(fixedFailed));
    report.layer("loadgen.search_sent", static_cast<double>(searchSent));
    report.layer("loadgen.search_failed",
                 static_cast<double>(searchFailed));
    report.layer("loadgen.check_sent", static_cast<double>(checkSent));
    report.layer("loadgen.check_failed",
                 static_cast<double>(checkFailed));
    if (opt.trace)
        reportTracing(report, median(refWalls), tracedWall, spans);

    report.info.push_back(
        "fixed phase: " + std::to_string(all.size()) + " samples at " +
        formatJsonNumber(fixedRate) + " req/s (" +
        std::to_string(hits.size()) + " result hits, " +
        std::to_string(misses.size()) + " misses, " +
        std::to_string(cold.size()) + " new-trace)");
    report.info.push_back("max_qps search: " +
                          std::to_string(searchSent) +
                          " requests; limit p99 <= 50 ms, >= 99% ok");
    report.info.push_back("key probe flagged: " +
                          (flaggedList.empty() ? "none" : flaggedList));
    return report;
}

} // namespace perfbench
