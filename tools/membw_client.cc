/**
 * @file
 * membw_client: command-line client for the membw_served daemon.
 *
 * Subcommands build one wire request, send it, and render the
 * response:
 *
 *   membw_client --socket S ping
 *   membw_client --socket S stats
 *   membw_client --socket S shutdown
 *   membw_client --socket S sweep --workload Compress --sizes 1K,64K \
 *       --assoc 4 --mtc --stable-json [--out FILE]
 *   membw_client --socket S decompose --workload Swm --experiment F \
 *       [--out FILE]
 *
 * For sweep/decompose the response body is the byte-exact stats-JSON
 * document the equivalent membw_sim / membw_decompose run writes, so
 * `membw_client --out f.json` + `cmp` against a fresh CLI run is the
 * end-to-end serving test.  The process exit code mirrors the
 * envelope's "exit" field (0 ok, 5 degraded); busy and error
 * responses exit 1 with a diagnostic on stderr.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "exec/simd.hh"
#include "obs/build_info.hh"
#include "obs/json.hh"
#include "resilience/exit_codes.hh"
#include "serve/client.hh"
#include "serve/request_fields.hh"

using namespace membw;

namespace {

/** @p fields' client flags for the usage text, four to a line:
 * "--workload NAME [--mtc] [--repl lru|fifo|random] ...". */
template <class Req>
std::string
flagSummary(const std::vector<RequestField<Req>> &fields)
{
    // Metavariables by FieldType; a Choice lists its names instead.
    static const char *const meta[] = {"",   " NAME",  " ",   " N",
                                       " F", " BYTES", " LIST"};
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const RequestField<Req> &f = fields[i];
        std::string item = std::string(f.client()) +
                           meta[static_cast<int>(f.spec.type)];
        for (const char *c : f.spec.choices)
            item += c + std::string(c == f.spec.choices.back() ? "" : "|");
        out += (i % 4 ? " " : "\n  ") +
               (f.required ? item : "[" + item + "]");
    }
    return out + "\n";
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH COMMAND [options]\n\n"
        "Commands: ping | stats | shutdown | sweep | decompose\n\n"
        "Common options:\n"
        "  --socket PATH       daemon socket (required)\n"
        "  --out FILE          write the response body to FILE\n"
        "  --wait MS           wait up to MS for the daemon to answer\n"
        "  --version           print version and exit\n"
        "  --build-info        print build provenance and exit\n\n"
        "Sweep options (mirror membw_sim):%s\n"
        "Decompose options (mirror membw_decompose):%s",
        argv0, flagSummary(sweepFields()).c_str(),
        flagSummary(decomposeFields()).c_str());
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(contents.data(), 1, contents.size(), f) ==
        contents.size();
    return !(std::fclose(f) != 0 || !ok);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string outPath;
    std::string command;
    int waitMs = 0;
    std::string fields; // wire members; the daemon rejects foreign ones

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal(std::string(argv[i]) + " requires a value");
        return argv[++i];
    };
    int i = 1;
    auto next = [&] { return need(i); };
    // A request flag of either op (one both take is the same field in
    // each), checked by its field's validator, becomes a wire member.
    auto wireField = [&](const auto &table, auto scratch,
                         const std::string &flag) {
        const auto *f = parseRequestFlag(table, scratch, flag, next, true);
        if (f)
            fields += "," + jsonEscape(f->wire) + ":" +
                      f->at.render(scratch, f->spec);
        return f != nullptr;
    };

    try {
        for (; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                usage(argv[0]);
                return exitOk;
            } else if (a == "--version") {
                std::printf("%s\n",
                            formatVersionLine("membw_client").c_str());
                return exitOk;
            } else if (a == "--build-info") {
                std::printf("%s", formatBuildInfo(
                                      "membw_client",
                                      simdTierName(simdTier()))
                                      .c_str());
                return exitOk;
            } else if (a == "--socket") {
                socketPath = need(i);
            } else if (a == "--out") {
                outPath = need(i);
            } else if (a == "--wait") {
                waitMs = static_cast<int>(
                    tryParseInt(need(i), 0, 3600000).orDie());
            } else if (wireField(sweepFields(), SweepRequest(), a) ||
                       wireField(decomposeFields(), DecomposeRequest(), a)) {
            } else if (!a.empty() && a[0] == '-') {
                std::fprintf(stderr, "unknown option '%s'\n\n",
                             a.c_str());
                usage(argv[0]);
                return exitUsage;
            } else if (command.empty()) {
                command = a;
            } else {
                std::fprintf(stderr, "unexpected argument '%s'\n\n",
                             a.c_str());
                usage(argv[0]);
                return exitUsage;
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return exitUsage;
    }

    if (socketPath.empty() || command.empty()) {
        usage(argv[0]);
        return exitUsage;
    }
    if (command != "ping" && command != "stats" &&
        command != "shutdown" && command != "sweep" &&
        command != "decompose") {
        std::fprintf(stderr, "unknown command '%s'\n\n",
                     command.c_str());
        usage(argv[0]);
        return exitUsage;
    }

    if (waitMs > 0 && !waitForServer(socketPath, waitMs)) {
        std::fprintf(stderr,
                     "membw_client: no daemon on '%s' after %dms\n",
                     socketPath.c_str(), waitMs);
        return exitFatal;
    }

    const std::string request =
        "{\"op\":\"" + command + "\"" + fields + "}";
    const auto replyLine = serveRequestOnce(socketPath, request);
    if (!replyLine) {
        std::fprintf(stderr,
                     "membw_client: cannot reach daemon on '%s'\n",
                     socketPath.c_str());
        return exitFatal;
    }

    JsonValue reply;
    try {
        reply = parseJson(*replyLine);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "membw_client: bad response: %s\n",
                     e.what());
        return exitFatal;
    }
    const std::string status =
        reply.find("status") ? reply.at("status").asString() : "";
    if (status == "busy") {
        std::fprintf(
            stderr,
            "membw_client: daemon busy (queued %d of %d)\n",
            static_cast<int>(reply.at("queued").asNumber()),
            static_cast<int>(reply.at("capacity").asNumber()));
        return exitFatal;
    }
    if (status != "ok") {
        const JsonValue *err = reply.find("error");
        std::fprintf(stderr, "membw_client: %s\n",
                     err ? err->asString().c_str()
                         : "malformed response");
        return exitFatal;
    }

    // ping/stats envelopes carry their payload in the envelope
    // itself; sweep/decompose carry the stats document in "body".
    const JsonValue *body = reply.find("body");
    const std::string &payload =
        body ? body->asString() : *replyLine;
    if (!outPath.empty()) {
        if (!writeFile(outPath, payload)) {
            std::fprintf(stderr,
                         "membw_client: cannot write '%s'\n",
                         outPath.c_str());
            return exitFatal;
        }
    } else {
        std::fwrite(payload.data(), 1, payload.size(), stdout);
        if (payload.empty() || payload.back() != '\n')
            std::fputc('\n', stdout);
    }

    const JsonValue *exitField = reply.find("exit");
    return exitField ? static_cast<int>(exitField->asNumber())
                     : exitOk;
}
