#include "serve/protocol.hh"

#include "common/log.hh"
#include "obs/json.hh"
#include "serve/request_fields.hh"

namespace membw {

const char *
serveOpName(ServeOp op)
{
    switch (op) {
      case ServeOp::Ping: return "ping";
      case ServeOp::Stats: return "stats";
      case ServeOp::Shutdown: return "shutdown";
      case ServeOp::Sweep: return "sweep";
      case ServeOp::Decompose: return "decompose";
    }
    return "unknown";
}

ServeRequest
parseServeRequest(std::string_view line)
{
    const JsonValue doc = parseJson(line);
    if (!doc.isObject())
        fatal("request must be a JSON object");
    const JsonValue *opField = doc.find("op");
    if (!opField || !opField->isString())
        fatal("request requires a string 'op' field");
    const std::string &op = opField->string;

    ServeRequest req;
    if (op == "ping" || op == "stats" || op == "shutdown") {
        // These ops take no fields: an empty table rejects any.
        parseWireFields(doc, std::vector<RequestField<ServeRequest>>(), op);
        req.op = op == "ping"    ? ServeOp::Ping
                 : op == "stats" ? ServeOp::Stats
                                 : ServeOp::Shutdown;
    } else if (op == "sweep") {
        req.op = ServeOp::Sweep;
        req.sweep = parseWireFields(doc, sweepFields(), "sweep");
    } else if (op == "decompose") {
        req.op = ServeOp::Decompose;
        req.decompose =
            parseWireFields(doc, decomposeFields(), "decompose");
    } else {
        fatal("unknown op '" + op +
              "': expected ping, stats, shutdown, sweep, or "
              "decompose");
    }
    return req;
}

std::string
serveRequestKey(const ServeRequest &req)
{
    switch (req.op) {
      case ServeOp::Sweep:
        return sweepRequestKey(req.sweep); // self-prefixed "sweep|"
      case ServeOp::Decompose:
        return decomposeRequestKey(req.decompose);
      default:
        return serveOpName(req.op);
    }
}

std::string
okEnvelope(ServeOp op, bool cached, int exitCode,
           std::string_view body)
{
    std::string out = "{\"status\":\"ok\",\"op\":\"";
    out += serveOpName(op);
    out += "\",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"exit\":";
    out += std::to_string(exitCode);
    out += ",\"body\":";
    out += jsonEscape(body);
    out += "}";
    return out;
}

std::string
busyEnvelope(ServeOp op, std::size_t queued, std::size_t capacity)
{
    std::string out = "{\"status\":\"busy\",\"op\":\"";
    out += serveOpName(op);
    out += "\",\"queued\":";
    out += std::to_string(queued);
    out += ",\"capacity\":";
    out += std::to_string(capacity);
    out += "}";
    return out;
}

std::string
errorEnvelope(ServeOp op, std::string_view message)
{
    return errorEnvelope(std::string_view(serveOpName(op)), message);
}

std::string
errorEnvelope(std::string_view opName, std::string_view message)
{
    std::string out = "{\"status\":\"error\",\"op\":\"";
    out += opName;
    out += "\",\"error\":";
    out += jsonEscape(message);
    out += "}";
    return out;
}

} // namespace membw
