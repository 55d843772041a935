/**
 * @file
 * The request schema: one table per compute op with a row per request
 * field — wire name, CLI flag, value type with range or choices, and
 * the member it sets.  The tools' request flags, the wire protocol,
 * membw_client, the result-cache keys and the checkpoint digests all
 * derive from these rows, so adding a knob is one row.
 *
 * Each type has one validator, behind FieldAccess::set.  A wire
 * number goes back to its decimal text (wireText) and meets the same
 * check as a flag value, never a narrowing cast.  A canonical value
 * is the stored value rendered again, so "8K" and 8192 key alike.
 */

#ifndef MEMBW_SERVE_REQUEST_FIELDS_HH
#define MEMBW_SERVE_REQUEST_FIELDS_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "obs/json.hh"
#include "serve/decompose_service.hh"
#include "serve/sweep_service.hh"

namespace membw {

/** A field's CLI syntax, JSON type, validator and rendering. */
enum class FieldType : std::uint8_t
{
    Flag,     ///< CLI presence flag; JSON boolean
    Text,     ///< any string
    Choice,   ///< one of FieldSpec::choices
    Integer,  ///< whole number in [min, max]; JSON number
    Real,     ///< finite double; JSON number
    Size,     ///< byte size ("64K" or 65536); JSON string or number
    SizeList, ///< comma-separated byte sizes; JSON string
};

/** What a field changes: selects what a checkpoint digest covers
 * (the result-cache keys cover every field). */
enum class FieldRole : std::uint8_t
{
    Input,  ///< selects the trace or instruction stream
    Model,  ///< the simulated machine and what is computed
    Output, ///< shapes the output, picks a route or guards the run
};

/** A field's type with its example, range or choices. */
struct FieldSpec
{
    FieldType type = FieldType::Flag;
    const char *example = "";            ///< valid, non-default value
    std::uint64_t min = 0, max = 0;      ///< Integer range
    std::vector<const char *> choices{}; ///< in enumerator order
};

/** The member a row sets: set() validates text (a Flag's is "true"
 * or "false") and stores it; render() gives the canonical JSON. */
template <class Req>
struct FieldAccess
{
    std::optional<Error> (*set)(Req &, const FieldSpec &,
                                const std::string &text) = nullptr;
    std::string (*render)(const Req &, const FieldSpec &) = nullptr;
};

/** One row of a request table. */
template <class Req>
struct RequestField
{
    const char *wire;
    const char *flag; ///< tool flag; nullptr = client only
    FieldRole role;
    FieldSpec spec;
    FieldAccess<Req> at;
    const char *clientFlag = nullptr; ///< membw_client's, if not flag
    bool required = false; ///< a wire request must set it non-empty

    const char *client() const { return clientFlag ? clientFlag : flag; }
};

const std::vector<RequestField<SweepRequest>> &sweepFields();
const std::vector<RequestField<DecomposeRequest>> &decomposeFields();

/** JSON value @p v as flag text (whole numbers in decimal), or
 * fatal() naming field @p wire if its JSON type is wrong. */
std::string wireText(const FieldSpec &spec, const std::string &wire,
                     const JsonValue &v);

/** If @p arg is a tool flag (client flag) of @p fields, parse it and
 * its value, from @p next unless a Flag, into @p req, or fatal()
 * naming the flag and the row's example; the row, or nullptr. */
template <class Req, class Next>
const RequestField<Req> *
parseRequestFlag(const std::vector<RequestField<Req>> &fields, Req &req,
                 const std::string &arg, Next &&next, bool client = false)
{
    for (const RequestField<Req> &f : fields) {
        if (const char *name = client ? f.client() : f.flag;
            !name || arg != name)
            continue;
        const std::string text =
            f.spec.type == FieldType::Flag ? "true" : next();
        if (std::optional<Error> e = f.at.set(req, f.spec, text))
            badFlag(arg, text, *e, f.spec.example);
        return &f;
    }
    return nullptr;
}

/** The request in wire object @p doc (every member but "op");
 * fatal() on an unknown field, a bad value or an unset required one. */
template <class Req>
Req
parseWireFields(const JsonValue &doc,
                const std::vector<RequestField<Req>> &fields,
                const std::string &op)
{
    Req req;
    for (const auto &[key, value] : doc.object) {
        const RequestField<Req> *f = nullptr;
        for (const RequestField<Req> &row : fields)
            f = key == row.wire ? &row : f;
        // A typo must not fall back to the default: a client asking
        // for "no_colapse" must not get a collapsed sweep.
        if (!f && key != "op")
            fatal("unknown request field '" + key + "'");
        else if (auto e = f ? f->at.set(req, f->spec,
                                        wireText(f->spec, key, value))
                            : std::nullopt)
            fatal("request field '" + key + "': " + e->message);
    }
    // Required fields are strings or lists; unset, they render "".
    for (const RequestField<Req> &f : fields)
        if (f.required && f.at.render(req, f.spec) == "\"\"")
            fatal(op + " request requires a '" + f.wire + "' field");
    return req;
}

/** `"wire":value,...` over the fields whose role is in @p roles, in
 * table order: what the keys and checkpoint digests hash. */
template <class Req>
std::string
canonicalFields(const Req &req,
                const std::vector<RequestField<Req>> &fields,
                std::initializer_list<FieldRole> roles = {
                    FieldRole::Input, FieldRole::Model,
                    FieldRole::Output})
{
    std::string out;
    for (const RequestField<Req> &f : fields)
        for (FieldRole r : roles)
            if (r == f.role)
                out += (out.empty() ? "" : ",") + jsonEscape(f.wire) + ":" +
                       f.at.render(req, f.spec);
    return out;
}

} // namespace membw

#endif // MEMBW_SERVE_REQUEST_FIELDS_HH
