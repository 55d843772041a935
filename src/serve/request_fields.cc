#include "serve/request_fields.hh"

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/parse.hh"

namespace membw {

namespace {

Result<std::uint64_t>
parseInteger(const FieldSpec &spec, const std::string &text)
{
    Result<std::uint64_t> n = tryParseU64(text);
    if (n.ok() && (n.value() < spec.min || n.value() > spec.max))
        return makeError(Errc::BadValue,
                         "'" + text + "' is out of range [" +
                             std::to_string(spec.min) + ", " +
                             std::to_string(spec.max) + "]");
    return n;
}

/** Index of @p text in the choices: "expected wb or wt" otherwise. */
Result<std::size_t>
parseChoice(const FieldSpec &spec, const std::string &text)
{
    const std::size_t n = spec.choices.size();
    std::string expected = "expected ";
    for (std::size_t i = 0; i < n; ++i) {
        if (text == spec.choices[i])
            return i;
        expected += i == 0 ? "" : i + 1 < n ? ", " : n == 2 ? " or " : ", or ";
        expected += spec.choices[i];
    }
    return makeError(Errc::BadValue, expected);
}

/** The validators, by member type: text → @p out, or the error. */
template <class T>
std::optional<Error>
assign(T &out, const FieldSpec &spec, const std::string &text)
{
    auto store = [&](auto r) -> std::optional<Error> {
        if (!r.ok())
            return r.error();
        out = static_cast<T>(r.value());
        return std::nullopt;
    };
    if constexpr (std::is_same_v<T, bool>) {
        return store(Result<bool>(text == "true"));
    } else if constexpr (std::is_same_v<T, double>) {
        return store(tryParseDouble(text));
    } else if constexpr (std::is_same_v<T, std::vector<Bytes>>) {
        return store(tryParseSizeList(text));
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, unsigned>) {
        // Size fields are Bytes; every unsigned range ends below 2^32.
        return store(spec.type == FieldType::Size ? tryParseSize(text)
                                                  : parseInteger(spec, text));
    } else if constexpr (std::is_enum_v<T>) {
        return store(parseChoice(spec, text)); // choice index
    } else { // a string (Text or Choice) or the experiment letter
        if (spec.type == FieldType::Choice)
            if (Result<std::size_t> i = parseChoice(spec, text); !i.ok())
                return i.error();
        if constexpr (std::is_same_v<T, char>)
            out = text.at(0);
        else
            out = text;
        return std::nullopt;
    }
}

/** The canonical JSON rendering, by member type. */
template <class T>
std::string
render(const T &v, const FieldSpec &spec)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, double>) {
        return formatJsonNumber(v);
    } else if constexpr (std::is_same_v<T, std::vector<Bytes>>) {
        std::string list;
        for (Bytes b : v)
            list += (list.empty() ? "" : ",") + std::to_string(b);
        return jsonEscape(list);
    } else if constexpr (std::is_enum_v<T>) {
        return jsonEscape(spec.choices.at(static_cast<std::size_t>(v)));
    } else if constexpr (std::is_same_v<T, char>) {
        return jsonEscape(std::string(1, v));
    } else if constexpr (std::is_same_v<T, std::string>) {
        return jsonEscape(v);
    } else {
        return std::to_string(v);
    }
}

template <class C, class M>
C ownerOf(M C::*);

/** Access to the member at path First.Rest..., e.g.
 * at<&SweepRequest::l1, &CacheConfig::assoc>. */
template <auto First, auto... Rest>
constexpr FieldAccess<decltype(ownerOf(First))> at = {
    [](decltype(ownerOf(First)) &r, const FieldSpec &s,
       const std::string &text) {
        return assign(((r.*First) .* ... .* Rest), s, text);
    },
    [](const decltype(ownerOf(First)) &r, const FieldSpec &s) {
        return render(((r.*First) .* ... .* Rest), s);
    }};
/// The sweep's L1 template and the decompose overrides.
template <auto M>
constexpr auto l1 = at<&SweepRequest::l1, M>;
template <auto M>
constexpr auto ov = at<&DecomposeRequest::overrides, M>;

constexpr std::uint64_t anyU64 = std::numeric_limits<std::uint64_t>::max();
/// Top of the machine-count ranges (ways, stream buffers, MSHRs...).
constexpr std::uint64_t maxCount = 1 << 20;
constexpr bool required = true;

} // namespace

// Each row: wire name, tool flag, role, {type, example[, min, max]
// [, choices]}, member [, client flag where it differs, required].

const std::vector<RequestField<SweepRequest>> &
sweepFields()
{
    using S = SweepRequest;
    using C = CacheConfig;
    using enum FieldRole;
    using enum FieldType;
    static const std::vector<RequestField<S>> fields = {
        {"workload", "--workload", Input, {Text, "Swm"}, at<&S::workload>,
         nullptr, required},
        {"label", nullptr, Output, {Text, "Swm"}, at<&S::label>, "--label"},
        {"scale", "--scale", Input, {Real, "0.5"}, at<&S::scale>},
        {"seed", "--seed", Input, {Integer, "7", 0, anyU64}, at<&S::seed>},
        {"sizes", "--sweep-sizes", Model, {SizeList, "1K,64K,1M"},
         at<&S::sizes>, "--sizes", required},
        {"blocks", "--sweep-blocks", Model, {SizeList, "16,64"},
         at<&S::blocks>, "--blocks"},
        {"mtc", "--mtc", Model, {Flag}, at<&S::runMtc>},
        {"stable", "--stable-json", Output, {Flag}, at<&S::stableJson>},
        {"no_collapse", "--no-collapse", Output, {Flag}, at<&S::noCollapse>},
        {"no_partition", "--no-partition", Output, {Flag},
         at<&S::noPartition>},
        {"watchdog", "--watchdog", Output, {Integer, "100000", 0, anyU64},
         at<&S::eventBudget>},
        {"size", "--size", Model, {Size, "32K"}, l1<&C::size>},
        {"assoc", "--assoc", Model, {Integer, "4", 0, maxCount},
         l1<&C::assoc>},
        {"block", "--block", Model, {Size, "64"}, l1<&C::blockBytes>},
        {"sector", "--sector", Model, {Size, "16"}, l1<&C::sectorBytes>},
        {"repl", "--repl", Model,
         {Choice, "fifo", 0, 0, {"lru", "fifo", "random"}}, l1<&C::repl>},
        {"write", "--write", Model, {Choice, "wt", 0, 0, {"wb", "wt"}},
         l1<&C::write>},
        {"alloc", "--alloc", Model, {Choice, "wna", 0, 0, {"wa", "wna", "wv"}},
         l1<&C::alloc>},
        {"prefetch", "--prefetch", Model, {Flag}, l1<&C::taggedPrefetch>},
        {"stream_buffers", "--stream-buffers", Model,
         {Integer, "2", 0, maxCount}, l1<&C::streamBuffers>},
        {"stream_depth", "--stream-depth", Model, {Integer, "8", 0, maxCount},
         l1<&C::streamDepth>},
    };
    return fields;
}

const std::vector<RequestField<DecomposeRequest>> &
decomposeFields()
{
    using D = DecomposeRequest;
    using O = DecomposeOverrides;
    using enum FieldRole;
    using enum FieldType;
    static const std::vector<RequestField<D>> fields = {
        {"workload", "--workload", Input, {Text, "Swm"}, at<&D::workload>,
         nullptr, required},
        {"experiment", "--experiment", Model,
         {Choice, "C", 0, 0, {"A", "B", "C", "D", "E", "F"}}, at<&D::letter>},
        {"spec95", "--spec95", Model, {Flag}, at<&D::spec95>},
        {"scale", "--scale", Input, {Real, "0.25"}, at<&D::scale>},
        {"seed", "--seed", Input, {Integer, "7", 0, anyU64}, at<&D::seed>},
        {"stable", "--stable-json", Output, {Flag}, at<&D::stableJson>},
        {"watchdog", "--watchdog", Output, {Integer, "100000", 0, anyU64},
         at<&D::watchdogCycles>},
        {"mshrs", "--mshrs", Model, {Integer, "4", 1, maxCount},
         ov<&O::mshrs>},
        {"window", "--window", Model, {Integer, "32", 1, maxCount},
         ov<&O::window>},
        {"issue_width", "--issue-width", Model, {Integer, "4", 1, maxCount},
         ov<&O::width>},
        {"no_prefetch", "--no-prefetch", Model, {Flag}, ov<&O::noPrefetch>},
        {"l1l2_bus", "--l1l2-bus", Model, {Integer, "16", 1, maxCount},
         ov<&O::l1l2>},
        {"mem_bus", "--mem-bus", Model, {Integer, "8", 1, maxCount},
         ov<&O::membus>},
        {"dram", "--dram", Model,
         {Choice, "sdram", 0, 0, {"fpm", "edo", "sdram", "rdram"}},
         ov<&O::dram>},
    };
    return fields;
}

std::string
wireText(const FieldSpec &spec, const std::string &wire, const JsonValue &v)
{
    const bool flag = spec.type == FieldType::Flag;
    const bool number = spec.type == FieldType::Integer ||
                        spec.type == FieldType::Real ||
                        (spec.type == FieldType::Size && v.isNumber());
    if (flag ? v.kind != JsonValue::Kind::Bool
             : number ? !v.isNumber() : !v.isString())
        fatal("request field '" + wire + "' must be " +
              (flag ? "a boolean" : number ? "a number" : "a string"));
    if (flag)
        return v.boolean ? "true" : "false";
    // Whole numbers below 2^64 in decimal; the shortest round-trip
    // form otherwise, which no integer validator takes.
    const double d = v.number;
    return !number ? v.string
           : d >= 0 && d < 0x1p64 && d == std::floor(d)
               ? std::to_string(static_cast<std::uint64_t>(d))
               : formatJsonNumber(d);
}

} // namespace membw
