#include "core/system_config.hh"

#include <array>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "sim/json.hh"

namespace pva
{

namespace
{

/** @name Canonical text of each field type @{ */
std::string text(unsigned v) { return std::to_string(v); }
std::string text(std::uint64_t v) { return std::to_string(v); }
std::string text(bool v) { return v ? "true" : "false"; }
std::string text(ClockingMode v) { return clockingModeName(v); }
std::string text(MemBackend v) { return backendName(v); }

std::string
text(RowPolicy v)
{
    return v == RowPolicy::Managed      ? "managed"
           : v == RowPolicy::AlwaysOpen ? "open"
                                        : "close";
}

std::string
text(FirstHitPla::Variant v)
{
    return v == FirstHitPla::Variant::FullKi ? "fullki" : "k1multiply";
}

std::string
text(double v)
{
    char buf[32]; // shortest text that parses back to the same double
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}
/** @} */

/** @name Strict parsers: the whole text, no sign or blanks @{ */
using Text = const std::string &;

template <typename Number>
bool
parse(Text s, Number &out)
{
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && end == s.data() + s.size();
}

/** Match @p s against text() of each of @p all. */
template <typename E>
bool
parseByName(Text s, E &out, std::initializer_list<E> all)
{
    for (E e : all) {
        if (s == text(e)) {
            out = e;
            return true;
        }
    }
    return false;
}

bool parse(Text s, bool &v) { return parseByName(s, v, {false, true}); }
bool parse(Text s, ClockingMode &v) { return parseClockingMode(s, v); }
bool parse(Text s, MemBackend &v) { return parseMemBackend(s, v); }

bool
parse(Text s, RowPolicy &v)
{
    return parseByName(s, v, {RowPolicy::Managed, RowPolicy::AlwaysOpen,
                              RowPolicy::AlwaysClose});
}

bool
parse(Text s, FirstHitPla::Variant &v)
{
    return parseByName(s, v, {FirstHitPla::Variant::FullKi,
                              FirstHitPla::Variant::K1Multiply});
}
/** @} */

/** Complete @p f as the entry for the member at the member-pointer
 *  path @p Path, e.g. <&SystemConfig::timing, &SdramTiming::tRCD>. */
template <auto... Path>
ConfigField
leaf(ConfigField f)
{
    using V = std::remove_cvref_t<decltype((
        std::declval<SystemConfig &>() .* ... .* Path))>;
    using Type = ConfigField::Type;
    f.type = std::is_same_v<V, bool>            ? Type::Bool
             : std::is_enum_v<V>                ? Type::Enum
             : std::is_same_v<V, double>        ? Type::Real
             : std::is_same_v<V, std::uint64_t> ? Type::U64
                                                : Type::Unsigned;
    f.get = [](const SystemConfig &c) { return text((c .* ... .* Path)); };
    f.set = [](SystemConfig &c, Text s) {
        return parse(s, (c .* ... .* Path));
    };
    if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
        f.number = [](const SystemConfig &c) {
            return static_cast<double>((c .* ... .* Path));
        };
    }
    return f;
}

/** Geometry's constructor parameters, in constructor order. */
std::array<unsigned, 5>
geometryParams(const Geometry &g)
{
    return {g.banks(), g.interleave(), g.colBits(), g.ibankBits(),
            g.rowBits()};
}

/** Complete @p f as the entry for Geometry constructor parameter
 *  @p Index; setting it rebuilds the Geometry around the others. */
template <std::size_t Index>
ConfigField
geometryLeaf(ConfigField f)
{
    f.get = [](const SystemConfig &c) {
        return text(geometryParams(c.geometry)[Index]);
    };
    f.set = [](SystemConfig &c, Text s) {
        std::array<unsigned, 5> p = geometryParams(c.geometry);
        if (!parse(s, p[Index]))
            return false;
        c.geometry = Geometry(p[0], p[1], p[2], p[3], p[4]);
        return true;
    };
    f.number = [](const SystemConfig &c) {
        return static_cast<double>(geometryParams(c.geometry)[Index]);
    };
    return f;
}

using S = SystemConfig;
using T = SdramTiming;
using B = BcConfig;
using F = FaultPlan;
constexpr double kNoMax = ConfigField{}.max; // an unsigned field's own limit

} // anonymous namespace

const std::vector<ConfigField> &
configFields()
{
    // {name, doc, min, max, flag, form, scenario}; timings are in
    // cycles. The address bit widths are capped so a word address fits
    // in 64 bits.
    static const std::vector<ConfigField> table = {
        geometryLeaf<0>({"banks", "external bank count (power of two)", 1,
                         kNoMax, "--banks"}),
        geometryLeaf<1>({"interleave", "words per consecutive block in one "
                         "bank (power of two)", 1, kNoMax, "--interleave"}),
        geometryLeaf<2>({"colBits", "column bits per internal bank", 0, 24}),
        geometryLeaf<3>({"ibankBits", "internal-bank bits (2 = 4 banks)", 0,
                         8}),
        geometryLeaf<4>({"rowBits", "row address bits", 0, 24}),

        leaf<&S::timing, &T::tRCD>({"tRCD", "activate to read/write", 1}),
        leaf<&S::timing, &T::tCL>({"tCL", "read command to data", 1}),
        leaf<&S::timing, &T::tRP>({"tRP", "precharge to activate", 1}),
        leaf<&S::timing, &T::tRAS>({"tRAS", "activate to precharge", 1}),
        leaf<&S::timing, &T::tRC>({"tRC", "activate to activate, same "
                                   "internal bank"}),
        leaf<&S::timing, &T::tWR>({"tWR", "write data to precharge"}),
        leaf<&S::timing, &T::tREFI>({"tREFI", "auto-refresh interval in "
                                     "cycles (0 = off)", 0, kNoMax,
                                     "--refresh", "TREFI"}),
        leaf<&S::timing, &T::tRFC>({"tRFC", "refresh cycle time, all "
                                    "banks busy"}),

        leaf<&S::bc, &B::fifoEntries>({"fifoEntries", "request FIFO depth",
                                       1}),
        leaf<&S::bc, &B::vectorContexts>({"vectorContexts", "vector "
                                          "contexts per bank controller",
                                          1, kNoMax, "--vcs"}),
        leaf<&S::bc, &B::lineWords>({"lineWords", "elements per cache-line "
                                     "command (even)", 2}),
        leaf<&S::bc, &B::transactions>({"transactions", "outstanding bus "
                                        "transactions", 1, 255}),
        leaf<&S::bc, &B::fhcLatency>({"fhcLatency", "FirstHit "
                                      "multiply-and-add cycles"}),
        leaf<&S::bc, &B::bypassEnabled>({"bypassEnabled", "section 5.2.3 "
                                         "bypass paths"}),
        leaf<&S::bc, &B::rowPolicy>({"rowPolicy", "bank-controller row "
                                     "management policy", 0, 0,
                                     "--row-policy", "managed|open|close"}),
        leaf<&S::bc, &B::plaVariant>({"plaVariant", "FirstHit PLA variant",
                                      0, 0, nullptr, "fullki|k1multiply"}),

        leaf<&S::maxOutstanding>({"maxOutstanding", "outstanding "
                                  "transactions of the serial baselines",
                                  1}),
        leaf<&S::optimisticLineReuse>({"optimisticLineReuse", "cache-line "
                                       "baseline reuses lines"}),
        leaf<&S::timingCheck>({"check", "attach the redundant timing/data "
                               "checker", 0, 0, "--check", nullptr, true}),

        leaf<&S::faults, &F::seed>({"faultSeed", "fault-injection RNG seed",
                                    0, 1.8446744073709552e19,
                                    "--fault-seed"}),
        leaf<&S::faults, &F::refreshStallRate>({"refreshStallRate",
            "refresh-stall fault rate", 0, 1, "--fault-refresh", "R"}),
        leaf<&S::faults, &F::bcStallRate>({"bcStallRate",
            "bank-controller stall fault rate", 0, 1, "--fault-bc-stall",
            "R"}),
        leaf<&S::faults, &F::dropTransferRate>({"dropTransferRate",
            "dropped-transfer fault rate", 0, 1, "--fault-drop", "R"}),
        leaf<&S::faults, &F::corruptFirstHitRate>({"corruptFirstHitRate",
            "FirstHit corruption fault rate", 0, 1, "--fault-corrupt",
            "R"}),

        leaf<&S::clocking>({"clocking", "simulation clocking discipline", 0,
                            0, "--clocking", "exhaustive|event", true}),
        leaf<&S::batchTicking>({"batchTicking", "batched bank-controller "
                                "ticking (off = tick every BC every cycle, "
                                "the reference behaviour)", 0, 0,
                                "--batching", "on|off"}),
        leaf<&S::backend>({"backend", "memory-device backend "
                           "(docs/DEVICE.md)", 0, 0, "--backend",
                           "legacy|salp|deferred", true}),
        leaf<&S::salpSubarrays>({"subarrays", "row-buffer subarrays per "
                                 "internal bank (salp backend)", 0, kNoMax,
                                 "--subarrays", "N", true}),
        leaf<&S::refreshDeferWindow>({"refreshWindow", "max cycles a "
                                      "refresh may move (deferred backend; "
                                      "0 = tREFI/2)", 0, kNoMax,
                                      "--refresh-window", "N", true}),
    };
    return table;
}

const ConfigField *
findConfigField(const std::string &name)
{
    for (const ConfigField &f : configFields()) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

std::string
expectedValue(const ConfigField &field)
{
    using Type = ConfigField::Type;
    return field.type == Type::Enum   ? std::string("one of ") + field.form
           : field.type == Type::Bool ? "true or false"
           : field.type == Type::Real ? "a number"
                                      : "a non-negative integer";
}

void
writeConfigJson(json::Writer &w, const SystemConfig &config)
{
    for (const ConfigField &f : configFields()) {
        if (f.type == ConfigField::Type::Enum)
            w.member(f.name, f.get(config));
        else
            w.key(f.name).raw(f.get(config));
    }
}

std::string
canonicalConfigText(const SystemConfig &config)
{
    std::string s;
    for (const ConfigField &f : configFields())
        s += std::string(f.name) + '=' + f.get(config) + ';';
    return s;
}

bool
setConfigField(const ConfigField &field, SystemConfig &config,
               const json::Value &value)
{
    switch (field.type) {
      case ConfigField::Type::Bool:
        return value.isBool() && field.set(config, text(value.boolean()));
      case ConfigField::Type::Enum:
        return value.isString() && field.set(config, value.string());
      default:
        return value.isNumber() && field.set(config, value.numberText());
    }
}

void
SystemConfig::validate() const
{
    auto reject = [](const std::string &detail) {
        throw SimError(SimErrorKind::Config, "config", kNeverCycle,
                       detail);
    };
    for (const ConfigField &f : configFields()) {
        const double v = f.number ? f.number(*this) : 0.0;
        if (!(v >= f.min && v <= f.max)) {
            reject(csprintf("%s = %s outside [%.17g, %.17g]", f.name,
                            f.get(*this).c_str(), f.min, f.max));
        }
    }
    if (bc.lineWords % 2 != 0)
        reject(csprintf("lineWords %u must be even (two words per bus "
                        "data cycle)", bc.lineWords));
    if (geometry.interleave() > bc.lineWords)
        reject(csprintf("interleave factor %u exceeds the %u-word "
                        "cache line", geometry.interleave(),
                        bc.lineWords));
    if (timing.tRC < timing.tRAS)
        reject(csprintf("tRC %u shorter than tRAS %u (activate-to-"
                        "activate cannot beat activate-to-"
                        "precharge)", timing.tRC, timing.tRAS));
    if (timing.tREFI != 0 && timing.tRFC == 0)
        reject("tRFC must be nonzero when tREFI refresh is enabled");
    // Backend knobs: resolving throws SimError(Config) naming the
    // offending field on any unsupportable combination.
    (void)backendPolicy();
}

} // namespace pva
