/**
 * @file
 * SystemConfig field-table tests (docs/API.md). Every configFields()
 * entry, set to a valid non-default value, must survive every
 * serialized form: a repro capsule write/load, the journal
 * fingerprint, the JSON envelope, its tool flag and its fleet-scenario
 * key. The input surfaces are pinned to exactly their documented
 * flags and keys, and capsules refuse to load when their stored
 * fingerprint no longer matches their content.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "expect_sim_error.hh"
#include "fleet/scenario.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/sweep_journal.hh"
#include "sim/json.hh"
#include "tool_app.hh"

namespace pva
{
namespace
{

std::vector<std::string>
splitBars(const std::string &form)
{
    std::vector<std::string> out;
    std::istringstream in(form);
    for (std::string item; std::getline(in, item, '|');)
        out.push_back(item);
    return out;
}

/** Candidate texts for a non-default value of @p f. */
std::vector<std::string>
candidates(const ConfigField &f, const SystemConfig &def)
{
    switch (f.type) {
      case ConfigField::Type::Unsigned:
      case ConfigField::Type::U64: {
        const unsigned long long d = std::stoull(f.get(def));
        return {std::to_string(2 * d), std::to_string(d + 1), "1", "2"};
      }
      case ConfigField::Type::Real:
        return {"0.5", "0.25"};
      case ConfigField::Type::Bool:
        return {f.get(def) == "true" ? "false" : "true"};
      case ConfigField::Type::Enum:
        return splitBars(f.form);
    }
    return {};
}

/** The default config with @p f set to the first candidate that
 *  differs from the default and still validates. */
SystemConfig
sampleConfig(const ConfigField &f)
{
    const SystemConfig def;
    for (const std::string &text : candidates(f, def)) {
        SystemConfig c;
        try {
            if (!f.set(c, text) || c == def)
                continue;
            c.validate();
            return c;
        } catch (const SimError &) {
        }
    }
    ADD_FAILURE() << "no valid non-default value for " << f.name;
    return def;
}

/** @p f's value in @p c as a JSON literal. */
std::string
jsonValue(const ConfigField &f, const SystemConfig &c)
{
    return f.type == ConfigField::Type::Enum ? '"' + f.get(c) + '"'
                                             : f.get(c);
}

const ConfigField &
field(const std::string &name)
{
    const ConfigField *f = findConfigField(name);
    EXPECT_NE(f, nullptr) << name;
    return *f;
}

std::string
capsulePath(const std::string &tag)
{
    return testing::TempDir() + "system_config_" + tag + ".json";
}

ReproCapsule
capsuleFor(const SystemConfig &config)
{
    ReproCapsule capsule;
    capsule.request.config = config;
    capsule.request.limits.clocking = config.clocking;
    capsule.attempts = 1;
    capsule.error = "[corruption] example";
    capsule.fingerprint = fingerprintRequest(capsule.request);
    return capsule;
}

/** Names of the fields @p keep selects (all of them by default). */
std::vector<std::string>
fieldNames(bool (*keep)(const ConfigField &) = nullptr)
{
    std::vector<std::string> names;
    for (const ConfigField &f : configFields()) {
        if (!keep || keep(f))
            names.push_back(f.name);
    }
    return names;
}

std::string
paramName(const testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

class ConfigFieldRoundTrip : public testing::TestWithParam<std::string>
{
};
class ConfigFieldFlag : public testing::TestWithParam<std::string>
{
};
class ConfigFieldScenarioKey : public testing::TestWithParam<std::string>
{
};

TEST_P(ConfigFieldRoundTrip, CapsuleReloadsTheSameConfig)
{
    const ConfigField &f = field(GetParam());
    const SystemConfig cfg = sampleConfig(f);
    const std::string path = capsulePath(f.name);
    writeCapsuleFile(path, capsuleFor(cfg));
    const ReproCapsule loaded = loadCapsule(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.request.config, cfg) << f.name << " = " << f.get(cfg);
    EXPECT_EQ(f.get(loaded.request.config), f.get(cfg));
}

TEST_P(ConfigFieldRoundTrip, FingerprintCoversTheField)
{
    const ConfigField &f = field(GetParam());
    const SystemConfig cfg = sampleConfig(f);
    EXPECT_NE(fingerprintConfig(cfg), fingerprintConfig(SystemConfig{}));
    const std::string path = capsulePath(std::string("fp_") + f.name);
    writeCapsuleFile(path, capsuleFor(cfg));
    const ReproCapsule loaded = loadCapsule(path);
    std::remove(path.c_str());
    EXPECT_EQ(fingerprintConfig(loaded.request.config),
              fingerprintConfig(cfg));
}

TEST_P(ConfigFieldRoundTrip, EnvelopeCarriesTheValue)
{
    const ConfigField &f = field(GetParam());
    const SystemConfig cfg = sampleConfig(f);
    tools::ToolApp app("roundtrip");
    std::ostringstream os;
    {
        tools::JsonEnvelope env(os, app, cfg);
    }
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), doc, error)) << error;
    const json::Value *config = doc.find("config");
    ASSERT_NE(config, nullptr);
    const json::Value *value = config->find(f.name);
    ASSERT_NE(value, nullptr) << os.str();
    SystemConfig back;
    ASSERT_TRUE(setConfigField(f, back, *value));
    EXPECT_EQ(f.get(back), f.get(cfg));
}

TEST_P(ConfigFieldFlag, ParsingTheFlagSetsTheField)
{
    const ConfigField &f = field(GetParam());
    const SystemConfig cfg = sampleConfig(f);
    std::vector<std::string> args = {"roundtrip", f.flag};
    if (f.form) {
        const bool onOff = f.type == ConfigField::Type::Bool;
        args.push_back(onOff ? (f.get(cfg) == "true" ? "on" : "off")
                             : f.get(cfg));
    }
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    SystemConfig parsed;
    tools::ToolApp app("roundtrip");
    app.addSystemFlags(parsed);
    app.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(parsed, cfg);
}

TEST_P(ConfigFieldScenarioKey, ScenarioSetsTheField)
{
    const ConfigField &f = field(GetParam());
    const SystemConfig cfg = sampleConfig(f);
    const fleet::Scenario sc = fleet::parseScenarioText(
        std::string("{\"kind\": \"fleet\", \"tenants\": [{}], \"") +
        f.name + "\": " + jsonValue(f, cfg) + "}");
    EXPECT_EQ(sc.config.config, cfg);
}

INSTANTIATE_TEST_SUITE_P(AllFields, ConfigFieldRoundTrip,
                         testing::ValuesIn(fieldNames()), paramName);
INSTANTIATE_TEST_SUITE_P(
    FlagFields, ConfigFieldFlag,
    testing::ValuesIn(fieldNames(
        [](const ConfigField &f) { return f.flag != nullptr; })),
    paramName);
INSTANTIATE_TEST_SUITE_P(
    ScenarioFields, ConfigFieldScenarioKey,
    testing::ValuesIn(
        fieldNames([](const ConfigField &f) { return f.scenario; })),
    paramName);

TEST(ConfigFields, OneEntryPerLeafWithUniqueNames)
{
    const std::vector<std::string> names = fieldNames();
    EXPECT_EQ(names.size(), 34u); // geometry 5, timing 8, bc 8,
                                  // faults 5, top level 8
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
    for (const ConfigField &f : configFields()) {
        EXPECT_NE(f.doc, nullptr) << f.name;
        EXPECT_TRUE(f.get && f.set) << f.name;
    }
}

TEST(ConfigFields, InputSurfacesKeepTheirDocumentedSpellings)
{
    std::set<std::string> flags, keys;
    for (const ConfigField &f : configFields()) {
        if (f.flag)
            flags.insert(std::string(f.flag) + " " + (f.form ? f.form : ""));
        if (f.scenario)
            keys.insert(f.name);
    }
    EXPECT_EQ(flags,
              (std::set<std::string>{
                  "--banks N", "--interleave N", "--vcs N",
                  "--row-policy managed|open|close", "--refresh TREFI",
                  "--backend legacy|salp|deferred", "--subarrays N",
                  "--refresh-window N", "--clocking exhaustive|event",
                  "--check ", "--batching on|off", "--fault-seed N",
                  "--fault-refresh R", "--fault-bc-stall R",
                  "--fault-drop R", "--fault-corrupt R"}));
    EXPECT_EQ(keys, (std::set<std::string>{"clocking", "backend",
                                           "subarrays", "refreshWindow",
                                           "check"}));
}

/** One markdown catalogue row for @p f (docs/API.md). */
std::string
catalogueRow(const ConfigField &f)
{
    std::string value, range;
    switch (f.type) {
      case ConfigField::Type::Unsigned:
      case ConfigField::Type::U64:
        value = "integer";
        break;
      case ConfigField::Type::Real:
        value = "number";
        break;
      case ConfigField::Type::Bool:
        value = "`true`, `false`";
        break;
      case ConfigField::Type::Enum:
        for (const std::string &name : splitBars(f.form))
            value += (value.empty() ? "`" : ", `") + name + "`";
        break;
    }
    if (f.type == ConfigField::Type::Unsigned ||
        f.type == ConfigField::Type::Real) {
        const ConfigField unbounded;
        if (f.max != unbounded.max)
            range = csprintf("%g..%g", f.min, f.max);
        else if (f.min != 0)
            range = csprintf(">= %g", f.min);
    }
    return csprintf("| `%s` | %s | %s | %s | %s | %s |", f.name,
                    value.c_str(),
                    f.flag ? csprintf("`%s`", f.flag).c_str() : "",
                    f.scenario ? "yes" : "", range.c_str(), f.doc);
}

TEST(ConfigFields, ApiDocCatalogueMatchesTheTable)
{
    std::string want;
    for (const ConfigField &f : configFields())
        want += catalogueRow(f) + "\n";
    std::ifstream in(std::string(PVA_SOURCE_DIR) + "/docs/API.md");
    ASSERT_TRUE(in) << "cannot read docs/API.md";
    std::ostringstream doc;
    doc << in.rdbuf();
    const std::string text = doc.str();
    const std::string begin = "<!-- config-fields:begin -->\n";
    const std::string end = "<!-- config-fields:end -->";
    const std::size_t b = text.find(begin);
    const std::size_t e = text.find(end);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(e, std::string::npos);
    const std::string block = text.substr(b + begin.size(),
                                          e - b - begin.size());
    // Skip the two header lines of the markdown table.
    std::size_t rows = block.find('\n', block.find('\n') + 1) + 1;
    EXPECT_EQ(block.substr(rows), want)
        << "regenerate the docs/API.md catalogue rows:\n" << want;
}

TEST(ConfigFields, ValidateChecksTheTableRanges)
{
    SystemConfig c;
    c.bc.fifoEntries = 0;
    test::expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                         "fifoEntries = 0 outside [1, 4294967295]");
    SystemConfig r;
    r.faults.bcStallRate = 2.0;
    test::expectSimError([&] { r.validate(); }, SimErrorKind::Config,
                         "bcStallRate = 2 outside [0, 1]");
}

TEST(ReproCapsuleSelfCheck, SalpCapsuleRoundTripsItsBackend)
{
    SystemConfig cfg;
    cfg.backend = MemBackend::Salp;
    cfg.salpSubarrays = 8;
    cfg.refreshDeferWindow = 77;
    const std::string path = capsulePath("salp");
    const ReproCapsule written = capsuleFor(cfg);
    writeCapsuleFile(path, written);
    const ReproCapsule loaded = loadCapsule(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.request.config.backend, MemBackend::Salp);
    EXPECT_EQ(loaded.request.config.salpSubarrays, 8u);
    EXPECT_EQ(loaded.request.config.refreshDeferWindow, 77u);
    EXPECT_EQ(loaded.fingerprint, written.fingerprint);
}

TEST(ReproCapsuleSelfCheck, HandEditedCapsuleIsRefused)
{
    SystemConfig cfg;
    cfg.backend = MemBackend::Salp;
    cfg.salpSubarrays = 8;
    const ReproCapsule capsule = capsuleFor(cfg);
    std::ostringstream os;
    writeCapsule(os, capsule);
    std::string text = os.str();
    const std::string from = "\"subarrays\": 8";
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, from.size(), "\"subarrays\": 4");

    const std::string path = capsulePath("tampered");
    std::ofstream(path, std::ios::binary) << text;
    SweepRequest edited = capsule.request;
    edited.config.salpSubarrays = 4;
    const std::string stored = csprintf(
        "%016llx", static_cast<unsigned long long>(capsule.fingerprint));
    const std::string recomputed = csprintf(
        "%016llx",
        static_cast<unsigned long long>(fingerprintRequest(edited)));
    test::expectSimError([&] { loadCapsule(path); },
                         SimErrorKind::Corruption, stored);
    test::expectSimError([&] { loadCapsule(path); },
                         SimErrorKind::Corruption, recomputed);
    std::remove(path.c_str());
}

TEST(ReproCapsuleSelfCheck, VersionOneCapsulesAreRefused)
{
    std::ostringstream os;
    writeCapsule(os, capsuleFor(SystemConfig{}));
    std::string text = os.str();
    const std::string from = "\"schemaVersion\": 2";
    ASSERT_EQ(text.find(from), 4u) << text;
    text.replace(text.find(from), from.size(), "\"schemaVersion\": 1");
    const std::string path = capsulePath("v1");
    std::ofstream(path, std::ios::binary) << text;
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "schemaVersion 1, expected 2");
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace pva
