#include "fleet/scenario.hh"

#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "kernels/sweep.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "traffic/arbiter.hh"

namespace pva::fleet
{

namespace
{

[[noreturn]] void
fail(const std::string &detail)
{
    throw SimError(SimErrorKind::Config, "scenario", kNeverCycle,
                   detail);
}

/** The SystemConfig field a scenario key names; nullptr for other
 *  keys (configFields() marks which fields scenarios accept). */
const ConfigField *
scenarioField(const std::string &key)
{
    const ConfigField *f = findConfigField(key);
    return f && f->scenario ? f : nullptr;
}

/** Reject keys outside @p allowed (and, with @p config_keys, the
 *  scenario config fields) so typos fail loudly. */
void
checkKeys(const json::Value &obj, const char *where,
          std::initializer_list<const char *> allowed,
          bool config_keys = false)
{
    for (const auto &[key, value] : obj.object()) {
        bool known = config_keys && scenarioField(key);
        for (const char *a : allowed)
            known = known || key == a;
        if (!known) {
            fail(csprintf("unknown key '%s' in %s", key.c_str(),
                          where));
        }
    }
}

const json::Value &
requireObject(const json::Value &v, const char *where)
{
    if (!v.isObject())
        fail(csprintf("%s must be an object", where));
    return v;
}

std::uint64_t
u64Field(const json::Value &obj, const char *key, const char *where,
         std::uint64_t fallback)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return fallback;
    bool ok = true;
    std::uint64_t out = v->isNumber() ? v->asU64(ok) : (ok = false, 0);
    if (!ok) {
        fail(csprintf("%s.%s must be a non-negative integer", where,
                      key));
    }
    return out;
}

double
doubleField(const json::Value &obj, const char *key, const char *where,
            double fallback)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return fallback;
    bool ok = true;
    double out = v->isNumber() ? v->asDouble(ok) : (ok = false, 0.0);
    if (!ok)
        fail(csprintf("%s.%s must be a number", where, key));
    return out;
}

bool
boolField(const json::Value &obj, const char *key, const char *where,
          bool fallback)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return fallback;
    if (!v->isBool())
        fail(csprintf("%s.%s must be true or false", where, key));
    return v->boolean();
}

std::string
stringField(const json::Value &obj, const char *key, const char *where,
            const std::string &fallback)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return fallback;
    if (!v->isString())
        fail(csprintf("%s.%s must be a string", where, key));
    return v->string();
}

PatternConfig
parsePattern(const json::Value &v, const char *where)
{
    requireObject(v, where);
    checkKeys(v, where,
              {"regionBase", "regionWords", "minStride", "maxStride",
               "minLength", "maxLength", "readFraction", "indirect"});
    PatternConfig p;
    p.regionBase = u64Field(v, "regionBase", where, p.regionBase);
    p.regionWords = u64Field(v, "regionWords", where, p.regionWords);
    p.minStride = static_cast<std::uint32_t>(
        u64Field(v, "minStride", where, p.minStride));
    p.maxStride = static_cast<std::uint32_t>(
        u64Field(v, "maxStride", where, p.maxStride));
    p.minLength = static_cast<std::uint32_t>(
        u64Field(v, "minLength", where, p.minLength));
    p.maxLength = static_cast<std::uint32_t>(
        u64Field(v, "maxLength", where, p.maxLength));
    p.readFraction =
        doubleField(v, "readFraction", where, p.readFraction);
    if (p.readFraction < 0.0 || p.readFraction > 1.0)
        fail(csprintf("%s.readFraction must be in [0, 1]", where));
    if (boolField(v, "indirect", where, false))
        p.mode = VectorCommand::Mode::Indirect;
    return p;
}

StreamConfig
parseStream(const json::Value &v, const char *where,
            std::uint64_t default_seed)
{
    requireObject(v, where);
    checkKeys(v, where,
              {"mode", "window", "rate", "requests", "priority",
               "queueCap", "deadline", "seed", "pattern"});
    StreamConfig s;
    s.seed = default_seed;
    const std::string mode = stringField(v, "mode", where, "closed");
    if (mode == "closed") {
        s.mode = ArrivalMode::ClosedLoop;
    } else if (mode == "open") {
        s.mode = ArrivalMode::OpenLoop;
    } else {
        fail(csprintf("%s.mode must be \"closed\" or \"open\", not "
                      "\"%s\"",
                      where, mode.c_str()));
    }
    s.window =
        static_cast<unsigned>(u64Field(v, "window", where, s.window));
    s.requestsPerKilocycle =
        doubleField(v, "rate", where, s.requestsPerKilocycle);
    s.requests = u64Field(v, "requests", where, s.requests);
    s.priority = static_cast<unsigned>(
        u64Field(v, "priority", where, s.priority));
    s.queueCapacity = static_cast<unsigned>(
        u64Field(v, "queueCap", where, s.queueCapacity));
    s.deadline = u64Field(v, "deadline", where, s.deadline);
    s.seed = u64Field(v, "seed", where, s.seed);
    if (const json::Value *p = v.find("pattern"))
        s.pattern = parsePattern(*p, where);
    return s;
}

TenantSpec
parseTenant(const json::Value &v, const char *where,
            std::uint64_t default_seed)
{
    requireObject(v, where);
    checkKeys(v, where,
              {"name", "count", "streamsPerTenant", "regionStrideWords",
               "stream"});
    TenantSpec spec;
    spec.name = stringField(v, "name", where, spec.name);
    spec.count =
        static_cast<unsigned>(u64Field(v, "count", where, spec.count));
    spec.streamsPerTenant = static_cast<unsigned>(u64Field(
        v, "streamsPerTenant", where, spec.streamsPerTenant));
    spec.regionStrideWords =
        u64Field(v, "regionStrideWords", where, spec.regionStrideWords);
    spec.stream.seed = default_seed;
    if (const json::Value *s = v.find("stream"))
        spec.stream = parseStream(*s, where, default_seed);
    if (spec.count == 0)
        fail(csprintf("%s.count must be at least 1", where));
    if (spec.streamsPerTenant == 0)
        fail(csprintf("%s.streamsPerTenant must be at least 1", where));
    return spec;
}

} // anonymous namespace

Scenario
parseScenario(const json::Value &doc)
{
    requireObject(doc, "scenario");
    checkKeys(doc, "scenario",
              {"kind", "name", "system", "policy", "aging", "shards",
               "seed", "maxCycles", "perStreamStats", "shed", "tenants"},
              true);

    const std::string kind = stringField(doc, "kind", "scenario", "");
    if (kind != "fleet") {
        fail(csprintf("scenario.kind must be \"fleet\", not \"%s\"",
                      kind.c_str()));
    }

    Scenario sc;
    sc.name = stringField(doc, "name", "scenario", sc.name);
    FleetConfig &fc = sc.config;

    const std::string system =
        stringField(doc, "system", "scenario", "pva");
    if (!systemByShortName(system, fc.system))
        fail(csprintf("unknown scenario.system '%s'", system.c_str()));

    const std::string policy =
        stringField(doc, "policy", "scenario", "fifo");
    if (!parseArbPolicy(policy, fc.arbiter.policy)) {
        fail(csprintf("unknown scenario.policy '%s' "
                      "(try: fifo rr priority)",
                      policy.c_str()));
    }
    fc.arbiter.agingThreshold =
        u64Field(doc, "aging", "scenario", fc.arbiter.agingThreshold);

    for (const auto &[key, value] : doc.object()) {
        const ConfigField *f = scenarioField(key);
        if (f && !setConfigField(*f, fc.config, value)) {
            fail(csprintf("scenario.%s must be %s, not '%s'", f->name,
                          expectedValue(*f).c_str(),
                          value.string().c_str()));
        }
    }

    fc.shards = static_cast<unsigned>(
        u64Field(doc, "shards", "scenario", 1));
    if (fc.shards == 0)
        fail("scenario.shards must be at least 1");
    fc.limits.maxCycles =
        u64Field(doc, "maxCycles", "scenario", fc.limits.maxCycles);
    fc.perStreamStats = boolField(doc, "perStreamStats", "scenario",
                                  fc.perStreamStats);
    const std::uint64_t seed = u64Field(doc, "seed", "scenario", 1);

    if (const json::Value *shed = doc.find("shed")) {
        requireObject(*shed, "scenario.shed");
        checkKeys(*shed, "scenario.shed",
                  {"enabled", "deadline", "watermark"});
        fc.arbiter.shed.enabled =
            boolField(*shed, "enabled", "scenario.shed", true);
        fc.arbiter.shed.defaultDeadline = u64Field(
            *shed, "deadline", "scenario.shed",
            fc.arbiter.shed.defaultDeadline);
        fc.arbiter.shed.queueHighWatermark = doubleField(
            *shed, "watermark", "scenario.shed",
            fc.arbiter.shed.queueHighWatermark);
    }

    const json::Value *tenants = doc.find("tenants");
    if (!tenants || !tenants->isArray() || tenants->array().empty())
        fail("scenario.tenants must be a non-empty array");
    for (std::size_t i = 0; i < tenants->array().size(); ++i) {
        fc.tenants.push_back(
            parseTenant(tenants->array()[i],
                        csprintf("scenario.tenants[%zu]", i).c_str(),
                        seed));
    }
    return sc;
}

Scenario
parseScenarioText(const std::string &text)
{
    json::Value doc;
    std::string error;
    if (!json::parse(text, doc, error)) {
        fail(csprintf("scenario JSON parse failed: %s",
                      error.c_str()));
    }
    return parseScenario(doc);
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        fail(csprintf("cannot open scenario file '%s'", path.c_str()));
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        fail(csprintf("error reading scenario file '%s'",
                      path.c_str()));
    }
    return parseScenarioText(buf.str());
}

void
writeScenarioResult(std::ostream &os, const Scenario &scenario,
                    const FleetResult &result)
{
    os << "{\"schemaVersion\": 1, \"tool\": \"pva_loadgen\", "
          "\"scenario\": \""
       << json::escape(scenario.name) << "\", \"fleet\": ";
    result.dumpJson(os);
    os << "}\n";
}

} // namespace pva::fleet
