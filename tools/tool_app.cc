#include "tool_app.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>

#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva::tools
{

namespace
{

unsigned long long
parseNum(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0')
        fatal("%s expects a number, got '%s'", flag.c_str(),
              value.c_str());
    return n;
}

double
parseReal(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    double d = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0')
        fatal("%s expects a number, got '%s'", flag.c_str(),
              value.c_str());
    return d;
}

} // anonymous namespace

/**
 * The live trace session, kept behind a pointer so untraced builds
 * need no trace types at all and ToolApp's layout is identical in
 * both configurations.
 */
struct ToolApp::TraceState
{
#if PVA_TRACE_ENABLED
    std::optional<trace::TraceSession> session;
#endif
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

ToolApp::ToolApp(std::string tool_name)
    : name(std::move(tool_name)),
      traceState(std::make_unique<TraceState>())
{
}

ToolApp::~ToolApp() = default;

void
ToolApp::add(const char *flag_name, const char *metavar, const char *help,
             Apply apply)
{
    specs.push_back({flag_name, metavar ? metavar : "", help,
                     std::move(apply), metavar != nullptr});
}

void
ToolApp::flag(const char *flag_name, const char *help,
              std::function<void()> handler)
{
    add(flag_name, nullptr, help,
        [handler = std::move(handler)](const std::string &,
                                       const std::string &) { handler(); });
}

void
ToolApp::option(const char *flag_name, const char *metavar,
                const char *help,
                std::function<void(const std::string &)> handler)
{
    add(flag_name, metavar, help,
        [handler = std::move(handler)](const std::string &,
                                       const std::string &v) { handler(v); });
}

void
ToolApp::numOption(const char *flag_name, const char *metavar,
                   const char *help,
                   std::function<void(unsigned long long)> handler)
{
    add(flag_name, metavar, help,
        [handler = std::move(handler)](const std::string &f,
                                       const std::string &v) {
            handler(parseNum(f, v));
        });
}

void
ToolApp::realOption(const char *flag_name, const char *metavar,
                    const char *help,
                    std::function<void(double)> handler)
{
    add(flag_name, metavar, help,
        [handler = std::move(handler)](const std::string &f,
                                       const std::string &v) {
            handler(parseReal(f, v));
        });
}

void
ToolApp::positional(const char *metavar,
                    std::function<void(const std::string &)> handler)
{
    positionalMetavar = metavar;
    positionalHandler = std::move(handler);
}

void
ToolApp::addSystemFlags(SystemConfig &config)
{
    configToValidate = &config;
    for (const ConfigField &f : configFields()) {
        if (!f.flag)
            continue;
        add(f.flag, f.form, f.doc, [&f, &config](const std::string &flag,
                                                 const std::string &value) {
            // A switch sets true; a valued boolean is spelt on|off.
            std::string text = value;
            if (f.type == ConfigField::Type::Bool) {
                text = (!f.form || value == "on") ? "true"
                       : value == "off"         ? "false"
                                                : "";
            }
            if (!f.set(config, text)) {
                fatal("%s expects %s, got '%s'", flag.c_str(),
                      f.type == ConfigField::Type::Bool
                          ? "on or off"
                          : expectedValue(f).c_str(),
                      value.c_str());
            }
        });
    }
}

void
ToolApp::addWorkloadFlags(ToolOptions &opts)
{
    option("--kernel", "NAME",
           "benchmark kernel (copy saxpy scale swap tridiag vaxpy "
           "copy2 scale2)",
           [&opts](const std::string &v) { opts.kernel = v; });
    numOption("--stride", "N", "element stride in words",
              [&opts](unsigned long long n) { opts.stride = n; });
    numOption("--alignment", "0-4", "stream base alignment preset",
              [&opts](unsigned long long n) { opts.alignment = n; });
    option("--system", "pva|cacheline|gathering|sram",
           "memory system under test",
           [&opts](const std::string &v) { opts.system = v; });
    numOption("--elements", "N", "vector elements per stream",
              [&opts](unsigned long long n) { opts.elements = n; });
}

void
ToolApp::addExecutorFlags(unsigned &jobs, unsigned &retries,
                          double &point_timeout)
{
    numOption("--jobs", "N", "sweep workers (0 = hardware threads)",
              [&jobs](unsigned long long n) { jobs = n; });
    numOption("--retries", "N", "attempt budget per sweep point",
              [&retries](unsigned long long n) { retries = n; });
    realOption("--point-timeout", "MS",
               "per-point wall-clock watchdog in milliseconds",
               [&point_timeout](double d) { point_timeout = d; });
}

void
ToolApp::addOutputFlags(bool &stats, bool &json)
{
    flag("--stats", "dump the full stat set as text",
         [&stats] { stats = true; });
    flag("--json", "emit the versioned JSON envelope (docs/API.md)",
         [&json] { json = true; });
}

void
ToolApp::addTraceFlags()
{
    traceFlagsAdded = true;
    option("--trace-out", "FILE",
           "write a Chrome/Perfetto event trace (needs PVA_TRACE=ON)",
           [this](const std::string &v) { trace.outPath = v; });
    option("--trace-filter", "GLOBS",
           "comma-separated track globs, e.g. 'bc*,pva/frontend'",
           [this](const std::string &v) { trace.filter = v; });
    numOption("--trace-buffer", "N",
              "trace buffer capacity in events (drops beyond)",
              [this](unsigned long long n) {
                  trace.bufferCap = n;
              });
    flag("--profile",
         "sampling profile of trace events, reported after the run "
         "(needs PVA_TRACE=ON)",
         [this] {
             if (trace.profilePeriod == 0)
                 trace.profilePeriod = 64;
         });
    numOption("--profile-period", "N",
              "sample every Nth trace event (implies --profile)",
              [this](unsigned long long n) {
                  if (n == 0 || n > UINT32_MAX)
                      fatal("--profile-period expects 1..2^32-1");
                  trace.profilePeriod =
                      static_cast<std::uint32_t>(n);
              });
}

const ToolApp::Spec *
ToolApp::find(const std::string &flag) const
{
    for (const Spec &s : specs) {
        if (s.name == flag)
            return &s;
    }
    return nullptr;
}

void
ToolApp::parse(int argc, char **argv)
{
    // Flag handlers and validate() can throw SimError(Config) (e.g.
    // the Geometry constructor on a non-power-of-two --banks); parse
    // runs before run()'s catch, so turn those into the same clean
    // one-line fatal here.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h")
                usage();
            bool isFlag =
                arg.size() >= 2 && arg[0] == '-' && arg[1] == '-';
            if (!isFlag && positionalHandler) {
                positionalHandler(arg);
                continue;
            }
            const Spec *spec = find(arg);
            if (!spec)
                usage();
            if (!spec->takesValue) {
                spec->apply(arg, std::string());
                continue;
            }
            if (++i >= argc)
                usage();
            spec->apply(arg, argv[i]);
        }
        // Fail fast on unsupportable knob combinations.
        if (configToValidate)
            configToValidate->validate();
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(1);
    }
}

void
ToolApp::usage() const
{
    std::fprintf(stderr, "usage: %s [options]%s%s\n",
                 name.c_str(), positionalMetavar.empty() ? "" : " ",
                 positionalMetavar.c_str());
    for (const Spec &s : specs) {
        std::string head = s.name;
        if (s.takesValue)
            head += " " + s.metavar;
        std::fprintf(stderr, "  %-28s %s\n", head.c_str(),
                     s.help.c_str());
    }
    std::exit(2);
}

int
ToolApp::run(const std::function<int()> &body)
{
#if PVA_TRACE_ENABLED
    if (trace.active() || trace.profiling()) {
        trace::TraceConfig tc;
        tc.bufferCapacity = trace.bufferCap;
        tc.filter = trace.filter;
        tc.profilePeriod = trace.profilePeriod;
        traceState->session.emplace(tc);
        trace::setSession(&*traceState->session);
    }
#else
    if (trace.active())
        fatal("--trace-out needs a traced build; configure with "
              "-DPVA_TRACE=ON");
    if (trace.profiling())
        fatal("--profile needs a traced build; configure with "
              "-DPVA_TRACE=ON");
#endif

    int rc;
    try {
        rc = body();
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }

#if PVA_TRACE_ENABLED
    if (traceState->session) {
        trace::setSession(nullptr);
        trace::TraceSession &s = *traceState->session;
        traceState->recorded = s.recorded();
        traceState->dropped = s.dropped();
        if (trace.profiling()) {
            // The sampling profile: where the simulation's activity
            // (as seen by the PVA_TRACE instrumentation) concentrated.
            std::vector<trace::ProfileEntry> report =
                s.profileReport();
            inform("profile: %llu samples (1 in %u events), top %zu "
                   "of %zu (track/event: samples ~events)",
                   static_cast<unsigned long long>(s.profileSamples()),
                   s.profilePeriod(),
                   std::min<std::size_t>(report.size(), 20),
                   report.size());
            for (std::size_t i = 0; i < report.size() && i < 20; ++i) {
                const trace::ProfileEntry &e = report[i];
                inform("  %s/%s %s: %llu ~%llu", e.process.c_str(),
                       e.track.c_str(), e.name ? e.name : "?",
                       static_cast<unsigned long long>(e.samples),
                       static_cast<unsigned long long>(
                           e.estimatedEvents));
            }
        }
        if (trace.active()) {
            std::ofstream out(trace.outPath);
            if (!out)
                fatal("cannot open '%s'", trace.outPath.c_str());
            s.exportChromeJson(out);
            inform("trace: %llu events (%llu dropped) on %zu tracks "
                   "-> %s",
                   static_cast<unsigned long long>(
                       traceState->recorded),
                   static_cast<unsigned long long>(
                       traceState->dropped),
                   s.trackCount(), trace.outPath.c_str());
        }
        traceState->session.reset();
    }
#endif
    return rc;
}

std::uint64_t
ToolApp::traceRecorded() const
{
#if PVA_TRACE_ENABLED
    if (traceState->session)
        return traceState->session->recorded();
#endif
    return traceState->recorded;
}

std::uint64_t
ToolApp::traceDropped() const
{
#if PVA_TRACE_ENABLED
    if (traceState->session)
        return traceState->session->dropped();
#endif
    return traceState->dropped;
}

JsonEnvelope::JsonEnvelope(std::ostream &os, const ToolApp &app,
                           const SystemConfig &config,
                           const std::vector<ConfigExtra> &config_extras)
    : w(os)
{
    w.beginObject().member("schemaVersion", kJsonSchemaVersion);
    w.member("tool", app.toolName()).key("config").beginObject();
    writeConfigJson(w, config);
    for (const auto &[key, value] : config_extras)
        std::visit([&](const auto &v) { w.member(key, v); }, value);
    w.endObject();
}

JsonEnvelope::~JsonEnvelope()
{
    w.endObject().endLine();
}

json::Writer &
JsonEnvelope::section(const char *key)
{
    return w.key(key);
}

void
JsonEnvelope::traceSection(const ToolApp &app)
{
    if (!app.traceOptions().active())
        return;
    section("trace").beginObject().member("out", app.traceOptions().outPath);
    w.member("recorded", app.traceRecorded());
    w.member("dropped", app.traceDropped()).endObject();
}

} // namespace pva::tools
