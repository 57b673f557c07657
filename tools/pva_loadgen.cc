/**
 * @file
 * pva_loadgen — multi-stream traffic driver (docs/TRAFFIC.md).
 *
 * Default: one traffic run (closed-loop, 4 streams, FIFO arbitration)
 * on the selected system; prints a human-readable service summary,
 * the versioned JSON envelope with --json (docs/API.md), a CSV row
 * with --csv, or the whole registered stat set with --stats.
 *
 * With --load-sweep: forces every stream open-loop and runs the
 * offered-load ladder (--loads, aggregate requests per kilocycle)
 * across the systems of --systems on the SweepExecutor worker pool,
 * emitting the throughput-latency curves as CSV to stdout (or JSON
 * with --json). Points are deterministic for a given seed regardless
 * of --jobs; failed points survive as status=failed rows.
 *
 * Stream i gets seed (--seed + i) and, with --priority-ramp,
 * priority i (stream N-1 most urgent) for exercising the priority
 * policy's starvation guard.
 *
 * Shared flags (system knobs, --clocking, --check, --fault-*,
 * --stats/--json, --trace-*) come from the ToolApp layer
 * (tools/tool_app.hh) with the same vocabulary as pva_sim and
 * pva_replay; run `pva_loadgen --help` for the generated list.
 * --trace-out writes a Chrome/Perfetto event trace of the run
 * (docs/OBSERVABILITY.md, needs a PVA_TRACE=ON build).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "fleet/daemon.hh"
#include "fleet/scenario.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "tool_app.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

/** Everything one pva_loadgen invocation configures. */
struct LoadgenOptions
{
    unsigned streams = 4;
    std::string policy = "fifo";
    Cycle aging = 1024;
    std::string mode = "closed";
    unsigned window = 4;
    double rate = 10.0;          ///< Per-stream open-loop rate
    std::uint64_t requests = 256;
    std::uint64_t seed = 1;
    unsigned queueCap = 16;
    bool shed = false;           ///< Deadline/overload load shedding
    Cycle deadline = 0;          ///< Queueing-delay budget (cycles)
    double shedWatermark = 0.75; ///< Queue-depth shed fraction
    /** Explicit-set tracking so flag contradictions (a shed knob with
     *  shedding off) fail loudly instead of being silently ignored. */
    bool deadlineSet = false;
    bool watermarkSet = false;
    bool priorityRamp = false;
    std::string tracePath;
    PatternConfig pattern;
    std::string system = "pva";
    std::string systems = "pva,cacheline,gathering";
    bool loadSweep = false;
    std::string loads = "2,5,10,20,40,80";
    unsigned jobs = 0;
    unsigned retries = 3;
    Cycle maxCycles = 50000000;
    double pointTimeout = 0.0;
    bool stats = false;
    bool json = false;
    bool csv = false;
    // Fleet mode (docs/TRAFFIC.md "Fleet-scale traffic").
    bool fleet = false;
    unsigned tenants = 4;
    unsigned streamsPerTenant = 4;
    unsigned shards = 1;
    bool perStreamStats = false;
    std::string scenarioPath;
    // Daemon mode.
    bool serve = false;
    std::string spoolDir;
    std::string outDir;
    std::uint64_t pollMs = 200;
    std::uint64_t maxScenarios = 0;
    SystemConfig config{};
};

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
addLoadgenFlags(ToolApp &app, LoadgenOptions &opts)
{
    app.numOption("--streams", "N", "concurrent request streams",
                  [&opts](unsigned long long n) { opts.streams = n; });
    app.option("--policy", "fifo|rr|priority", "arbitration policy",
               [&opts](const std::string &v) { opts.policy = v; });
    app.numOption("--aging", "N", "priority aging threshold (cycles)",
                  [&opts](unsigned long long n) { opts.aging = n; });
    app.option("--mode", "closed|open", "arrival process",
               [&opts](const std::string &v) { opts.mode = v; });
    app.numOption("--window", "N", "closed-loop window per stream",
                  [&opts](unsigned long long n) { opts.window = n; });
    app.realOption("--rate", "R",
                   "per-stream open-loop rate (req/kilocycle)",
                   [&opts](double d) { opts.rate = d; });
    app.numOption("--requests", "N", "requests per stream",
                  [&opts](unsigned long long n) { opts.requests = n; });
    app.numOption("--seed", "S", "base pattern seed (stream i: S+i)",
                  [&opts](unsigned long long n) { opts.seed = n; });
    app.numOption("--queue-cap", "N", "per-stream admission queue cap",
                  [&opts](unsigned long long n) { opts.queueCap = n; });
    app.option("--shed", "on|off",
               "deadline/overload load shedding (docs/TRAFFIC.md; "
               "default off, off is bit-identical to older builds)",
               [&opts](const std::string &v) {
                   if (v == "on")
                       opts.shed = true;
                   else if (v == "off")
                       opts.shed = false;
                   else
                       fatal("--shed takes on|off, not '%s'", v.c_str());
               });
    app.numOption("--deadline", "N",
                  "queueing-delay budget before a request is shed "
                  "(cycles; 0 = no deadline; needs --shed on)",
                  [&opts](unsigned long long n) {
                      opts.deadline = n;
                      opts.deadlineSet = true;
                  });
    app.realOption("--shed-watermark", "F",
                   "queue-depth fraction where overload shedding "
                   "starts (>= 1 disables; default 0.75; needs "
                   "--shed on)",
                   [&opts](double d) {
                       opts.shedWatermark = d;
                       opts.watermarkSet = true;
                   });
    app.flag("--priority-ramp",
             "give stream i priority i (N-1 most urgent)",
             [&opts] { opts.priorityRamp = true; });
    app.realOption("--read-frac", "F", "fraction of reads in 0..1",
                   [&opts](double d) { opts.pattern.readFraction = d; });
    app.numOption("--min-stride", "N", "minimum generated stride",
                  [&opts](unsigned long long n) {
                      opts.pattern.minStride = n;
                  });
    app.numOption("--max-stride", "N", "maximum generated stride",
                  [&opts](unsigned long long n) {
                      opts.pattern.maxStride = n;
                  });
    app.numOption("--min-length", "N", "minimum vector length",
                  [&opts](unsigned long long n) {
                      opts.pattern.minLength = n;
                  });
    app.numOption("--max-length", "N", "maximum vector length",
                  [&opts](unsigned long long n) {
                      opts.pattern.maxLength = n;
                  });
    app.numOption("--region-words", "N", "address region per stream",
                  [&opts](unsigned long long n) {
                      opts.pattern.regionWords = n;
                  });
    app.flag("--indirect", "generate indirect (vector-indexed) accesses",
             [&opts] {
                 opts.pattern.mode = VectorCommand::Mode::Indirect;
             });
    app.option("--trace", "FILE", "replay stream arrivals from FILE",
               [&opts](const std::string &v) { opts.tracePath = v; });
    app.option("--system", "pva|cacheline|gathering|sram",
               "memory system under test",
               [&opts](const std::string &v) { opts.system = v; });
    app.option("--systems", "a,b,c", "systems for --load-sweep",
               [&opts](const std::string &v) { opts.systems = v; });
    app.flag("--load-sweep", "run the offered-load ladder",
             [&opts] { opts.loadSweep = true; });
    app.option("--loads", "A,B,C",
               "offered loads (aggregate req/kilocycle)",
               [&opts](const std::string &v) { opts.loads = v; });
    app.numOption("--max-cycles", "N", "per-run simulated-cycle budget",
                  [&opts](unsigned long long n) {
                      opts.maxCycles = n;
                  });
    app.flag("--csv", "emit the run as a load-curve CSV row",
             [&opts] { opts.csv = true; });

    // Fleet and daemon modes (docs/TRAFFIC.md "Fleet-scale traffic").
    app.flag("--fleet",
             "run a sharded tenant fleet under hierarchical "
             "arbitration instead of a single flat run",
             [&opts] { opts.fleet = true; });
    app.numOption("--tenants", "N", "tenants in the fleet",
                  [&opts](unsigned long long n) { opts.tenants = n; });
    app.numOption("--streams-per-tenant", "N",
                  "request streams per tenant",
                  [&opts](unsigned long long n) {
                      opts.streamsPerTenant = n;
                  });
    app.numOption("--shards", "N",
                  "memory-system shards the fleet is partitioned "
                  "across (results are identical at any --jobs)",
                  [&opts](unsigned long long n) { opts.shards = n; });
    app.flag("--per-stream-stats",
             "keep per-stream counters in fleet mode (memory-heavy)",
             [&opts] { opts.perStreamStats = true; });
    app.option("--scenario", "FILE",
               "run one fleet scenario JSON file and print its "
               "versioned result line",
               [&opts](const std::string &v) { opts.scenarioPath = v; });
    app.flag("--serve",
             "daemon mode: poll --spool for scenario files, stream "
             "result lines, drain gracefully on SIGTERM",
             [&opts] { opts.serve = true; });
    app.option("--spool", "DIR", "scenario spool directory (--serve)",
               [&opts](const std::string &v) { opts.spoolDir = v; });
    app.option("--out-dir", "DIR",
               "also write per-scenario result files here (--serve)",
               [&opts](const std::string &v) { opts.outDir = v; });
    app.numOption("--poll-ms", "N",
                  "spool poll interval in milliseconds (--serve)",
                  [&opts](unsigned long long n) { opts.pollMs = n; });
    app.numOption("--max-scenarios", "N",
                  "exit after N scenarios (--serve; 0 = run until "
                  "signalled)",
                  [&opts](unsigned long long n) {
                      opts.maxScenarios = n;
                  });
}

/**
 * Reject contradictions instead of silently ignoring a knob: a shed
 * budget or watermark the user explicitly set does nothing while
 * shedding is off, which is exactly the kind of quiet misconfiguration
 * a capacity-planning run cannot afford.
 */
void
validateOptions(const LoadgenOptions &opts)
{
    if (!opts.shed && (opts.deadlineSet || opts.watermarkSet)) {
        throw SimError(
            SimErrorKind::Config, "loadgen", kNeverCycle,
            csprintf("%s has no effect while shedding is off; add "
                     "--shed on or drop the flag",
                     opts.deadlineSet ? "--deadline"
                                      : "--shed-watermark"));
    }
    if (opts.serve && opts.spoolDir.empty()) {
        throw SimError(SimErrorKind::Config, "loadgen", kNeverCycle,
                       "--serve requires --spool DIR");
    }
    if (!opts.serve &&
        (!opts.spoolDir.empty() || !opts.outDir.empty())) {
        throw SimError(SimErrorKind::Config, "loadgen", kNeverCycle,
                       "--spool/--out-dir only make sense with "
                       "--serve");
    }
    if (opts.fleet && opts.loadSweep) {
        throw SimError(SimErrorKind::Config, "loadgen", kNeverCycle,
                       "--fleet and --load-sweep are separate modes; "
                       "pick one");
    }
    if (!opts.tracePath.empty() && opts.fleet) {
        throw SimError(SimErrorKind::Config, "loadgen", kNeverCycle,
                       "--trace replay is not available in fleet "
                       "mode");
    }
}

TrafficConfig
trafficConfigFor(const LoadgenOptions &opts)
{
    TrafficConfig tc;
    tc.system = systemKindFor(opts.system);
    tc.config = opts.config;
    if (!parseArbPolicy(opts.policy, tc.arbiter.policy))
        fatal("unknown policy '%s' (try: fifo rr priority)",
              opts.policy.c_str());
    tc.arbiter.agingThreshold = opts.aging;
    tc.arbiter.shed.enabled = opts.shed;
    tc.arbiter.shed.defaultDeadline = opts.deadline;
    tc.arbiter.shed.queueHighWatermark = opts.shedWatermark;
    tc.limits.maxCycles = opts.maxCycles;
    tc.limits.timeoutMillis = opts.pointTimeout;

    ArrivalMode mode;
    if (opts.mode == "closed")
        mode = ArrivalMode::ClosedLoop;
    else if (opts.mode == "open")
        mode = ArrivalMode::OpenLoop;
    else
        fatal("unknown mode '%s' (try: closed open)",
              opts.mode.c_str());
    if (!opts.tracePath.empty())
        mode = ArrivalMode::Trace;

    for (unsigned i = 0; i < opts.streams; ++i) {
        StreamConfig s;
        s.mode = mode;
        s.window = opts.window;
        s.requestsPerKilocycle = opts.rate;
        s.requests = opts.requests;
        s.priority = opts.priorityRamp ? i : 0;
        s.queueCapacity = opts.queueCap;
        s.seed = opts.seed + i;
        s.pattern = opts.pattern;
        // Disjoint regions keep the streams from aliasing each other.
        s.pattern.regionBase =
            opts.pattern.regionBase + i * opts.pattern.regionWords;
        s.tracePath = opts.tracePath;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

int
runSweep(const ToolApp &app, const LoadgenOptions &opts)
{
    LoadSweepConfig sc;
    sc.base = trafficConfigFor(opts);
    for (const std::string &l : splitCommas(opts.loads))
        sc.offeredLoads.push_back(std::strtod(l.c_str(), nullptr));
    sc.systems.clear();
    for (const std::string &s : splitCommas(opts.systems))
        sc.systems.push_back(systemKindFor(s));
    sc.jobs = opts.jobs;
    sc.retries = opts.retries;

    std::vector<LoadPoint> points = runLoadSweep(sc);
    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"loads", jsonQuote(opts.loads)},
                          {"systems", jsonQuote(opts.systems)},
                          {"streams", std::to_string(opts.streams)}});
        writeLoadJson(env.section("loadSweep"), points);
        env.traceSection(app);
    } else {
        writeLoadCsv(std::cout, points);
    }

    bool clean = true;
    for (const LoadPoint &p : points) {
        if (p.failed) {
            warn("load point %s @ %g req/kc failed after %u "
                 "attempts: %s",
                 systemShortName(p.system), p.offered, p.attempts,
                 p.error.c_str());
            clean = false;
        }
    }
    return clean ? 0 : 1;
}

int
runOnce(const ToolApp &app, const LoadgenOptions &opts)
{
    TrafficConfig tc = trafficConfigFor(opts);
    TrafficResult r =
        runTraffic(tc, opts.stats ? &std::cerr : nullptr);

    if (opts.json) {
        JsonEnvelope env(
            std::cout, app, opts.config,
            {{"system", jsonQuote(opts.system)},
             {"policy", jsonQuote(opts.policy)},
             {"mode", jsonQuote(opts.mode)},
             {"streams", std::to_string(opts.streams)},
             {"requests", std::to_string(opts.requests)}});
        r.dumpJson(env.section("traffic"));
        env.traceSection(app);
        return 0;
    }
    if (opts.csv) {
        LoadPoint p;
        p.system = tc.system;
        p.offered = opts.rate * opts.streams;
        p.result = r;
        writeLoadCsvHeader(std::cout);
        writeLoadCsvRow(std::cout, p);
        return 0;
    }

    std::printf("system=%s policy=%s streams=%zu: %llu requests "
                "(%llu words) in %llu cycles\n",
                systemShortName(tc.system),
                arbPolicyName(tc.arbiter.policy), tc.streams.size(),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.words),
                static_cast<unsigned long long>(r.cycles));
    std::printf("  throughput %.3f req/kcycle, %.3f words/cycle, "
                "mean in-flight %.2f, bc utilization %.1f%%\n",
                r.requestsPerKilocycle, r.wordsPerCycle,
                r.meanInFlight, 100.0 * r.bcUtilization);
    if (r.shed > 0) {
        std::printf("  shed %llu requests (%.1f%% of consumed work) "
                    "to protect served latency\n",
                    static_cast<unsigned long long>(r.shed),
                    100.0 * r.shedRate);
    }
    std::printf("  clocking=%s simTicks=%llu cyclesSkipped=%llu "
                "cyclesPerSecond=%llu\n",
                clockingModeName(tc.config.clocking),
                static_cast<unsigned long long>(r.simTicks),
                static_cast<unsigned long long>(r.cyclesSkipped),
                static_cast<unsigned long long>(r.cyclesPerSecond));
    auto line = [](const char *name, const LatencySummary &s) {
        std::printf("  %-8s mean %8.1f  p50 %6llu  p95 %6llu  "
                    "p99 %6llu  p999 %6llu  max %6llu\n",
                    name, s.mean,
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p95),
                    static_cast<unsigned long long>(s.p99),
                    static_cast<unsigned long long>(s.p999),
                    static_cast<unsigned long long>(s.max));
    };
    line("queue", r.queueDelay);
    line("service", r.serviceLatency);
    line("total", r.totalLatency);
    for (const StreamResult &s : r.streams) {
        std::printf("  %s: %llu/%llu done, deferrals %llu, "
                    "queue peak %llu, total p99 %llu\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.deferrals),
                    static_cast<unsigned long long>(s.queuePeak),
                    static_cast<unsigned long long>(
                        s.totalLatency.p99));
    }
    return 0;
}

fleet::FleetConfig
fleetConfigFor(const LoadgenOptions &opts)
{
    fleet::FleetConfig fc;
    fc.system = systemKindFor(opts.system);
    fc.config = opts.config;
    if (!parseArbPolicy(opts.policy, fc.arbiter.policy))
        fatal("unknown policy '%s' (try: fifo rr priority)",
              opts.policy.c_str());
    fc.arbiter.agingThreshold = opts.aging;
    fc.arbiter.shed.enabled = opts.shed;
    fc.arbiter.shed.defaultDeadline = opts.deadline;
    fc.arbiter.shed.queueHighWatermark = opts.shedWatermark;
    fc.limits.maxCycles = opts.maxCycles;
    fc.limits.timeoutMillis = opts.pointTimeout;
    fc.shards = opts.shards;
    fc.jobs = opts.jobs;
    fc.retries = opts.retries;
    fc.perStreamStats = opts.perStreamStats;

    fleet::TenantSpec spec;
    spec.count = opts.tenants;
    spec.streamsPerTenant = opts.streamsPerTenant;
    spec.stream.window = opts.window;
    spec.stream.requestsPerKilocycle = opts.rate;
    spec.stream.requests = opts.requests;
    spec.stream.queueCapacity = opts.queueCap;
    spec.stream.seed = opts.seed;
    spec.stream.pattern = opts.pattern;
    if (opts.mode == "closed")
        spec.stream.mode = ArrivalMode::ClosedLoop;
    else if (opts.mode == "open")
        spec.stream.mode = ArrivalMode::OpenLoop;
    else
        fatal("unknown mode '%s' (try: closed open)",
              opts.mode.c_str());
    // Disjoint per-stream regions, same policy as the flat path.
    spec.regionStrideWords = opts.pattern.regionWords;
    fc.tenants.push_back(std::move(spec));
    return fc;
}

int
runFleetOnce(const ToolApp &app, const LoadgenOptions &opts)
{
    const fleet::FleetConfig fc = fleetConfigFor(opts);
    const fleet::FleetResult r = fleet::runFleet(fc);

    if (opts.json) {
        JsonEnvelope env(
            std::cout, app, opts.config,
            {{"system", jsonQuote(opts.system)},
             {"policy", jsonQuote(opts.policy)},
             {"tenants", std::to_string(opts.tenants)},
             {"streamsPerTenant",
              std::to_string(opts.streamsPerTenant)},
             {"shards", std::to_string(fc.shards)}});
        r.dumpJson(env.section("fleet"));
        env.traceSection(app);
        return 0;
    }

    std::printf("fleet system=%s policy=%s tenants=%llu streams=%llu "
                "shards=%u\n",
                systemShortName(fc.system),
                arbPolicyName(fc.arbiter.policy),
                static_cast<unsigned long long>(r.tenants),
                static_cast<unsigned long long>(r.streams), r.shards);
    std::printf("  %llu requests (%llu words) in %llu cycles "
                "(makespan), %llu grants\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.words),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.grants));
    std::printf("  throughput %.3f req/kcycle, %.3f words/cycle, "
                "mean in-flight %.2f\n",
                r.requestsPerKilocycle, r.wordsPerCycle,
                r.meanInFlight);
    if (r.shed > 0) {
        std::printf("  shed %llu requests (%.1f%% of consumed work)\n",
                    static_cast<unsigned long long>(r.shed),
                    100.0 * r.shedRate);
    }
    auto line = [](const char *name, const LatencySummary &s) {
        std::printf("  %-8s mean %8.1f  p50 %6llu  p95 %6llu  "
                    "p99 %6llu  p999 %6llu  max %6llu\n",
                    name, s.mean,
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p95),
                    static_cast<unsigned long long>(s.p99),
                    static_cast<unsigned long long>(s.p999),
                    static_cast<unsigned long long>(s.max));
    };
    line("queue", r.queueDelay);
    line("service", r.serviceLatency);
    line("total", r.totalLatency);
    if (opts.stats) {
        for (const fleet::TenantResult &t : r.tenantResults) {
            std::printf("  %s (shard %u): %llu arrivals, %llu done, "
                        "deferrals %llu, shed %llu, queue peak %llu, "
                        "total p99 %llu\n",
                        t.name.c_str(), t.shard,
                        static_cast<unsigned long long>(t.arrivals),
                        static_cast<unsigned long long>(t.completed),
                        static_cast<unsigned long long>(t.deferrals),
                        static_cast<unsigned long long>(
                            t.shedDeadline + t.shedOverload),
                        static_cast<unsigned long long>(t.queuePeak),
                        static_cast<unsigned long long>(
                            t.totalLatency.p99));
        }
    }
    return 0;
}

int
runScenario(const LoadgenOptions &opts)
{
    fleet::Scenario scenario =
        fleet::loadScenarioFile(opts.scenarioPath);
    scenario.config.jobs = opts.jobs;
    scenario.config.retries = opts.retries;
    const fleet::FleetResult result = fleet::runFleet(scenario.config);
    fleet::writeScenarioResult(std::cout, scenario, result);
    return 0;
}

int
runServe(const LoadgenOptions &opts)
{
    fleet::DaemonConfig dc;
    dc.spoolDir = opts.spoolDir;
    dc.outDir = opts.outDir;
    dc.pollMillis = opts.pollMs;
    dc.maxScenarios = opts.maxScenarios;
    dc.jobs = opts.jobs;
    dc.retries = opts.retries;
    fleet::runDaemon(dc, std::cout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    LoadgenOptions opts;
    ToolApp app("pva_loadgen");
    addLoadgenFlags(app, opts);
    app.addSystemFlags(opts.config);
    app.addExecutorFlags(opts.jobs, opts.retries, opts.pointTimeout);
    app.addOutputFlags(opts.stats, opts.json);
    app.addTraceFlags();
    app.parse(argc, argv);
    return app.run([&] {
        validateOptions(opts);
        if (opts.serve)
            return runServe(opts);
        if (!opts.scenarioPath.empty())
            return runScenario(opts);
        if (opts.fleet)
            return runFleetOnce(app, opts);
        return opts.loadSweep ? runSweep(app, opts)
                              : runOnce(app, opts);
    });
}
