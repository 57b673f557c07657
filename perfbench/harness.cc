/**
 * @file
 * Per-layer harness of the repository benchmark (perfbench/README.md).
 *
 * Drives the same loops as runTrace (paper-grid), runTraffic under
 * runLoadSweep (traffic-ladder) and the fleet shard task of runFleet
 * (fleet-100k) through the libraries' public functions: makeSystem,
 * Simulation::add, then Simulation::runUntil with the driver's
 * service(). Every call is timed from outside; nothing inside src/ is
 * instrumented.
 *
 *   pva_perfbench WORKLOAD setup reps=N [params]
 *       Time only the set-up (systems, inputs, streams, arbiters,
 *       scenario parse) N times.
 *   pva_perfbench WORKLOAD run trace=0|1 out=FILE [spans=FILE] [params]
 *       Run the workload once, write its output in the shipped tool's
 *       format to FILE (the benchmark compares it with the tool's), and
 *       print per-layer counts. With trace=1 the run also keeps one
 *       span per public call in memory (name, start, end, parent) and
 *       reports each span name's self time. Calls made once per
 *       simulated cycle (the driver's service() and the MemorySystem
 *       calls it makes) are folded into one aggregate span per run, so
 *       memory stays bounded; the driver reaches the system through a
 *       forwarding MemorySystem that times those calls.
 *
 * Params: scenario=FILE (fleet-100k); seed, streams, requests,
 * read_frac, min_stride, max_stride, refresh, deadline, watermark,
 * queue_cap, loads, systems (traffic-ladder).
 *
 * Prints one JSON object on stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_arbiter.hh"
#include "fleet/message_bus.hh"
#include "fleet/scenario.hh"
#include "kernels/command_unit.hh"
#include "kernels/sweep.hh"
#include "kernels/sweep_executor.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory spans; every call is a no-op when tracing is off. */
class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on) {}

    bool on() const { return enabled; }

    /** Open a span under the innermost open span. */
    int
    open(const char *name)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, current, nowNs(), 0, 0, 1});
        current = static_cast<int>(spans.size()) - 1;
        return current;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        Span &s = spans[id];
        s.end = nowNs();
        s.total = s.end - s.start;
        current = s.parent;
    }

    /** An aggregate span for many short calls under @p parent. */
    int
    fold(const char *name, int parent)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, parent, 0, 0, 0, 0});
        return static_cast<int>(spans.size()) - 1;
    }

    int innermost() const { return current; }

    void
    addCall(int id, std::int64_t start, std::int64_t end)
    {
        Span &s = spans[id];
        if (s.count == 0)
            s.start = start;
        s.end = end;
        s.total += end - start;
        ++s.count;
    }

    double
    seconds(int id) const
    {
        return id < 0 ? 0.0 : static_cast<double>(spans[id].total) * 1e-9;
    }

    /** Self time per span name: duration minus children's durations. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<std::int64_t> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].total;
        for (const Span &s : spans) {
            if (s.parent >= 0)
                self[s.parent] -= s.total;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans.size(); ++i)
            out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
        return out;
    }

    /** One JSON object per line: id, name, parent, start/end, calls. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        const std::int64_t base = spans.empty() ? 0 : spans[0].start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << "{\"id\": " << i << ", \"name\": \"" << s.name
               << "\", \"parent\": " << s.parent
               << ", \"start_ns\": " << s.start - base
               << ", \"end_ns\": " << s.end - base
               << ", \"calls\": " << s.count
               << ", \"total_ns\": " << s.total << "}\n";
        }
        if (!os)
            fatal("cannot write spans to '%s'", path.c_str());
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t start;
        std::int64_t end;
        std::int64_t total; ///< Duration; summed calls when folded
        std::uint64_t count;
    };

    bool enabled;
    std::vector<Span> spans;
    int current = -1;
};

/** RAII span around one public call. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : tracer(t), id(t.open(name)) {}
    ~Scope() { tracer.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    int id;
};

/** RAII timer adding one call to a folded span. */
class FoldTimer
{
  public:
    FoldTimer(Tracer &t, int id)
        : tracer(t), id(id), start(id < 0 ? 0 : nowNs())
    {}
    ~FoldTimer()
    {
        if (id >= 0)
            tracer.addCall(id, start, nowNs());
    }
    FoldTimer(const FoldTimer &) = delete;
    FoldTimer &operator=(const FoldTimer &) = delete;

  private:
    Tracer &tracer;
    int id;
    std::int64_t start;
};

/**
 * Forwards the driver's MemorySystem calls to the real system and
 * times them into a folded span. Never registered with a Simulation:
 * the real system is, so the per-cycle dispatch stays direct.
 */
class TimedSystem final : public MemorySystem
{
  public:
    TimedSystem(MemorySystem &inner, Tracer &t, int fold_id)
        : MemorySystem(inner.name()), inner(inner), tracer(t),
          foldId(fold_id)
    {}

    void tick(Cycle) override {}

    bool
    trySubmit(const VectorCommand &cmd, std::uint64_t tag,
              const std::vector<Word> *write_data) override
    {
        FoldTimer f(tracer, foldId);
        return inner.trySubmit(cmd, tag, write_data);
    }

    void
    drainCompletionsInto(std::vector<Completion> &out) override
    {
        FoldTimer f(tracer, foldId);
        inner.drainCompletionsInto(out);
    }

    void
    recycleLine(std::vector<Word> &&line) override
    {
        FoldTimer f(tracer, foldId);
        inner.recycleLine(std::move(line));
    }

    bool
    busy() const override
    {
        FoldTimer f(tracer, foldId);
        return inner.busy();
    }

    std::size_t
    inFlight() const override
    {
        FoldTimer f(tracer, foldId);
        return inner.inFlight();
    }

    SparseMemory &memory() override { return inner.memory(); }
    StatSet &stats() override { return inner.stats(); }

  private:
    MemorySystem &inner;
    Tracer &tracer;
    int foldId;
};

/**
 * One Simulation::runUntil with the driver folded under it. The driver
 * sees the TimedSystem when tracing and the real system otherwise.
 */
class DriverRun
{
  public:
    DriverRun(Tracer &t, MemorySystem &sys, const char *driver_name)
        : scope(t, "sim.run_until"),
          driverFold(t.fold(driver_name, t.innermost())),
          timed(sys, t, t.fold("sys.calls", driverFold)),
          target(t.on() ? static_cast<MemorySystem &>(timed) : sys)
    {}

    MemorySystem &system() { return target; }
    int fold() const { return driverFold; }

  private:
    Scope scope;
    int driverFold;
    TimedSystem timed;
    MemorySystem &target;
};

/** Per-layer counts, summed over every run of the workload. */
using Counts = std::map<std::string, double>;

std::string
statName(const char *prefix, unsigned i, const char *field)
{
    return csprintf("%s%u.%s", prefix, i, field);
}

/** Add the public StatSet counters and clocking counters of one run. */
void
addRunCounts(Counts &c, MemorySystem &sys, SystemKind kind,
             const Simulation &sim)
{
    const StatSet &st = sys.stats();
    c["sim.ticks"] += static_cast<double>(sim.simTicks());
    c["sim.skipped"] += static_cast<double>(sim.cyclesSkipped());
    c["sim.cycles"] += static_cast<double>(sim.now());
    for (unsigned b = 0; st.hasScalar(statName("bc", b, "commandsSeen"));
         ++b) {
        auto get = [&](const char *f) {
            return static_cast<double>(st.scalar(statName("bc", b, f)));
        };
        c["core.bc.observes"] += get("commandsSeen");
        c["core.bc.hits"] += get("commandsHit");
        c["core.bc.active"] += get("schedActiveCycles");
        c["core.bc.bank_ticks"] += static_cast<double>(sim.simTicks());
        c["core.bc.stall_cycles"] += get("stallCycles");
        c["core.bc.vc_full_cycles"] += get("vcFullCycles");
    }
    if (st.hasScalar("frontend.ctxFullCycles")) {
        c["core.frontend.ctx_full_cycles"] +=
            static_cast<double>(st.scalar("frontend.ctxFullCycles"));
        for (const char *dir : {"read", "write"}) {
            const Distribution &d = st.distribution(
                csprintf("frontend.%sLatency", dir));
            c[csprintf("core.frontend.%s_latency_sum", dir)] +=
                d.mean() * static_cast<double>(d.samples());
            c[csprintf("core.frontend.%s_latency_n", dir)] +=
                static_cast<double>(d.samples());
        }
    }
    for (unsigned d = 0; st.hasScalar(statName("dev", d, "reads")); ++d) {
        auto get = [&](const char *f) {
            return static_cast<double>(st.scalar(statName("dev", d, f)));
        };
        c["sdram.cas"] += get("reads") + get("writes");
        c["sdram.activates"] += get("activates");
        c["sdram.row_hits"] += get("rowHitAccesses");
        c["sdram.refreshes"] += get("refreshes");
    }
    if (st.hasScalar("bus.dataCycles")) {
        c["bus.data_cycles"] +=
            static_cast<double>(st.scalar("bus.dataCycles"));
        c["bus.request_cycles"] +=
            static_cast<double>(st.scalar("bus.requestCycles"));
        c["bus.cycles"] += static_cast<double>(sim.now());
    }
    if (kind == SystemKind::CacheLine || kind == SystemKind::Gathering)
        c["baselines.sim_cycles"] += static_cast<double>(sim.now());
    // Present only when the protocol checker is attached (--check).
    if (st.hasScalar("checker.commands")) {
        c["checker.commands"] +=
            static_cast<double>(st.scalar("checker.commands"));
    }
}

/** Everything a workload run reports besides its output bytes. */
struct Report
{
    Counts counts;
    std::vector<double> pointMillis;  ///< paper-grid, traced only
    double rssBytesPerStream = 0.0;   ///< fleet-100k
};

std::map<std::string, std::string>
parseParams(int argc, char **argv, int first)
{
    std::map<std::string, std::string> out;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("expected key=value, got '%s'", arg.c_str());
        out[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
    return out;
}

const std::string &
param(const std::map<std::string, std::string> &p, const char *key)
{
    auto it = p.find(key);
    if (it == p.end())
        fatal("missing parameter %s=", key);
    return it->second;
}

std::uint64_t
u64Param(const std::map<std::string, std::string> &p, const char *key)
{
    const std::string &v = param(p, key);
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0')
        fatal("%s= must be a whole number, got '%s'", key, v.c_str());
    return n;
}

double
realParam(const std::map<std::string, std::string> &p, const char *key)
{
    const std::string &v = param(p, key);
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0')
        fatal("%s= must be a number, got '%s'", key, v.c_str());
    return d;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    for (std::string item; std::getline(ss, item, ',');) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

SystemKind
kindFor(const std::string &name)
{
    for (SystemKind kind : allSystems()) {
        if (name == systemShortName(kind))
            return kind;
    }
    fatal("unknown system '%s'", name.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Resident set size of this process, from /proc/self/status. */
double
rssBytes()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
    return 0.0;
}

// ---------------------------------------------------------------- grid

/** The inputs of one chapter 6 grid point, as runPoint builds them. */
struct GridPoint
{
    std::unique_ptr<MemorySystem> sys;
    KernelTrace trace;
};

GridPoint
setupGridPoint(const SweepRequest &req, Tracer &tr)
{
    const KernelSpec &spec = kernelSpec(req.kernel);
    WorkloadConfig wl;
    wl.stride = req.stride;
    wl.elements = req.elements;
    wl.lineWords = req.config.bc.lineWords;
    wl.streamBases =
        streamBases(alignmentPresets().at(req.alignment),
                    spec.numStreams, req.stride, req.elements);
    GridPoint p;
    {
        Scope s(tr, "setup.make_system");
        p.sys = makeSystem(req.system, req.config);
    }
    {
        Scope s(tr, "kernels.trace_build");
        p.trace = buildTrace(spec, wl, p.sys->memory());
    }
    return p;
}

std::vector<SweepRequest>
paperGrid()
{
    return SweepExecutor::chapter6Grid(1024, SystemConfig{});
}

double
setupGrid()
{
    Tracer off(false);
    double total = 0.0;
    for (const SweepRequest &req : paperGrid()) {
        const std::int64_t t0 = nowNs();
        GridPoint p = setupGridPoint(req, off);
        total += static_cast<double>(nowNs() - t0) * 1e-9;
    }
    return total;
}

Report
runGrid(Tracer &tr, std::string &output)
{
    Report rep;
    std::vector<SweepPoint> points;
    for (const SweepRequest &req : paperGrid()) {
        const int pointSpan = tr.open("kernels.point");
        GridPoint p = setupGridPoint(req, tr);
        Simulation sim(req.config.clocking);
        sim.add(p.sys.get());
        {
            DriverRun run(tr, *p.sys, "kernels.vcu_service");
            VectorCommandUnit vcu(run.system(), p.trace);
            sim.runUntil(
                [&] {
                    FoldTimer f(tr, run.fold());
                    return vcu.service();
                },
                req.limits.maxCycles, req.limits.timeoutMillis);
        }
        std::size_t mismatches = 0;
        {
            Scope s(tr, "kernels.verify");
            mismatches = verifyTrace(p.trace, p.sys->memory());
        }
        tr.close(pointSpan);
        if (tr.on())
            rep.pointMillis.push_back(tr.seconds(pointSpan) * 1e3);

        SweepPoint pt{req.system, req.kernel, req.stride, req.alignment,
                      sim.now(), mismatches};
        pt.simTicks = sim.simTicks();
        pt.cyclesSkipped = sim.cyclesSkipped();
        points.push_back(pt);
        addRunCounts(rep.counts, *p.sys, req.system, sim);
        rep.counts["kernels.commands"] +=
            static_cast<double>(p.trace.ops.size());
        rep.counts["kernels.mismatches"] +=
            static_cast<double>(mismatches);
    }
    std::ostringstream os;
    {
        Scope s(tr, "io.emit");
        writeCsv(os, points);
    }
    output = os.str();
    return rep;
}

// -------------------------------------------------------------- ladder

/** The flags pva_loadgen --load-sweep receives, as one struct. */
struct LadderSpec
{
    std::uint64_t seed = 1;
    unsigned streams = 16;
    std::uint64_t requests = 2000;
    PatternConfig pattern;
    SystemConfig config;
    ArbiterConfig arbiter;
    unsigned queueCap = 16;
    std::vector<double> loads;
    std::vector<SystemKind> systems;
};

LadderSpec
ladderSpec(const std::map<std::string, std::string> &p)
{
    LadderSpec s;
    s.seed = u64Param(p, "seed");
    s.streams = static_cast<unsigned>(u64Param(p, "streams"));
    s.requests = u64Param(p, "requests");
    s.pattern.readFraction = realParam(p, "read_frac");
    s.pattern.minStride =
        static_cast<std::uint32_t>(u64Param(p, "min_stride"));
    s.pattern.maxStride =
        static_cast<std::uint32_t>(u64Param(p, "max_stride"));
    s.config.timing.tREFI = u64Param(p, "refresh");
    s.config.timingCheck = u64Param(p, "check") != 0;
    s.arbiter.shed.enabled = true;
    s.arbiter.shed.defaultDeadline = u64Param(p, "deadline");
    s.arbiter.shed.queueHighWatermark = realParam(p, "watermark");
    s.queueCap = static_cast<unsigned>(u64Param(p, "queue_cap"));
    for (const std::string &l : splitCommas(param(p, "loads")))
        s.loads.push_back(std::strtod(l.c_str(), nullptr));
    std::sort(s.loads.begin(), s.loads.end());
    for (const std::string &name : splitCommas(param(p, "systems")))
        s.systems.push_back(kindFor(name));
    if (s.streams == 0 || s.loads.empty() || s.systems.empty())
        fatal("the ladder needs streams, loads and systems");
    return s;
}

/** One rung's arbiter, built as runTraffic builds it. */
struct Rung
{
    std::vector<std::string> names;
    std::unique_ptr<MemorySystem> sys;
    std::unique_ptr<ServiceStats> stats;
    std::unique_ptr<StreamArbiter> arbiter;
};

Rung
setupRung(const LadderSpec &spec, SystemKind kind, double load,
          Tracer &tr)
{
    Rung r;
    std::vector<StreamSource> sources;
    {
        Scope s(tr, "traffic.build");
        sources.reserve(spec.streams);
        for (unsigned i = 0; i < spec.streams; ++i) {
            StreamConfig sc;
            sc.mode = ArrivalMode::OpenLoop;
            sc.requestsPerKilocycle =
                load / static_cast<double>(spec.streams);
            sc.requests = spec.requests;
            sc.queueCapacity = spec.queueCap;
            sc.seed = spec.seed + i;
            sc.pattern = spec.pattern;
            sc.pattern.regionBase =
                spec.pattern.regionBase + i * spec.pattern.regionWords;
            sources.emplace_back(sc, i, spec.config.bc.lineWords);
            r.names.push_back(sources.back().name());
        }
    }
    {
        Scope s(tr, "setup.make_system");
        r.sys = makeSystem(kind, spec.config);
    }
    Scope s(tr, "traffic.build");
    r.stats = std::make_unique<ServiceStats>(r.names);
    r.arbiter = std::make_unique<StreamArbiter>(
        spec.arbiter, std::move(sources), *r.stats);
    r.arbiter->applyPokes(r.sys->memory());
    return r;
}

/** The TrafficResult runTraffic derives from a finished run. */
TrafficResult
summarizeRung(const Rung &rung, const Simulation &sim,
              const SystemConfig &config)
{
    const ServiceStats &stats = *rung.stats;
    TrafficResult r;
    r.cycles = sim.now();
    r.simTicks = sim.simTicks();
    r.cyclesSkipped = sim.cyclesSkipped();
    r.cyclesPerSecond = sim.cyclesPerSecond();
    r.completed = stats.completedTotal();
    r.words = stats.wordsTotal();
    if (r.cycles > 0) {
        r.requestsPerKilocycle = static_cast<double>(r.completed) *
                                 1000.0 / static_cast<double>(r.cycles);
        r.wordsPerCycle = static_cast<double>(r.words) /
                          static_cast<double>(r.cycles);
    }
    r.meanInFlight = stats.meanInFlight();
    r.shed = stats.shedTotal();
    if (r.completed + r.shed > 0) {
        r.shedRate = static_cast<double>(r.shed) /
                     static_cast<double>(r.completed + r.shed);
    }
    r.queueDelay = stats.aggregateQueueDelay();
    r.serviceLatency = stats.aggregateServiceLatency();
    r.totalLatency = stats.aggregateTotalLatency();
    const StatSet &sys_stats = rung.sys->stats();
    const unsigned banks = config.geometry.banks();
    if (r.cycles > 0 && banks > 0 &&
        sys_stats.hasScalar("bc0.schedActiveCycles")) {
        double active = 0.0;
        for (unsigned b = 0; b < banks; ++b) {
            active += static_cast<double>(
                sys_stats.scalar(statName("bc", b, "schedActiveCycles")));
        }
        r.bcUtilization = active / (static_cast<double>(banks) *
                                    static_cast<double>(r.cycles));
    }
    for (unsigned i = 0; i < rung.names.size(); ++i) {
        const std::string &name = rung.names[i];
        StreamResult s;
        s.name = name;
        s.requests = rung.arbiter->source(i).emitted();
        s.completed = stats.completed(i);
        s.deferrals = stats.deferrals(i);
        s.shedDeadline = stats.shedDeadline(i);
        s.shedOverload = stats.shedOverload(i);
        s.queuePeak = stats.queuePeak(i);
        s.words = stats.set().scalar("traffic." + name + ".wordsRead") +
                  stats.set().scalar("traffic." + name + ".wordsWritten");
        s.queueDelay = stats.queueDelay(i);
        s.serviceLatency = stats.serviceLatency(i);
        s.totalLatency = stats.totalLatency(i);
        r.streams.push_back(std::move(s));
    }
    return r;
}

double
setupLadder(const LadderSpec &spec)
{
    Tracer off(false);
    double total = 0.0;
    for (SystemKind kind : spec.systems) {
        for (double load : spec.loads) {
            const std::int64_t t0 = nowNs();
            Rung r = setupRung(spec, kind, load, off);
            total += static_cast<double>(nowNs() - t0) * 1e-9;
        }
    }
    return total;
}

Report
runLadder(const LadderSpec &spec, Tracer &tr, std::string &output)
{
    Report rep;
    std::vector<LoadPoint> points;
    for (SystemKind kind : spec.systems) {
        for (double load : spec.loads) {
            Scope point(tr, "traffic.point");
            Rung rung = setupRung(spec, kind, load, tr);
            Simulation sim(spec.config.clocking);
            sim.add(rung.sys.get());
            {
                DriverRun run(tr, *rung.sys, "traffic.service");
                StreamArbiter &arb = *rung.arbiter;
                sim.runUntil(
                    [&] {
                        bool done = false;
                        Cycle wake = 0;
                        {
                            FoldTimer f(tr, run.fold());
                            done = arb.service(run.system(), sim.now());
                            if (!done)
                                wake = arb.nextWake(sim.now());
                        }
                        if (!done)
                            sim.requestWake(wake);
                        return done;
                    },
                    RunLimits{}.maxCycles, 0.0);
            }
            LoadPoint p;
            p.system = kind;
            p.offered = load;
            {
                Scope s(tr, "traffic.summarize");
                p.result = summarizeRung(rung, sim, spec.config);
            }
            addRunCounts(rep.counts, *rung.sys, kind, sim);
            rep.counts["traffic.grants"] +=
                static_cast<double>(p.result.completed);
            rep.counts["traffic.deferrals"] +=
                static_cast<double>(rung.stats->deferralsTotal());
            rep.counts["traffic.shed"] +=
                static_cast<double>(p.result.shed);
            points.push_back(std::move(p));
        }
    }
    std::ostringstream os;
    {
        Scope s(tr, "io.emit");
        writeLoadJson(os, points);
    }
    output = os.str();
    return rep;
}

// --------------------------------------------------------------- fleet

/** One shard's tenants and arbiter, built as runFleet's task does. */
struct Shard
{
    fleet::Scenario scenario;
    std::vector<std::string> tenantNames;
    std::vector<std::unique_ptr<ServiceStats>> tenantStats;
    fleet::MessageBus bus;
    std::uint64_t busGrants = 0;
    std::uint64_t busSheds = 0;
    std::uint64_t streams = 0;
    std::unique_ptr<MemorySystem> sys;
    std::unique_ptr<fleet::FleetArbiter> arbiter;
};

/** Set up the whole fleet as one shard (the scenario has shards 1). */
std::unique_ptr<Shard>
setupFleet(const std::string &text, Tracer &tr)
{
    auto sh = std::make_unique<Shard>();
    {
        Scope s(tr, "io.parse");
        sh->scenario = fleet::parseScenarioText(text);
    }
    const fleet::FleetConfig &fc = sh->scenario.config;
    if (fc.shards != 1)
        fatal("the fleet harness drives one shard; the scenario has %u",
              fc.shards);
    constexpr std::uint64_t kRetrySeedStep = 0x9e3779b97f4a7c15ULL;
    std::vector<fleet::TenantSeat> seats;
    {
        Scope s(tr, "fleet.build");
        std::uint64_t global = 0;
        for (const fleet::TenantSpec &spec : fc.tenants) {
            for (unsigned c = 0; c < spec.count; ++c) {
                const std::string tenant = csprintf(
                    "%s%zu", spec.name.c_str(), sh->tenantNames.size());
                std::vector<StreamSource> sources;
                std::vector<std::string> names;
                sources.reserve(spec.streamsPerTenant);
                names.reserve(spec.streamsPerTenant);
                for (unsigned k = 0; k < spec.streamsPerTenant;
                     ++k, ++global) {
                    StreamConfig sc = spec.stream;
                    sc.name = csprintf("s%u", k);
                    sc.seed = spec.stream.seed +
                              kRetrySeedStep * (global + 1);
                    if (spec.regionStrideWords > 0) {
                        sc.pattern.regionBase =
                            spec.stream.pattern.regionBase +
                            global * spec.regionStrideWords;
                    }
                    sources.emplace_back(sc, k, fc.config.bc.lineWords);
                    names.push_back(sources.back().name());
                }
                sh->tenantStats.push_back(std::make_unique<ServiceStats>(
                    names, fc.perStreamStats
                               ? ServiceStats::Detail::PerStream
                               : ServiceStats::Detail::AggregateOnly,
                    tenant));
                fleet::TenantSeat seat;
                seat.name = tenant;
                seat.sources = std::move(sources);
                seat.stats = sh->tenantStats.back().get();
                seats.push_back(std::move(seat));
                sh->tenantNames.push_back(tenant);
            }
        }
        sh->streams = global;
        Shard *raw = sh.get();
        sh->bus.subscribe<fleet::GrantEvent>(
            [raw](const fleet::GrantEvent &) { ++raw->busGrants; });
        sh->bus.subscribe<fleet::ShedEvent>(
            [raw](const fleet::ShedEvent &) { ++raw->busSheds; });
    }
    {
        Scope s(tr, "setup.make_system");
        sh->sys = makeSystem(fc.system, fc.config);
    }
    Scope s(tr, "fleet.build");
    sh->arbiter = std::make_unique<fleet::FleetArbiter>(
        fc.arbiter, std::move(seats), sh->bus);
    sh->arbiter->applyPokes(sh->sys->memory());
    return sh;
}

/** The FleetResult runFleet merges from a one-shard run. */
fleet::FleetResult
mergeFleet(const Shard &sh, const Simulation &sim)
{
    fleet::FleetResult r;
    r.shards = 1;
    r.tenants = sh.tenantNames.size();
    r.streams = sh.streams;
    r.cycles = sim.now();
    r.simTicks = sim.simTicks();
    r.cyclesSkipped = sim.cyclesSkipped();
    r.grants = sh.arbiter->grants();
    r.busGrants = sh.busGrants;
    r.busSheds = sh.busSheds;
    ServiceStats shard(std::vector<std::string>{},
                       ServiceStats::Detail::AggregateOnly, "fleet");
    for (std::size_t j = 0; j < sh.tenantStats.size(); ++j) {
        const ServiceStats &st = *sh.tenantStats[j];
        shard.mergeFrom(st);
        fleet::TenantResult tr;
        tr.name = sh.tenantNames[j];
        tr.shard = 0;
        tr.arrivals = st.arrivalsTotal();
        tr.completed = st.completedTotal();
        tr.deferrals = st.deferralsTotal();
        tr.shedDeadline = st.shedDeadlineTotal();
        tr.shedOverload = st.shedOverloadTotal();
        tr.queuePeak = st.queuePeakTotal();
        tr.words = st.wordsTotal();
        tr.queueDelay = st.aggregateQueueDelay();
        tr.serviceLatency = st.aggregateServiceLatency();
        tr.totalLatency = st.aggregateTotalLatency();
        r.tenantResults.push_back(std::move(tr));
    }
    ServiceStats total(std::vector<std::string>{},
                       ServiceStats::Detail::AggregateOnly, "fleet");
    total.mergeFrom(shard);
    r.completed = total.completedTotal();
    r.words = total.wordsTotal();
    r.shed = total.shedTotal();
    if (r.completed + r.shed > 0) {
        r.shedRate = static_cast<double>(r.shed) /
                     static_cast<double>(r.completed + r.shed);
    }
    if (r.cycles > 0) {
        r.requestsPerKilocycle = static_cast<double>(r.completed) *
                                 1000.0 / static_cast<double>(r.cycles);
        r.wordsPerCycle = static_cast<double>(r.words) /
                          static_cast<double>(r.cycles);
    }
    if (sh.arbiter->occupancyCycles() > 0) {
        r.meanInFlight =
            static_cast<double>(sh.arbiter->occupancySum()) /
            static_cast<double>(sh.arbiter->occupancyCycles());
    }
    r.queueDelay = total.aggregateQueueDelay();
    r.serviceLatency = total.aggregateServiceLatency();
    r.totalLatency = total.aggregateTotalLatency();
    return r;
}

double
setupFleetOnce(const std::string &text)
{
    Tracer off(false);
    const std::int64_t t0 = nowNs();
    std::unique_ptr<Shard> sh = setupFleet(text, off);
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

Report
runFleet(const std::string &text, Tracer &tr, std::string &output)
{
    Report rep;
    const double rss0 = rssBytes();
    std::unique_ptr<Shard> sh = setupFleet(text, tr);
    rep.rssBytesPerStream =
        (rssBytes() - rss0) / static_cast<double>(sh->streams);
    const fleet::FleetConfig &fc = sh->scenario.config;
    Simulation sim(fc.config.clocking);
    sim.add(sh->sys.get());
    {
        DriverRun run(tr, *sh->sys, "fleet.service");
        fleet::FleetArbiter &arb = *sh->arbiter;
        sim.runUntil(
            [&] {
                bool done = false;
                Cycle wake = 0;
                {
                    FoldTimer f(tr, run.fold());
                    done = arb.service(run.system(), sim.now());
                    if (!done)
                        wake = arb.nextWake(sim.now());
                }
                if (!done)
                    sim.requestWake(wake);
                return done;
            },
            fc.limits.maxCycles, fc.limits.timeoutMillis);
    }
    fleet::FleetResult r;
    {
        Scope s(tr, "fleet.merge");
        r = mergeFleet(*sh, sim);
    }
    addRunCounts(rep.counts, *sh->sys, fc.system, sim);
    rep.counts["fleet.grants"] = static_cast<double>(r.grants);
    rep.counts["fleet.streams"] = static_cast<double>(r.streams);
    rep.counts["fleet.shed"] = static_cast<double>(r.shed);
    for (const fleet::TenantResult &t : r.tenantResults)
        rep.counts["fleet.deferrals"] += static_cast<double>(t.deferrals);
    std::ostringstream os;
    {
        Scope s(tr, "io.emit");
        fleet::writeScenarioResult(os, sh->scenario, r);
    }
    output = os.str();
    return rep;
}

// ---------------------------------------------------------------- main

void
jsonNumbers(std::ostream &os, const std::map<std::string, double> &m)
{
    os << '{';
    const char *sep = "";
    for (const auto &[k, v] : m) {
        os << sep << '"' << k << "\": " << csprintf("%.17g", v);
        sep = ", ";
    }
    os << '}';
}

void
jsonList(std::ostream &os, const std::vector<double> &v)
{
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << csprintf("%.17g", v[i]);
    os << ']';
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

bool
ndebug()
{
#ifdef NDEBUG
    return true;
#else
    return false;
#endif
}

int
mainBody(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: pva_perfbench "
                     "<paper-grid|traffic-ladder|fleet-100k> "
                     "<setup|run> [key=value ...]\n");
        return 2;
    }
    const std::string workload = argv[1];
    const std::string mode = argv[2];
    const auto params = parseParams(argc, argv, 3);
    if (workload != "paper-grid" && workload != "traffic-ladder" &&
        workload != "fleet-100k") {
        fatal("unknown workload '%s'", workload.c_str());
    }
    const std::string scenario = workload == "fleet-100k"
        ? readFile(param(params, "scenario"))
        : std::string();

    std::ostringstream os;
    os << "{\"workload\": \"" << workload << "\", \"mode\": \"" << mode
       << "\", \"build_type\": \"" << PVA_BENCH_BUILD_TYPE
       << "\", \"ndebug\": " << (ndebug() ? "true" : "false")
       << ", \"compiler\": \"" << compilerName() << "\"";

    if (mode == "setup") {
        const std::uint64_t reps = u64Param(params, "reps");
        std::vector<double> times;
        for (std::uint64_t i = 0; i < reps; ++i) {
            if (workload == "paper-grid")
                times.push_back(setupGrid());
            else if (workload == "traffic-ladder")
                times.push_back(setupLadder(ladderSpec(params)));
            else
                times.push_back(setupFleetOnce(scenario));
        }
        os << ", \"setup_s\": ";
        jsonList(os, times);
    } else if (mode == "run") {
        Tracer tr(u64Param(params, "trace") != 0);
        std::string output;
        const std::int64_t t0 = nowNs();
        Report rep;
        {
            Scope root(tr, "workload");
            if (workload == "paper-grid")
                rep = runGrid(tr, output);
            else if (workload == "traffic-ladder")
                rep = runLadder(ladderSpec(params), tr, output);
            else
                rep = runFleet(scenario, tr, output);
        }
        const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
        const std::string &out_path = param(params, "out");
        std::ofstream out(out_path, std::ios::binary);
        out << output;
        if (!out)
            fatal("cannot write '%s'", out_path.c_str());
        if (tr.on())
            tr.write(param(params, "spans"));
        rep.counts["io.bytes"] = static_cast<double>(output.size());
        os << ", \"trace\": " << (tr.on() ? 1 : 0)
           << ", \"wall_s\": " << csprintf("%.17g", wall)
           << ", \"rss_bytes_per_stream\": "
           << csprintf("%.17g", rep.rssBytesPerStream)
           << ", \"counts\": ";
        jsonNumbers(os, rep.counts);
        os << ", \"self_s\": ";
        jsonNumbers(os, tr.selfSeconds());
        os << ", \"point_ms\": ";
        jsonList(os, rep.pointMillis);
    } else {
        fatal("unknown mode '%s' (setup or run)", mode.c_str());
    }
    os << "}\n";
    std::cout << os.str();
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return mainBody(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pva_perfbench: %s\n", e.what());
        return 1;
    }
}
