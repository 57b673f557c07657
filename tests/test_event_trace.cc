/**
 * @file
 * Event-tracing tests (docs/OBSERVABILITY.md): Chrome-trace export
 * well-formedness (B/E pairing per track, monotonic timestamps,
 * activate -> CAS -> precharge phases), drop accounting at the buffer
 * cap, track filtering, and the differential guarantee that an
 * installed session changes no cycle counts. The versioned JSON
 * envelope (docs/API.md) is checked in both build flavours; the
 * trace-specific tests compile only with PVA_TRACE=ON and the
 * untraced build instead pins trace::enabled() == false.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/trace.hh"
#include "tool_app.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

TEST(JsonEnvelope, CarriesSchemaVersionToolAndConfig)
{
    ToolApp app("enveloped");
    SystemConfig config;
    std::ostringstream os;
    {
        JsonEnvelope env(os, app, config,
                         {{"kernel", jsonQuote("copy")}});
        env.section("run") << "{\"cycles\": 42}";
    }
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"schemaVersion\": 2, \"tool\": "
                        "\"enveloped\"", 0), 0u) << out;
    EXPECT_NE(out.find("\"config\": {\"banks\": 16"),
              std::string::npos) << out;
    EXPECT_NE(out.find("\"kernel\": \"copy\""), std::string::npos);
    EXPECT_NE(out.find("\"run\": {\"cycles\": 42}"),
              std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 2), "}\n");
}

TEST(JsonEnvelope, QuoteEscapesSpecials)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote(std::string("x\ny")), "\"x y\"");
}

} // anonymous namespace

#if PVA_TRACE_ENABLED

#include <map>
#include <utility>
#include <vector>

#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "traffic/traffic_runner.hh"

namespace
{

/** Install a session for one scope; always uninstalls. */
struct ScopedSession
{
    explicit ScopedSession(trace::TraceConfig cfg = {}) : s(cfg)
    {
        trace::setSession(&s);
    }
    ~ScopedSession() { trace::setSession(nullptr); }
    trace::TraceSession s;
};

RunResult
runCopyStride16(ClockingMode mode = ClockingMode::Event)
{
    SystemConfig config;
    config.clocking = mode;
    auto sys = makeSystem(SystemKind::PvaSdram, config);
    const KernelSpec &spec = kernelSpec(KernelId::Copy);
    WorkloadConfig wl;
    wl.stride = 16;
    wl.elements = 256;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases =
        streamBases(alignmentPresets()[0], spec.numStreams, 16, 256);
    RunLimits limits;
    limits.clocking = mode;
    return runKernelOn(*sys, KernelId::Copy, wl, limits);
}

TrafficConfig
smallTraffic(unsigned streams, std::uint64_t requests)
{
    TrafficConfig tc;
    for (unsigned i = 0; i < streams; ++i) {
        StreamConfig s;
        s.mode = ArrivalMode::ClosedLoop;
        s.requests = requests;
        s.seed = 1 + i;
        s.pattern.regionWords = 1 << 16;
        s.pattern.regionBase = static_cast<WordAddr>(i) << 16;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

/** The exporter emits one JSON object per line; pull the fields the
 *  assertions need with plain string scanning. */
struct EventLine
{
    std::string ph;
    std::string name;
    long pid = -1;
    long tid = -1;
    long long ts = -1;
};

std::string
stringField(const std::string &line, const std::string &key)
{
    std::string tag = "\"" + key + "\": \"";
    std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return {};
    at += tag.size();
    return line.substr(at, line.find('"', at) - at);
}

long long
numField(const std::string &line, const std::string &key)
{
    std::string tag = "\"" + key + "\": ";
    std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return -1;
    return std::stoll(line.substr(at + tag.size()));
}

std::vector<EventLine>
parseEventLines(const std::string &json)
{
    std::vector<EventLine> out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("{\"name\"", 0) != 0 &&
            line.rfind("{\"ph\"", 0) != 0)
            continue;
        EventLine e;
        e.ph = stringField(line, "ph");
        e.name = stringField(line, "name");
        e.pid = numField(line, "pid");
        e.tid = numField(line, "tid");
        e.ts = numField(line, "ts");
        if (!e.ph.empty())
            out.push_back(std::move(e));
    }
    return out;
}

TEST(EventTrace, KernelExportIsWellFormedChromeTrace)
{
    ScopedSession scoped;
    RunResult r = runCopyStride16();
    ASSERT_EQ(r.mismatches, 0u);
    trace::setSession(nullptr);

    std::ostringstream os;
    scoped.s.exportChromeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(scoped.s.dropped(), 0u);
    EXPECT_NE(json.find("\"pvaTrace\": {\"schemaVersion\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

    std::vector<EventLine> events = parseEventLines(json);
    ASSERT_FALSE(events.empty());

    // B/E stack discipline per (pid, tid) track; monotonic ts; the
    // SDRAM protocol phases all present and ordered.
    std::map<std::pair<long, long>, std::vector<std::string>> open;
    long long lastTs = -1;
    long long firstActivate = -1, firstCas = -1, lastPrecharge = -1;
    for (const EventLine &e : events) {
        if (e.ph == "M")
            continue;
        ASSERT_TRUE(e.ph == "B" || e.ph == "E" || e.ph == "i" ||
                    e.ph == "C")
            << e.ph;
        ASSERT_GE(e.ts, lastTs) << "timestamps must be sorted";
        lastTs = e.ts;
        ASSERT_GT(e.pid, 0);
        ASSERT_GT(e.tid, 0);
        auto &stack = open[{e.pid, e.tid}];
        if (e.ph == "B") {
            stack.push_back(e.name);
        } else if (e.ph == "E") {
            ASSERT_FALSE(stack.empty())
                << "E without B on track " << e.tid;
            ASSERT_EQ(stack.back(), e.name);
            stack.pop_back();
        }
        if (e.name == "activate" && firstActivate < 0)
            firstActivate = e.ts;
        if (e.name == "cas_read" && firstCas < 0)
            firstCas = e.ts;
        if (e.name == "auto_precharge" || e.name == "precharge")
            lastPrecharge = e.ts;
    }
    for (const auto &[track, stack] : open)
        EXPECT_TRUE(stack.empty())
            << "unclosed span on pid " << track.first << " tid "
            << track.second;
    ASSERT_GE(firstActivate, 0) << "no activate traced";
    ASSERT_GE(firstCas, 0) << "no CAS traced";
    ASSERT_GE(lastPrecharge, 0) << "no precharge traced";
    EXPECT_LE(firstActivate, firstCas);
    EXPECT_LE(firstCas, lastPrecharge);
}

TEST(EventTrace, TrafficRunEmitsArbiterLifecycle)
{
    ScopedSession scoped;
    TrafficResult r = runTraffic(smallTraffic(2, 16));
    trace::setSession(nullptr);
    ASSERT_GT(r.completed, 0u);

    bool sawEnqueue = false, sawGrant = false, sawComplete = false;
    for (const trace::Event &e : scoped.s.snapshot()) {
        std::string name = e.name;
        sawEnqueue = sawEnqueue || name == "enqueue";
        sawGrant = sawGrant || name == "grant";
        sawComplete = sawComplete || name == "complete";
    }
    EXPECT_TRUE(sawEnqueue);
    EXPECT_TRUE(sawGrant);
    EXPECT_TRUE(sawComplete);
}

TEST(EventTrace, DropsBeyondBufferCapKeepEarliest)
{
    trace::TraceConfig cfg;
    cfg.bufferCapacity = 8;
    trace::TraceSession s(cfg);
    std::uint32_t t = s.registerTrack("p", "t");
    ASSERT_NE(t, 0u);
    for (int i = 0; i < 20; ++i)
        s.record(t, trace::Phase::Instant, i, "e", "i", i);
    EXPECT_EQ(s.recorded(), 8u);
    EXPECT_EQ(s.dropped(), 12u);
    std::vector<trace::Event> kept = s.snapshot();
    ASSERT_EQ(kept.size(), 8u);
    EXPECT_EQ(kept.front().ts, 0u); // earliest events are retained
    EXPECT_EQ(kept.back().ts, 7u);

    std::ostringstream os;
    s.exportChromeJson(os);
    EXPECT_NE(os.str().find("\"dropped\": 12"), std::string::npos);
}

TEST(EventTrace, FilterDisablesNonMatchingTracks)
{
    trace::TraceConfig cfg;
    cfg.filter = "bc*,traffic/arbiter";
    trace::TraceSession s(cfg);
    EXPECT_NE(s.registerTrack("pva", "bc0"), 0u);
    EXPECT_NE(s.registerTrack("traffic", "arbiter"), 0u);
    EXPECT_EQ(s.registerTrack("pva", "frontend"), 0u);
    EXPECT_EQ(s.registerTrack("sim", "clock"), 0u);
    // Recording to a filtered (0) track is a counted-nowhere no-op.
    s.record(0, trace::Phase::Instant, 1, "e");
    EXPECT_EQ(s.recorded(), 0u);
    EXPECT_EQ(s.dropped(), 0u);
}

TEST(EventTrace, GlobMatchSemantics)
{
    EXPECT_TRUE(trace::globMatch("bc*", "bc12"));
    EXPECT_TRUE(trace::globMatch("*", "anything"));
    EXPECT_TRUE(trace::globMatch("pva/txn?", "pva/txn3"));
    EXPECT_TRUE(trace::globMatch("*bus*", "vector bus"));
    EXPECT_FALSE(trace::globMatch("bc*", "dev0"));
    EXPECT_FALSE(trace::globMatch("txn?", "txn12"));
}

TEST(EventTrace, InstalledSessionChangesNoCycleCounts)
{
    RunResult bare = runCopyStride16();
    RunResult traced;
    {
        ScopedSession scoped;
        traced = runCopyStride16();
    }
    EXPECT_EQ(bare.cycles, traced.cycles);
    EXPECT_EQ(bare.simTicks, traced.simTicks);
    EXPECT_EQ(bare.cyclesSkipped, traced.cyclesSkipped);
    EXPECT_EQ(bare.mismatches, traced.mismatches);

    TrafficResult tBare = runTraffic(smallTraffic(2, 12));
    TrafficResult tTraced;
    {
        ScopedSession scoped;
        tTraced = runTraffic(smallTraffic(2, 12));
    }
    EXPECT_EQ(tBare.cycles, tTraced.cycles);
    EXPECT_EQ(tBare.completed, tTraced.completed);
    EXPECT_EQ(tBare.simTicks, tTraced.simTicks);
}

} // anonymous namespace

#else // !PVA_TRACE_ENABLED

TEST(EventTrace, CompiledOutInDefaultBuild)
{
    // The macros expand to nothing and enabled() is a compile-time
    // false; the CI symbol guard additionally asserts no pva::trace::
    // symbol reaches the default binaries.
    static_assert(!pva::trace::enabled(),
                  "default build must not compile tracing in");
    SUCCEED();
}

#endif // PVA_TRACE_ENABLED
