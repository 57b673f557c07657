/**
 * @file
 * Fleet subsystem tests.
 *
 * The load-bearing ones are the differentials against the flat
 * StreamArbiter, driven here by referenceTraffic() — runTraffic's loop
 * with a StreamArbiter in place of its one-tenant FleetArbiter:
 *
 *  - runTraffic (a one-tenant FleetArbiter) must produce the same
 *    TrafficResult JSON, byte for byte: drain cycle, processed and
 *    skipped cycles, mean occupancy, and every stream's latencies,
 *    deferrals, queue peak and shed counts. Systems x policies x
 *    clocking modes x shed configurations, plus closed-loop and
 *    trace-replay arrivals.
 *  - runFleet with one tenant must match it too (drain cycle, latency
 *    distributions, counters), which is what licenses every
 *    fleet-scale number the capacity-planning recipes produce.
 *
 * The rest holds the sharded runner to its determinism contract
 * (byte-identical JSON at any worker count), checks conservation
 * across tenants, and cross-checks the MessageBus telemetry path
 * against the arbiter's own counters.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "fleet/fleet_runner.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"
#include "traffic/arbiter.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;

namespace
{

/** The fleet runner's per-stream seed mix (fleet/fleet_runner.hh). */
constexpr std::uint64_t kSeedStep = 0x9e3779b97f4a7c15ULL;

struct Variant
{
    SystemKind system;
    ArbPolicy policy;
    ClockingMode clocking;
    bool shed;
};

std::string
variantName(const Variant &v)
{
    std::string s = systemShortName(v.system);
    s += "/";
    s += arbPolicyName(v.policy);
    s += "/";
    s += clockingModeName(v.clocking);
    s += v.shed ? "/shed" : "/noshed";
    return s;
}

/** Shared stream shape: open-loop so shedding has queues to cut. */
StreamConfig
templateStream(bool shed)
{
    StreamConfig s;
    s.mode = ArrivalMode::OpenLoop;
    s.requestsPerKilocycle = shed ? 60.0 : 20.0;
    s.requests = 48;
    s.queueCapacity = 8;
    s.seed = 9;
    s.pattern.minLength = 8;
    s.pattern.maxLength = 8;
    s.pattern.regionWords = 1 << 14;
    return s;
}

fleet::FleetConfig
fleetConfig(const Variant &v, unsigned streams)
{
    fleet::FleetConfig fc;
    fc.system = v.system;
    fc.config.clocking = v.clocking;
    fc.arbiter.policy = v.policy;
    fc.arbiter.agingThreshold = 512;
    fc.arbiter.shed.enabled = v.shed;
    fc.arbiter.shed.defaultDeadline = 400;
    fc.arbiter.shed.queueHighWatermark = 0.75;
    fc.perStreamStats = true;

    fleet::TenantSpec spec;
    spec.count = 1;
    spec.streamsPerTenant = streams;
    spec.stream = templateStream(v.shed);
    spec.regionStrideWords = spec.stream.pattern.regionWords;
    fc.tenants.push_back(spec);
    return fc;
}

/** The flat twin: same streams, same seeds, same regions. */
TrafficConfig
flatTwin(const Variant &v, unsigned streams)
{
    TrafficConfig tc;
    tc.system = v.system;
    tc.config.clocking = v.clocking;
    tc.arbiter.policy = v.policy;
    tc.arbiter.agingThreshold = 512;
    tc.arbiter.shed.enabled = v.shed;
    tc.arbiter.shed.defaultDeadline = 400;
    tc.arbiter.shed.queueHighWatermark = 0.75;
    const StreamConfig base = templateStream(v.shed);
    for (unsigned g = 0; g < streams; ++g) {
        StreamConfig s = base;
        s.seed = base.seed + kSeedStep * (g + 1);
        s.pattern.regionBase =
            base.pattern.regionBase + g * base.pattern.regionWords;
        if (v.policy == ArbPolicy::Priority)
            s.priority = 0;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

void
expectSummaryEq(const LatencySummary &a, const LatencySummary &b,
                const std::string &what)
{
    EXPECT_EQ(a.samples, b.samples) << what;
    EXPECT_EQ(a.min, b.min) << what;
    EXPECT_EQ(a.max, b.max) << what;
    EXPECT_DOUBLE_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.p50, b.p50) << what;
    EXPECT_EQ(a.p95, b.p95) << what;
    EXPECT_EQ(a.p99, b.p99) << what;
    EXPECT_EQ(a.p999, b.p999) << what;
}

template <typename Result>
std::string
jsonOf(const Result &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

/**
 * The flat reference: runTraffic's loop with a StreamArbiter in
 * place of the FleetArbiter, reduced to the TrafficResult fields
 * dumpJson writes.
 */
TrafficResult
referenceTraffic(const TrafficConfig &config)
{
    std::vector<StreamSource> sources;
    std::vector<std::string> names;
    for (unsigned i = 0; i < config.streams.size(); ++i) {
        sources.emplace_back(config.streams[i], i,
                             config.config.bc.lineWords);
        names.push_back(sources.back().name());
    }
    auto sys = makeSystem(config.system, config.config);
    ServiceStats stats(names);
    StreamArbiter arbiter(config.arbiter, std::move(sources), stats);
    arbiter.applyPokes(sys->memory());

    Simulation sim(config.config.clocking);
    sim.add(sys.get());
    sim.runUntil(
        [&] {
            bool done = arbiter.service(*sys, sim.now());
            if (!done)
                sim.requestWake(arbiter.nextWake(sim.now()));
            return done;
        },
        config.limits.maxCycles, config.limits.timeoutMillis);

    TrafficResult r;
    r.cycles = sim.now();
    r.simTicks = sim.simTicks();
    r.cyclesSkipped = sim.cyclesSkipped();
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

    const StatSet &sys_stats = sys->stats();
    const unsigned banks = config.config.geometry.banks();
    if (r.cycles > 0 && banks > 0 &&
        sys_stats.hasScalar("bc0.schedActiveCycles")) {
        double active = 0.0;
        for (unsigned b = 0; b < banks; ++b) {
            active += static_cast<double>(sys_stats.scalar(
                "bc" + std::to_string(b) + ".schedActiveCycles"));
        }
        r.bcUtilization = active / (static_cast<double>(banks) *
                                    static_cast<double>(r.cycles));
    }
    for (unsigned i = 0; i < names.size(); ++i) {
        StreamResult st;
        st.name = names[i];
        st.requests = arbiter.source(i).emitted();
        st.completed = stats.completed(i);
        st.deferrals = stats.deferrals(i);
        st.shedDeadline = stats.shedDeadline(i);
        st.shedOverload = stats.shedOverload(i);
        st.queuePeak = stats.queuePeak(i);
        st.words =
            stats.set().scalar("traffic." + names[i] + ".wordsRead") +
            stats.set().scalar("traffic." + names[i] + ".wordsWritten");
        st.queueDelay = stats.queueDelay(i);
        st.serviceLatency = stats.serviceLatency(i);
        st.totalLatency = stats.totalLatency(i);
        r.streams.push_back(std::move(st));
    }
    return r;
}

/** runTraffic and the flat reference agree on every dumped byte. */
void
expectMatchesReference(const TrafficConfig &tc)
{
    const TrafficResult ref = referenceTraffic(tc);
    const TrafficResult got = runTraffic(tc);
    EXPECT_GT(ref.completed, 0u);
    EXPECT_EQ(jsonOf(got), jsonOf(ref));
}

/** A two-phase trace with pokes and a barrier, for Trace arrivals. */
std::string
writeReplayTrace()
{
    const std::string path = testing::TempDir() + "fleet_replay.trace";
    std::ofstream(path, std::ios::trunc)
        << "poke 4096 42\n"
           "read 4096 19 32\n"
           "write 8192 1 16 100\n"
           "read 12288 3 24\n"
           "barrier\n"
           "read 8192 1 16\n"
           "write 16384 8 32 7\n"
           "read 4096 1 8\n"
           "barrier\n"
           "read 16384 8 32\n";
    return path;
}

} // anonymous namespace

TEST(FleetDifferential, RunTrafficMatchesFlatReferenceOpenLoop)
{
    const unsigned streams = 6;
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::CacheLine}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            for (ClockingMode clocking :
                 {ClockingMode::Exhaustive, ClockingMode::Event}) {
                for (bool shed : {false, true}) {
                    const Variant v{system, policy, clocking, shed};
                    SCOPED_TRACE(variantName(v));
                    TrafficConfig tc = flatTwin(v, streams);
                    // Distinct priorities and a tight queue cap add
                    // aging picks and backpressure deferrals.
                    for (unsigned i = 0; i < streams; ++i) {
                        tc.streams[i].priority = i % 3;
                        tc.streams[i].queueCapacity = 4;
                    }
                    expectMatchesReference(tc);
                }
            }
        }
    }
}

TEST(FleetDifferential, RunTrafficMatchesFlatReferenceClosedLoop)
{
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::Gathering}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            for (ClockingMode clocking :
                 {ClockingMode::Exhaustive, ClockingMode::Event}) {
                for (bool shed : {false, true}) {
                    const Variant v{system, policy, clocking, shed};
                    SCOPED_TRACE(variantName(v));
                    TrafficConfig tc = flatTwin(v, 4);
                    tc.arbiter.shed.defaultDeadline = 150;
                    for (unsigned i = 0; i < tc.streams.size(); ++i) {
                        StreamConfig &s = tc.streams[i];
                        s.mode = ArrivalMode::ClosedLoop;
                        s.window = 3 + i;
                        s.queueCapacity = 4;
                        s.priority = i;
                        s.pattern.readFraction = 0.5;
                    }
                    expectMatchesReference(tc);
                }
            }
        }
    }
}

TEST(FleetDifferential, RunTrafficMatchesFlatReferenceTraceReplay)
{
    const std::string trace = writeReplayTrace();
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::CacheLine}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            for (ClockingMode clocking :
                 {ClockingMode::Exhaustive, ClockingMode::Event}) {
                const Variant v{system, policy, clocking, false};
                SCOPED_TRACE(variantName(v));
                TrafficConfig tc;
                tc.system = system;
                tc.config.clocking = clocking;
                tc.arbiter.policy = policy;
                for (unsigned i = 0; i < 3; ++i) {
                    StreamConfig s;
                    s.mode = ArrivalMode::Trace;
                    s.tracePath = trace;
                    s.window = 1 + i;
                    s.priority = i;
                    tc.streams.push_back(std::move(s));
                }
                expectMatchesReference(tc);
            }
        }
    }
}

TEST(FleetDifferential, DeepQueuesShedFromTheHeadWhileWrapped)
{
    // Overloaded streams with deep queues and a short deadline: every
    // queue grows past one entry, its head advances round the ring as
    // grants pop it, and deadline shedding drops expired heads from a
    // wrapped ring. Both tiers must still match the flat reference.
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::Gathering}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            const Variant v{system, policy, ClockingMode::Event, true};
            SCOPED_TRACE(variantName(v));
            TrafficConfig tc = flatTwin(v, 3);
            tc.arbiter.shed.defaultDeadline = 120;
            tc.arbiter.shed.queueHighWatermark = 1.0;
            for (StreamConfig &s : tc.streams) {
                s.requestsPerKilocycle = 200.0;
                s.requests = 64;
                s.queueCapacity = 6;
            }
            const TrafficResult got = runTraffic(tc);
            std::uint64_t deep_and_shed = 0;
            for (const StreamResult &st : got.streams) {
                EXPECT_GT(st.completed, 0u) << st.name;
                if (st.queuePeak >= 3 && st.shedDeadline > 0)
                    ++deep_and_shed;
            }
            EXPECT_EQ(deep_and_shed, got.streams.size());
            EXPECT_EQ(jsonOf(got), jsonOf(referenceTraffic(tc)));
        }
    }
}

TEST(FleetDifferential, SingleTenantMatchesFlatArbiterExactly)
{
    const unsigned streams = 6;
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::CacheLine}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            for (ClockingMode clocking :
                 {ClockingMode::Exhaustive, ClockingMode::Event}) {
                for (bool shed : {false, true}) {
                    const Variant v{system, policy, clocking, shed};
                    SCOPED_TRACE(variantName(v));
                    const TrafficResult flat =
                        referenceTraffic(flatTwin(v, streams));
                    const fleet::FleetResult hier =
                        fleet::runFleet(fleetConfig(v, streams));

                    EXPECT_EQ(hier.cycles, flat.cycles);
                    EXPECT_EQ(hier.completed, flat.completed);
                    EXPECT_EQ(hier.words, flat.words);
                    EXPECT_EQ(hier.shed, flat.shed);
                    expectSummaryEq(hier.queueDelay, flat.queueDelay,
                                    "queueDelay");
                    expectSummaryEq(hier.serviceLatency,
                                    flat.serviceLatency,
                                    "serviceLatency");
                    expectSummaryEq(hier.totalLatency,
                                    flat.totalLatency, "totalLatency");
                    // Telemetry observed on the bus must agree with
                    // the counters the arbiter kept itself.
                    EXPECT_EQ(hier.busGrants, hier.grants);
                    EXPECT_EQ(hier.busSheds, hier.shed);
                }
            }
        }
    }
}

TEST(FleetDifferential, PriorityRampMatchesFlatUnderAging)
{
    // Distinct priorities exercise the aged-head starvation guard in
    // the hierarchical root arbiter.
    Variant v{SystemKind::PvaSdram, ArbPolicy::Priority,
              ClockingMode::Event, false};
    const unsigned streams = 5;

    fleet::FleetConfig fc;
    fc.system = v.system;
    fc.arbiter.policy = v.policy;
    fc.arbiter.agingThreshold = 256;
    fc.perStreamStats = true;
    for (unsigned g = 0; g < streams; ++g) {
        fleet::TenantSpec spec;
        spec.name = "p";
        spec.count = 1;
        spec.streamsPerTenant = 1;
        spec.stream = templateStream(false);
        spec.stream.priority = g;
        spec.stream.seed = 9 + 100 * g;
        spec.stream.pattern.regionBase =
            static_cast<WordAddr>(g) << 14;
        fc.tenants.push_back(spec);
    }

    TrafficConfig tc;
    tc.system = v.system;
    tc.arbiter.policy = v.policy;
    tc.arbiter.agingThreshold = 256;
    for (unsigned g = 0; g < streams; ++g) {
        StreamConfig s = templateStream(false);
        s.priority = g;
        // Tenant g's only stream has global index g.
        s.seed = (9 + 100 * g) + kSeedStep * (g + 1);
        s.pattern.regionBase = static_cast<WordAddr>(g) << 14;
        tc.streams.push_back(std::move(s));
    }

    const TrafficResult flat = referenceTraffic(tc);
    const fleet::FleetResult hier = fleet::runFleet(fc);
    EXPECT_EQ(hier.cycles, flat.cycles);
    EXPECT_EQ(hier.completed, flat.completed);
    expectSummaryEq(hier.totalLatency, flat.totalLatency,
                    "totalLatency");
}

TEST(FleetRunner, ResultsAreByteIdenticalAcrossWorkerCounts)
{
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, true};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 8;
    fc.tenants[0].name = "t";
    fc.shards = 4;
    fc.perStreamStats = false;

    std::string first;
    for (unsigned jobs : {1u, 2u, 8u}) {
        fc.jobs = jobs;
        const std::string dump = jsonOf(fleet::runFleet(fc));
        if (first.empty())
            first = dump;
        else
            EXPECT_EQ(dump, first) << "jobs=" << jobs;
    }
}

TEST(FleetRunner, ReshardingPreservesPerTenantWork)
{
    // Offered work is a pure function of the scenario; sharding only
    // changes which streams contend. Per-tenant completions must be
    // identical at any shard count (each shard is its own memory
    // system, so per-tenant latency legitimately changes).
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, false};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 6;

    std::vector<std::uint64_t> completions;
    for (unsigned shards : {1u, 2u, 6u}) {
        fc.shards = shards;
        const fleet::FleetResult r = fleet::runFleet(fc);
        std::vector<std::uint64_t> got;
        for (const fleet::TenantResult &t : r.tenantResults)
            got.push_back(t.completed);
        ASSERT_EQ(got.size(), 6u);
        if (completions.empty())
            completions = got;
        else
            EXPECT_EQ(got, completions) << "shards=" << shards;
    }
}

TEST(FleetRunner, MultiTenantTotalsAreConserved)
{
    Variant v{SystemKind::PvaSdram, ArbPolicy::RoundRobin,
              ClockingMode::Event, true};
    fleet::FleetConfig fc = fleetConfig(v, 3);
    fc.tenants[0].count = 5;
    fc.shards = 2;

    const fleet::FleetResult r = fleet::runFleet(fc);
    EXPECT_EQ(r.tenants, 5u);
    EXPECT_EQ(r.streams, 15u);
    EXPECT_EQ(r.shards, 2u);
    std::uint64_t completed = 0, shed = 0, words = 0;
    for (const fleet::TenantResult &t : r.tenantResults) {
        completed += t.completed;
        shed += t.shedDeadline + t.shedOverload;
        words += t.words;
    }
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(shed, r.shed);
    EXPECT_EQ(words, r.words);
    EXPECT_EQ(r.grants, r.completed);
    EXPECT_EQ(r.busGrants, r.grants);
    EXPECT_EQ(r.busSheds, r.shed);
    // Every stream either completed or shed its offered requests.
    EXPECT_EQ(r.completed + r.shed,
              static_cast<std::uint64_t>(15 * 48));
}

TEST(FleetRunner, TimingCheckComposesAtFleetScale)
{
    // Disjoint per-stream regions keep the shadow-memory check clean.
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, false};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 3;
    fc.config.timingCheck = true;
    fc.tenants[0].stream.pattern.readFraction = 0.5;
    const fleet::FleetResult r = fleet::runFleet(fc);
    EXPECT_EQ(r.completed, 6u * 48u);
}

TEST(FleetRunner, RejectsEmptyAndMalformedFleets)
{
    fleet::FleetConfig fc;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "tenant");

    fleet::TenantSpec spec;
    spec.count = 0;
    fc.tenants.push_back(spec);
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "count");

    fc.tenants[0].count = 1;
    fc.tenants[0].streamsPerTenant = 0;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "streams");
}
