#include "fleet/fleet_runner.hh"

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

#include "fleet/fleet_arbiter.hh"
#include "fleet/message_bus.hh"
#include "kernels/sweep_executor.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva::fleet
{

namespace
{

/** Where tenant @p t's spec and global stream range live. */
struct TenantLayout
{
    std::size_t spec = 0;
    std::uint64_t firstStream = 0;
    std::string name;
};

/** Everything one shard task hands back for the merge. */
struct ShardOutcome
{
    /** Shard-level aggregate, with the root tier's occupancy. */
    std::unique_ptr<ServiceStats> merged;
    std::vector<TenantResult> tenantResults; ///< Local tenant order
    Cycle cycles = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t grants = 0;
    std::uint64_t busGrants = 0;
    std::uint64_t busSheds = 0;
};

} // anonymous namespace

void
FleetResult::dumpJson(json::Writer &w) const
{
    w.beginObject().member("cycles", cycles).member("shards", shards);
    w.member("tenants", tenants).member("streams", streams);
    w.member("completed", completed).member("words", words);
    w.member("grants", grants).member("shed", shed);
    w.member("shedRate", shedRate);
    w.member("requestsPerKilocycle", requestsPerKilocycle);
    w.member("wordsPerCycle", wordsPerCycle);
    w.member("meanInFlight", meanInFlight);
    w.member("simTicks", simTicks).member("cyclesSkipped", cyclesSkipped);
    w.member("busGrants", busGrants).member("busSheds", busSheds);
    writeLatencyJson(w, "queueDelay", queueDelay);
    writeLatencyJson(w, "serviceLatency", serviceLatency);
    writeLatencyJson(w, "totalLatency", totalLatency);
    w.key("tenantResults").beginArray();
    for (const TenantResult &t : tenantResults) {
        w.beginObject().member("name", t.name).member("shard", t.shard);
        w.member("arrivals", t.arrivals);
        t.dumpJsonMembers(w);
        w.endObject();
    }
    w.endArray().endObject();
}

FleetResult
runFleet(const FleetConfig &config)
{
    if (config.tenants.empty()) {
        throw SimError(SimErrorKind::Config, "fleet", kNeverCycle,
                       "at least one tenant spec is required");
    }
    // One template per spec, shared read-only by every stream (and
    // shard) stamped from it: validation and any trace parse run once,
    // and each stream keeps only its name, seed and region.
    std::vector<std::shared_ptr<const StreamTemplate>> templates;
    templates.reserve(config.tenants.size());
    for (const TenantSpec &spec : config.tenants) {
        if (spec.count == 0) {
            throw SimError(SimErrorKind::Config, "fleet", kNeverCycle,
                           csprintf("tenant spec '%s' has count 0",
                                    spec.name.c_str()));
        }
        if (spec.streamsPerTenant == 0) {
            throw SimError(
                SimErrorKind::Config, "fleet", kNeverCycle,
                csprintf("tenant spec '%s' has 0 streams per tenant",
                         spec.name.c_str()));
        }
        StreamConfig sc = spec.stream;
        sc.name.clear(); // streams are "s<local>"
        try {
            templates.push_back(std::make_shared<const StreamTemplate>(
                std::move(sc), config.config.bc.lineWords));
        } catch (const SimError &e) {
            throw SimError(SimErrorKind::Config, "fleet", kNeverCycle,
                           csprintf("tenant spec '%s': %s",
                                    spec.name.c_str(),
                                    e.detail().c_str()));
        }
    }

    // Lay the fleet out flat: tenant and stream indices are global,
    // assigned spec by spec, so seeds and regions are a pure function
    // of the scenario (not of sharding or scheduling).
    std::vector<TenantLayout> layout;
    std::uint64_t globalStream = 0;
    for (std::size_t si = 0; si < config.tenants.size(); ++si) {
        const TenantSpec &spec = config.tenants[si];
        for (unsigned c = 0; c < spec.count; ++c) {
            TenantLayout tl;
            tl.spec = si;
            tl.firstStream = globalStream;
            tl.name = csprintf("%s%zu", spec.name.c_str(),
                               layout.size());
            layout.push_back(std::move(tl));
            globalStream += spec.streamsPerTenant;
        }
    }
    const std::uint64_t totalTenants = layout.size();
    const std::uint64_t totalStreams = globalStream;

    unsigned shards = std::max(1u, config.shards);
    shards = static_cast<unsigned>(
        std::min<std::uint64_t>(shards, totalTenants));

    const ServiceStats::Detail detail = config.perStreamStats
        ? ServiceStats::Detail::PerStream
        : ServiceStats::Detail::AggregateOnly;

    std::vector<ShardOutcome> outcomes(shards);

    auto task = [&](std::size_t s, unsigned attempt) {
        SystemConfig sys_cfg = config.config;
        sys_cfg.faults.reseedForRetry(attempt);

        MessageBus bus;
        std::vector<std::unique_ptr<ServiceStats>> tenantStats;
        std::vector<TenantSeat> seats;
        for (std::uint64_t t = s; t < totalTenants;
             t += shards) {
            const TenantLayout &tl = layout[t];
            const TenantSpec &spec = config.tenants[tl.spec];
            std::vector<StreamSource> sources;
            sources.reserve(spec.streamsPerTenant);
            for (unsigned k = 0; k < spec.streamsPerTenant; ++k) {
                const std::uint64_t g = tl.firstStream + k;
                sources.emplace_back(
                    templates[tl.spec], k,
                    spec.stream.seed + kSeedMixStep * (g + 1),
                    spec.stream.pattern.regionBase +
                        g * spec.regionStrideWords);
            }
            // The template names no stream, so the stats' default
            // "s<k>" names are the streams' own.
            tenantStats.push_back(std::make_unique<ServiceStats>(
                std::size_t{spec.streamsPerTenant}, detail, tl.name));
            TenantSeat seat;
            seat.name = tl.name;
            seat.sources = std::move(sources);
            seat.stats = tenantStats.back().get();
            seats.push_back(std::move(seat));
        }

        // A decoupled telemetry sink: counts grants and sheds off the
        // bus, never touching the arbiter (FleetResult cross-checks it
        // against the arbiter's own counters).
        std::uint64_t busGrants = 0, busSheds = 0;
        bus.subscribe<GrantEvent>(
            [&busGrants](const GrantEvent &) { ++busGrants; });
        bus.subscribe<ShedEvent>(
            [&busSheds](const ShedEvent &) { ++busSheds; });

        const SeatRun run =
            runSeats(config.system, sys_cfg, config.arbiter,
                     std::move(seats), config.limits, bus);

        ShardOutcome out;
        out.cycles = run.cycles;
        out.simTicks = run.simTicks;
        out.cyclesSkipped = run.cyclesSkipped;
        out.grants = run.arbiter->grants();
        out.busGrants = busGrants;
        out.busSheds = busSheds;
        out.merged = std::make_unique<ServiceStats>(
            0, ServiceStats::Detail::AggregateOnly, "fleet");
        out.merged->onOccupancy(run.arbiter->occupancyCycles(),
                                run.arbiter->occupancySum());
        out.tenantResults.reserve(tenantStats.size());
        for (std::size_t j = 0; j < tenantStats.size(); ++j) {
            const ServiceStats &st = *tenantStats[j];
            out.merged->mergeFrom(st);
            out.tenantResults.push_back(
                {st.totalRow(), layout[s + j * shards].name,
                 static_cast<unsigned>(s), st.arrivalsTotal()});
        }
        outcomes[s] = std::move(out);
    };

    SweepExecutor executor(config.jobs);
    executor.setMaxAttempts(std::max(1u, config.retries));
    TaskReport report = executor.runTasks(shards, task);
    if (!report.allOk()) {
        const TaskFailure &f = report.failures.front();
        throw SimError(
            SimErrorKind::Watchdog, "fleet", kNeverCycle,
            csprintf("shard %zu failed after %u attempts: %s", f.index,
                     f.attempts, f.error.c_str()));
    }

    // Merge in shard-index order: every reduction below is associative
    // and order-fixed, so the result is identical at any --jobs.
    FleetResult r;
    r.shards = shards;
    r.tenants = totalTenants;
    r.streams = totalStreams;
    r.tenantResults.resize(totalTenants);
    ServiceStats fleetStats(0, ServiceStats::Detail::AggregateOnly,
                            "fleet");
    Cycle makespan = 0;
    for (unsigned s = 0; s < shards; ++s) {
        ShardOutcome &out = outcomes[s];
        makespan = std::max(makespan, out.cycles);
        r.simTicks += out.simTicks;
        r.cyclesSkipped += out.cyclesSkipped;
        r.grants += out.grants;
        r.busGrants += out.busGrants;
        r.busSheds += out.busSheds;
        fleetStats.mergeFrom(*out.merged);
        for (std::size_t j = 0; j < out.tenantResults.size(); ++j) {
            r.tenantResults[s + j * shards] =
                std::move(out.tenantResults[j]);
        }
    }
    r.fill(fleetStats, makespan);
    return r;
}

} // namespace pva::fleet
