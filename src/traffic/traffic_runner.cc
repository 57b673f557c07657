#include "traffic/traffic_runner.hh"

#include <algorithm>
#include <ostream>
#include <set>

#include "fleet/fleet_arbiter.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

void
TrafficResult::dumpJson(json::Writer &w) const
{
    w.beginObject().member("cycles", cycles).member("completed", completed);
    w.member("words", words);
    w.member("requestsPerKilocycle", requestsPerKilocycle);
    w.member("wordsPerCycle", wordsPerCycle);
    w.member("meanInFlight", meanInFlight);
    w.member("bcUtilization", bcUtilization);
    w.member("shed", shed).member("shedRate", shedRate);
    w.member("simTicks", simTicks).member("cyclesSkipped", cyclesSkipped);
    writeLatencyJson(w, "queueDelay", queueDelay);
    writeLatencyJson(w, "serviceLatency", serviceLatency);
    writeLatencyJson(w, "totalLatency", totalLatency);
    w.key("streams").beginArray();
    for (const StreamResult &s : streams) {
        w.beginObject().member("name", s.name).member("requests", s.requests);
        s.dumpJsonMembers(w);
        w.endObject();
    }
    w.endArray().endObject();
}

TrafficResult
runTraffic(const TrafficConfig &config, std::ostream *stats_dump)
{
    if (config.streams.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "at least one stream is required");
    }

    // Build the sources first (they validate their own config) and
    // reject duplicate display names, which would collide in the
    // ServiceStats registry.
    std::vector<StreamSource> sources;
    std::vector<std::string> names;
    std::set<std::string> seen;
    sources.reserve(config.streams.size());
    for (unsigned i = 0; i < config.streams.size(); ++i) {
        sources.emplace_back(config.streams[i], i,
                             config.config.bc.lineWords);
        const std::string &name = sources.back().name();
        if (!seen.insert(name).second) {
            throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                           csprintf("duplicate stream name '%s'",
                                    name.c_str()));
        }
        names.push_back(name);
    }

    // The streams are one tenant of the event-driven fleet arbiter,
    // which is cycle-exact against the flat StreamArbiter
    // (tests/test_fleet.cc); the bus has no subscribers.
    ServiceStats stats(names);
    fleet::MessageBus bus;
    std::vector<fleet::TenantSeat> seats(1);
    seats[0].name = "traffic";
    seats[0].sources = std::move(sources);
    seats[0].stats = &stats;
    fleet::SeatRun run =
        fleet::runSeats(config.system, config.config, config.arbiter,
                        std::move(seats), config.limits, bus, "arbiter");

    // The root tier samples occupancy; credit it to the tenant's stats
    // so traffic.agg.cycles/occupancySum dump as the flat arbiter's.
    stats.onOccupancy(run.arbiter->occupancyCycles(),
                      run.arbiter->occupancySum());
    TrafficResult r;
    r.fill(stats, run.cycles);
    r.simTicks = run.simTicks;
    r.cyclesSkipped = run.cyclesSkipped;
    r.cyclesPerSecond = run.cyclesPerSecond;

    // Bank-controller utilization via the occupancy counters the PVA
    // systems register (bc<i>.schedActiveCycles); baselines have no
    // bank controllers and report 0.
    const StatSet &sys_stats = run.system->stats();
    unsigned banks = config.config.geometry.banks();
    if (r.cycles > 0 && banks > 0 &&
        sys_stats.hasScalar("bc0.schedActiveCycles")) {
        double active = 0.0;
        for (unsigned b = 0; b < banks; ++b) {
            active += static_cast<double>(sys_stats.scalar(
                csprintf("bc%u.schedActiveCycles", b)));
        }
        r.bcUtilization = active / (static_cast<double>(banks) *
                                    static_cast<double>(r.cycles));
    }

    r.streams.reserve(names.size());
    for (unsigned i = 0; i < names.size(); ++i) {
        r.streams.push_back({stats.row(i), names[i],
                             run.arbiter->tenant(0).source(i).emitted()});
    }
    if (stats_dump) {
        stats.set().dump(*stats_dump);
        sys_stats.dump(*stats_dump);
    }
    return r;
}

std::vector<LoadPoint>
runLoadSweep(const LoadSweepConfig &config)
{
    if (config.base.streams.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "load sweep needs at least one stream");
    }
    if (config.offeredLoads.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "load sweep needs at least one offered load");
    }

    // Ascending loads make each curve monotone in offered load.
    std::vector<double> loads = config.offeredLoads;
    std::sort(loads.begin(), loads.end());

    std::vector<LoadPoint> points;
    points.resize(config.systems.size() * loads.size());
    for (std::size_t si = 0; si < config.systems.size(); ++si) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
            LoadPoint &p = points[si * loads.size() + li];
            p.system = config.systems[si];
            p.offered = loads[li];
        }
    }

    SweepExecutor executor(config.jobs);
    executor.setMaxAttempts(config.retries);

    auto task = [&](std::size_t i, unsigned attempt) {
        LoadPoint &p = points[i];
        TrafficConfig tc = config.base;
        tc.system = p.system;
        double per_stream =
            p.offered / static_cast<double>(tc.streams.size());
        for (StreamConfig &s : tc.streams) {
            s.mode = ArrivalMode::OpenLoop;
            s.requestsPerKilocycle = per_stream;
        }
        tc.config.faults.reseedForRetry(attempt);
        p.result = runTraffic(tc);
    };

    auto observe = [&](const TaskProgress &tp) {
        points[tp.index].attempts = tp.attempts;
    };

    TaskReport report = executor.runTasks(points.size(), task, observe);
    for (const TaskFailure &f : report.failures) {
        LoadPoint &p = points[f.index];
        p.failed = true;
        p.error = f.error;
        p.result = TrafficResult{};
    }
    return points;
}

void
writeLoadCsvHeader(std::ostream &os)
{
    os << "system,offered_per_kc,achieved_per_kc,words_per_cycle,"
          "lat_mean,lat_p50,lat_p95,lat_p99,lat_p999,"
          "queue_mean,mean_in_flight,bc_utilization,shed,shed_rate,"
          "completed,cycles,status\n";
}

void
writeLoadCsvRow(std::ostream &os, const LoadPoint &point)
{
    const TrafficResult &r = point.result;
    os << systemShortName(point.system) << ',' << point.offered << ','
       << r.requestsPerKilocycle << ',' << r.wordsPerCycle << ','
       << r.totalLatency.mean << ',' << r.totalLatency.p50 << ','
       << r.totalLatency.p95 << ',' << r.totalLatency.p99 << ','
       << r.totalLatency.p999 << ',' << r.queueDelay.mean << ','
       << r.meanInFlight << ',' << r.bcUtilization << ','
       << r.shed << ',' << r.shedRate << ','
       << r.completed << ',' << r.cycles << ','
       << (point.failed ? "failed" : "ok") << '\n';
}

void
writeLoadCsv(std::ostream &os, const std::vector<LoadPoint> &points)
{
    writeLoadCsvHeader(os);
    for (const LoadPoint &p : points)
        writeLoadCsvRow(os, p);
}

void
writeLoadJson(json::Writer &w, const std::vector<LoadPoint> &points)
{
    w.beginObject().key("points").beginArray(json::Writer::Layout::Block);
    for (const LoadPoint &p : points) {
        w.beginObject().member("system", systemShortName(p.system));
        w.member("offered", p.offered).member("failed", p.failed);
        p.result.dumpJson(w.key("result"));
        w.endObject();
    }
    w.endArray().endObject().endLine();
}

} // namespace pva
