/**
 * @file
 * Orchestration of traffic runs and offered-load sweeps.
 *
 * runTraffic() seats one TrafficConfig's N stream sources as one
 * tenant of the event-driven fleet::FleetArbiter, runs it to drain on
 * one memory system through fleet::runSeats (fleet/fleet_arbiter.hh) —
 * the run loop every fleet shard uses too — and reduces ServiceStats
 * into a TrafficResult (throughput, latency percentiles, occupancy,
 * bank-controller utilization). The arbiter's per-step cost follows
 * events rather than the stream count; the flat StreamArbiter
 * (traffic/arbiter.hh) is the reference it is tested against.
 *
 * runLoadSweep() evaluates a ladder of offered loads across memory
 * systems on the SweepExecutor's generic task engine, inheriting its
 * worker pool, retry policy, and determinism guarantees; the resulting
 * throughput-latency curves export as CSV or JSON for plotting.
 */

#ifndef PVA_TRAFFIC_TRAFFIC_RUNNER_HH
#define PVA_TRAFFIC_TRAFFIC_RUNNER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "kernels/sweep.hh"
#include "kernels/sweep_executor.hh"
#include "sim/json.hh"
#include "traffic/arbiter.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva
{

/** Everything one traffic run needs. */
struct TrafficConfig
{
    SystemKind system = SystemKind::PvaSdram;
    SystemConfig config{};       ///< System construction knobs
    ArbiterConfig arbiter{};
    std::vector<StreamConfig> streams;
    RunLimits limits{};          ///< Watchdog budgets
};

/** One stream's slice of a TrafficResult. */
struct StreamResult : ServiceRow
{
    std::string name;
    std::uint64_t requests = 0;  ///< Generated (admitted) requests
};

/** Outcome of one traffic run. */
struct TrafficResult : ServiceTotals
{
    double bcUtilization = 0.0; ///< Mean BC scheduler duty cycle (PVA)
    std::uint64_t simTicks = 0;      ///< Cycles actually processed
    std::uint64_t cyclesSkipped = 0; ///< Cycles jumped (event clocking)
    std::uint64_t cyclesPerSecond = 0; ///< Simulated cycles per wall second
    std::vector<StreamResult> streams;

    /** Deterministic single-object JSON dump. */
    void dumpJson(json::Writer &w) const;
    void dumpJson(std::ostream &os) const { json::Writer w(os); dumpJson(w); }
};

/**
 * Run @p config to completion. Throws SimError on unsupportable
 * configuration or watchdog expiry (callers running point grids go
 * through SweepExecutor::runTasks for isolation). When @p stats_dump
 * is non-null, the full ServiceStats registry and the memory system's
 * own StatSet (context occupancy, FIFO depths, ...) are dumped to it
 * before teardown.
 */
TrafficResult runTraffic(const TrafficConfig &config,
                         std::ostream *stats_dump = nullptr);

/** An offered-load ladder across memory systems. */
struct LoadSweepConfig
{
    /** Template run: its streams are re-rated per point (every stream
     *  is forced open-loop; aggregate load splits evenly). */
    TrafficConfig base;
    /** Aggregate offered loads, requests per kilocycle. */
    std::vector<double> offeredLoads;
    /** Systems to sweep (curve per system). */
    std::vector<SystemKind> systems{SystemKind::PvaSdram,
                                    SystemKind::CacheLine,
                                    SystemKind::Gathering};
    unsigned jobs = 0;    ///< Worker threads (0 = hardware)
    unsigned retries = 3; ///< Attempt budget per point
};

/** One point of a throughput-latency curve. */
struct LoadPoint
{
    SystemKind system = SystemKind::PvaSdram;
    double offered = 0.0; ///< Aggregate requests per kilocycle
    TrafficResult result;
    bool failed = false;
    unsigned attempts = 1;
    std::string error;
};

/**
 * Run the ladder on a SweepExecutor worker pool (parallel,
 * fault-tolerant, deterministic across worker counts). Points are
 * ordered systems-outer, loads-inner (ascending offered load), so
 * curves come out monotone in offered load.
 */
std::vector<LoadPoint> runLoadSweep(const LoadSweepConfig &config);

/** @name Throughput-latency curve export
 * CSV: one row per point; JSON: {"points": [...]} with per-stream
 * detail. Both deterministic for a given input.
 * @{ */
void writeLoadCsvHeader(std::ostream &os);
void writeLoadCsvRow(std::ostream &os, const LoadPoint &point);
void writeLoadCsv(std::ostream &os,
                  const std::vector<LoadPoint> &points);
/** The JSON document as the next value of @p w (it ends its line). */
void writeLoadJson(json::Writer &w, const std::vector<LoadPoint> &points);
inline void
writeLoadJson(std::ostream &os, const std::vector<LoadPoint> &points)
{
    json::Writer w(os);
    writeLoadJson(w, points);
}
/** @} */

} // namespace pva

#endif // PVA_TRAFFIC_TRAFFIC_RUNNER_HH
