/**
 * @file
 * Service-level metrics for the traffic subsystem, built on sim/stats.
 *
 * ServiceStats owns, per stream and in aggregate, the counters a
 * serving stack would report: arrivals, admissions, completions,
 * backpressure deferrals, queue-depth peaks, words moved, and three
 * log-scale latency histograms with percentile queries —
 *
 *   queueDelay      arrival -> submit (admission + arbitration wait)
 *   serviceLatency  submit -> completion (the memory system itself)
 *   totalLatency    arrival -> completion (what a client observes)
 *
 * — plus per-cycle samples of the memory system's in-flight
 * transaction count (Vector Context occupancy on the PVA). Everything
 * registers into one StatSet ("traffic.<name>.*" per stream,
 * "traffic.agg.*" aggregate), so text/JSON dumps come for free and
 * tests can assert on named values.
 */

#ifndef PVA_TRAFFIC_SERVICE_STATS_HH
#define PVA_TRAFFIC_SERVICE_STATS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

/** A latency histogram reduced to the reporting quartet. */
struct LatencySummary
{
    std::uint64_t samples = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
};

LatencySummary summarize(const LogHistogram &h);

/** Write @p s as the member @p name of @p w's open object. */
void writeLatencyJson(json::Writer &w, std::string_view name,
                      const LatencySummary &s);

class ServiceStats;

/**
 * The service counters of one result row — a traffic run's stream or
 * a fleet's tenant — as ServiceStats::row and totalRow fill them.
 */
struct ServiceRow
{
    std::uint64_t completed = 0;
    std::uint64_t deferrals = 0; ///< Backpressured admission cycles
    std::uint64_t shedDeadline = 0; ///< Dropped past the deadline budget
    std::uint64_t shedOverload = 0; ///< Dropped at the high watermark
    std::uint64_t queuePeak = 0; ///< Deepest bounded-queue occupancy
    std::uint64_t words = 0;     ///< Elements moved (read + written)
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;

    /** Write these nine members into @p w's open object. */
    void dumpJsonMembers(json::Writer &w) const;
};

/** What a traffic run and a fleet run both report about their service. */
struct ServiceTotals
{
    Cycle cycles = 0;
    std::uint64_t completed = 0;
    std::uint64_t words = 0;
    double requestsPerKilocycle = 0.0; ///< Achieved throughput
    double wordsPerCycle = 0.0;        ///< Achieved bandwidth
    double meanInFlight = 0.0; ///< Mean context occupancy (sampled)
    std::uint64_t shed = 0; ///< Requests dropped (both causes, all streams)
    /** shed / (completed + shed): the fraction of consumed work the
     *  arbiter dropped to protect the latency of the rest. */
    double shedRate = 0.0;
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;

    /** Reduce @p stats — counters, latency histograms and occupancy
     *  samples — of a run that drained at @p drain (the rates'
     *  denominator) into these totals. */
    void fill(const ServiceStats &stats, Cycle drain);
};

/** Per-stream and aggregate service accounting. */
class ServiceStats
{
  public:
    /**
     * How much per-stream state to keep. A fleet-scale tenant
     * (src/fleet/) modeling 10^4+ streams keeps AggregateOnly stats —
     * nine counters, three histograms and a dozen registry names per
     * *stream* would dominate its memory footprint — while the classic
     * traffic path keeps the full per-stream registry.
     */
    enum class Detail
    {
        PerStream,     ///< Per-stream counters + histograms + aggregate
        AggregateOnly, ///< Aggregate counters/histograms only
    };

    /**
     * @param names one display name per stream (used as stat prefix).
     * @param detail per-stream registry or aggregate-only (see Detail).
     * @param prefix stat-name namespace ("traffic" for the classic
     *        arbiter; tenants use their own name so merged registries
     *        cannot collide).
     */
    explicit ServiceStats(const std::vector<std::string> &names,
                          Detail detail = Detail::PerStream,
                          const std::string &prefix = "traffic");

    /**
     * @p streams streams with StreamSource's default names ("s<k>"),
     * which only Detail::PerStream registers. Under AggregateOnly no
     * name is built at all, as a fleet of 10^5+ streams wants.
     */
    ServiceStats(std::size_t streams, Detail detail,
                 const std::string &prefix);

    /** @name Event hooks (called by the arbiters) @{ */
    void onArrival(unsigned stream);
    void onDeferred(unsigned stream);       ///< Backpressure: queue full
    void onShedDeadline(unsigned stream);   ///< Dropped: deadline missed
    void onShedOverload(unsigned stream);   ///< Dropped: high watermark
    void onQueueDepth(unsigned stream, std::size_t depth);
    void onSubmit(unsigned stream, Cycle queue_delay);
    void onComplete(unsigned stream, Cycle service_latency,
                    Cycle total_latency, std::uint32_t words,
                    bool is_read);
    void onCycle(std::size_t in_flight); ///< Context-occupancy sample
    /** @} */

    /** @name Skipped-span credit (event clocking)
     * Under ClockingMode::Event the arbiter is not called on cycles
     * where nothing can change; these credit the per-cycle counters
     * for @p cycles skipped cycles whose state was frozen. @{ */
    void onCycleGap(Cycle cycles, std::size_t in_flight);
    void onDeferredGap(unsigned stream, Cycle cycles);
    /** @} */

    /** Credit @p cycles occupancy samples summing to @p occupancy_sum
     *  at once: a one-tenant traffic run's root-tier counters. */
    void onOccupancy(std::uint64_t cycles, std::uint64_t occupancy_sum);

    std::size_t streams() const { return streamCount; }

    /** Keeping per-stream counters (Detail::PerStream)? */
    bool perStreamDetail() const { return !perStream.empty(); }

    /**
     * Fold @p other into this instance: aggregate counters add,
     * aggregate histograms merge bucket-wise, occupancy samples add,
     * and — when both sides keep per-stream detail with the same
     * stream count — per-stream slots merge index-wise. Associative
     * and order-independent (see LogHistogram::merge), which is what
     * makes sharded fleet runs reduce to one deterministic result.
     */
    void mergeFrom(const ServiceStats &other);

    /** @name Aggregate histogram access (for cross-shard merging) @{ */
    const LogHistogram &aggregateQueueDelayHist() const
    {
        return aggregate.queueDelay;
    }
    const LogHistogram &aggregateServiceLatencyHist() const
    {
        return aggregate.serviceLatency;
    }
    const LogHistogram &aggregateTotalLatencyHist() const
    {
        return aggregate.totalLatency;
    }
    /** @} */

    /** The registered stat registry (for dump/dumpJson/queries). */
    StatSet &set() { return statSet; }
    const StatSet &set() const { return statSet; }

    /** @name Convenience queries
     * The per-stream overloads require Detail::PerStream; the *Total
     * forms work in either mode. @{ */
    std::uint64_t completed(unsigned stream) const;
    std::uint64_t completedTotal() const;
    std::uint64_t arrivalsTotal() const;
    std::uint64_t deferralsTotal() const;
    std::uint64_t shedDeadlineTotal() const;
    std::uint64_t shedOverloadTotal() const;
    std::uint64_t queuePeakTotal() const; ///< Deepest queue, any stream
    std::uint64_t wordsTotal() const;
    std::uint64_t deferrals(unsigned stream) const;
    std::uint64_t shedDeadline(unsigned stream) const;
    std::uint64_t shedOverload(unsigned stream) const;
    std::uint64_t shedTotal() const; ///< All streams, both causes
    std::uint64_t queuePeak(unsigned stream) const;
    LatencySummary queueDelay(unsigned stream) const;
    LatencySummary serviceLatency(unsigned stream) const;
    LatencySummary totalLatency(unsigned stream) const;
    LatencySummary aggregateQueueDelay() const;
    LatencySummary aggregateServiceLatency() const;
    LatencySummary aggregateTotalLatency() const;
    /** Mean in-flight transactions over the sampled cycles. */
    double meanInFlight() const;
    /** Stream @p stream's row (Detail::PerStream only). */
    ServiceRow row(unsigned stream) const;
    /** The aggregate over every stream as one row. */
    ServiceRow totalRow() const;
    /** @} */

  private:
    /** Both public constructors: @p names, or "s<k>" when null. */
    ServiceStats(std::size_t streams, Detail detail,
                 const std::string &prefix,
                 const std::vector<std::string> *names);

    struct StreamCounters
    {
        Scalar arrivals;
        Scalar submitted;
        Scalar completed;
        Scalar deferrals;
        Scalar shedDeadline; ///< Requests dropped past their deadline
        Scalar shedOverload; ///< Requests dropped at the high watermark
        Scalar queuePeak;
        Scalar wordsRead;
        Scalar wordsWritten;
        LogHistogram queueDelay;
        LogHistogram serviceLatency;
        LogHistogram totalLatency;
    };
    static ServiceRow rowOf(const StreamCounters &c);

    StatSet statSet;
    std::size_t streamCount = 0;
    /** unique_ptr keeps registered stat addresses stable. Empty under
     *  Detail::AggregateOnly. */
    std::vector<std::unique_ptr<StreamCounters>> perStream;
    StreamCounters aggregate;
    Scalar statCycles;          ///< Occupancy samples taken
    Scalar statOccupancySum;    ///< Sum of sampled in-flight counts
};

} // namespace pva

#endif // PVA_TRAFFIC_SERVICE_STATS_HH
