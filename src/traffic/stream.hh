/**
 * @file
 * Multi-stream load generation: the request sources of the traffic
 * subsystem (docs/TRAFFIC.md).
 *
 * A StreamSource produces a deterministic sequence of vector commands
 * under one of three arrival disciplines:
 *
 *  - ClosedLoop: a fixed window of outstanding requests; a new request
 *    arrives the moment a slot frees (classic think-time-zero closed
 *    loop, the discipline of the kernel harness).
 *  - OpenLoop: requests arrive on a precomputed schedule drawn from
 *    the seeded splitmix64 streams (sim/random.hh), independent of
 *    completion — the discipline that exposes queueing and tail
 *    latency at a given offered load.
 *  - Trace: replay of a kernels/trace_file script, issued closed-loop
 *    with the stream's window and honouring barriers.
 *
 * Two RNG streams are derived from the stream seed: one for the
 * command pattern (<B,S,L> draws, read/write mix, write data), one for
 * inter-arrival times. The command sequence is therefore identical
 * across offered loads, which makes throughput-latency sweeps
 * apples-to-apples (and monotone: scaling the rate scales every
 * inter-arrival gap by the same per-draw factor).
 */

#ifndef PVA_TRAFFIC_STREAM_HH
#define PVA_TRAFFIC_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/vector_command.hh"
#include "kernels/trace_file.hh"
#include "sim/memory.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace pva
{

/** When do a stream's requests arrive? */
enum class ArrivalMode
{
    ClosedLoop, ///< Fixed outstanding-request window
    OpenLoop,   ///< Seeded deterministic arrival schedule
    Trace,      ///< kernels/trace_file replay (closed-loop + barriers)
};

/** The <B,S,L> distribution one stream draws its commands from. */
struct PatternConfig
{
    WordAddr regionBase = 0;        ///< Start of the stream's region
    WordAddr regionWords = 1 << 20; ///< Region size (commands fit inside)
    std::uint32_t minStride = 1;    ///< V.S lower bound (words)
    std::uint32_t maxStride = 8;    ///< V.S upper bound (inclusive)
    std::uint32_t minLength = 32;   ///< V.L lower bound (elements)
    std::uint32_t maxLength = 32;   ///< V.L upper bound (inclusive)
    double readFraction = 1.0;      ///< P(command is a gather)
    /** Stride (default) or Indirect (uniform indices in the region). */
    VectorCommand::Mode mode = VectorCommand::Mode::Stride;

    bool operator==(const PatternConfig &) const = default;
};

/** Full configuration of one traffic stream. */
struct StreamConfig
{
    std::string name;            ///< Defaults to "s<id>" when empty
    ArrivalMode mode = ArrivalMode::ClosedLoop;
    unsigned window = 4;         ///< Closed-loop/trace outstanding limit
    double requestsPerKilocycle = 10.0; ///< Open-loop offered rate
    std::uint64_t requests = 256; ///< Requests to generate (non-trace)
    unsigned priority = 0;       ///< Larger = more urgent (Priority policy)
    unsigned queueCapacity = 16; ///< Arbiter per-stream queue bound
    /** Queueing-delay budget before a queued request is shed (cycles;
     *  0 inherits ShedConfig::defaultDeadline). Only consulted when
     *  shedding is enabled — see ArbiterConfig::shed. */
    Cycle deadline = 0;
    std::uint64_t seed = 1;      ///< Pattern + arrival RNG seed
    PatternConfig pattern;
    std::string tracePath;       ///< Trace mode input file

    bool operator==(const StreamConfig &) const = default;
};

/** One generated request travelling through the arbiter. */
struct TrafficRequest
{
    unsigned stream = 0;       ///< Originating stream id
    std::uint64_t seqNo = 0;   ///< Per-stream sequence number
    Cycle arrival = 0;         ///< Scheduled arrival time
    VectorCommand cmd;
    std::vector<Word> writeData; ///< Dense line for scatters
};

/**
 * A validated StreamConfig and its parsed trace, shared read-only by
 * every stream stamped from it. A fleet builds one per TenantSpec
 * (src/fleet/fleet_runner.cc), so its 10^5+ streams keep only what
 * differs per stream — seed-derived RNGs, region base, counters — and
 * validation and trace parsing run once per template.
 *
 * The template's seed and pattern.regionBase go unused: each
 * StreamSource is given its own. An empty name names each stream
 * "s<id>".
 */
struct StreamTemplate
{
    /**
     * @param line_words the target system's cache-line element count
     *        (command lengths are validated against it).
     * Throws SimError(Config) on unsupportable configuration or an
     * unreadable/malformed trace file.
     */
    StreamTemplate(StreamConfig config, unsigned line_words);

    StreamConfig config;
    TraceFile trace; ///< Trace mode ops (pokes stripped)
    std::vector<std::pair<WordAddr, Word>> pokes; ///< Trace preamble
};

/** One stream's deterministic request generator. */
class StreamSource
{
  public:
    /**
     * A stream drawing from @p config's seed in its region, named
     * "s<id>" when @p config.name is empty. Throws as StreamTemplate
     * does. Its template is the one the previous such stream on this
     * thread used when the two configs differ only in seed, region
     * and default name (as the streams of a traffic run, or a fleet
     * stamped stream by stream, do), so those validate and allocate
     * once. Trace templates are never reused: the file may change.
     */
    StreamSource(const StreamConfig &config, unsigned id,
                 unsigned line_words);

    /** Stream @p id of the shared @p tmpl, drawing from @p seed in
     *  the region starting at @p region_base. */
    StreamSource(std::shared_ptr<const StreamTemplate> tmpl, unsigned id,
                 std::uint64_t seed, WordAddr region_base);

    /** The shared template's configuration (its seed and regionBase
     *  are not this stream's; see regionBase()). */
    const StreamConfig &config() const { return tmpl->config; }
    unsigned id() const { return streamId; }
    /** The template's name, or "s<id>" when that is empty. */
    std::string name() const;
    /** Start of this stream's pattern region. */
    WordAddr regionBase() const { return region; }

    /** No further requests will ever arrive. */
    bool exhausted() const;

    /** Is a request available to admit at @p now? */
    bool arrivalReady(Cycle now) const;

    /** Pop the next request (call only when arrivalReady()). */
    TrafficRequest emit(Cycle now);

    /**
     * emit() into @p req, overwriting every field. Reusing one request
     * (a pooled queue slot, a scratch buffer) keeps the capacity of its
     * index list and write data, so a warm caller allocates nothing.
     */
    void emitInto(TrafficRequest &req, Cycle now);

    /** A request of this stream completed (releases a window slot). */
    void onComplete();

    /** Requests generated so far. */
    std::uint64_t emitted() const { return emittedCount; }

    /** Requests currently outstanding (closed-loop accounting). */
    std::uint64_t inWindow() const { return outstanding; }

    /** Open-loop schedule head: when the next arrival is due (may be
     *  in the past while backpressured). Meaningful only in OpenLoop
     *  mode; closed-loop/trace arrivals are completion-driven. */
    Cycle nextArrivalCycle() const { return nextArrival; }

    /** Apply the trace's poke preamble to the functional memory
     *  (no-op for non-trace streams). */
    void applyPokes(SparseMemory &mem) const;

  private:
    void makePatternRequest(TrafficRequest &req, Cycle now);
    void makeTraceRequest(TrafficRequest &req, Cycle now);
    /** Advance past satisfied barriers; the next emittable trace op
     *  (if any) ends up at traceNext. */
    bool traceHeadReady() const;

    std::shared_ptr<const StreamTemplate> tmpl;

    Random patternRng; ///< <B,S,L>, read/write mix, write data
    Random arrivalRng; ///< Open-loop inter-arrival gaps
    WordAddr region;   ///< This stream's pattern.regionBase

    std::uint64_t emittedCount = 0;
    std::uint64_t outstanding = 0; ///< Closed-loop / trace window
    Cycle nextArrival = 0;         ///< Open-loop schedule head

    unsigned streamId;
    unsigned traceNext = 0; ///< Next trace op (index into tmpl->trace)
};

} // namespace pva

#endif // PVA_TRAFFIC_STREAM_HH
