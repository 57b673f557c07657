#include "traffic/stream.hh"

#include <fstream>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

/** Derivation constant separating the pattern and arrival streams. */
constexpr std::uint64_t kArrivalStreamSalt = 0xa55e55ed5eedULL;

/** Deterministic Bernoulli draw: P(true) == rate (cf. FaultInjector). */
bool
roll(Random &rng, double rate)
{
    std::uint64_t bits = rng.next(); // always consume one draw
    if (rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    double scaled = rate * 18446744073709551616.0; // 2^64
    std::uint64_t threshold =
        scaled >= 18446744073709549568.0 // largest double < 2^64
            ? ~0ULL
            : static_cast<std::uint64_t>(scaled);
    return bits < threshold;
}

/** The name of stream @p id when its config gives none. */
std::string
defaultName(unsigned id)
{
    return "s" + std::to_string(id);
}

/** The template of stream @p id built from its own @p config (see
 *  the StreamSource constructor). */
std::shared_ptr<const StreamTemplate>
ownTemplate(StreamConfig config, unsigned id, unsigned line_words)
{
    thread_local std::shared_ptr<const StreamTemplate> last;
    thread_local unsigned lastLineWords = 0;
    // What the template does not keep, so it cannot tell streams apart.
    config.seed = 0;
    config.pattern.regionBase = 0;
    if (config.name == defaultName(id))
        config.name.clear();
    if (config.mode == ArrivalMode::Trace) {
        return std::make_shared<const StreamTemplate>(std::move(config),
                                                      line_words);
    }
    if (!last || lastLineWords != line_words || !(last->config == config)) {
        last = std::make_shared<const StreamTemplate>(std::move(config),
                                                      line_words);
        lastLineWords = line_words;
    }
    return last;
}

} // anonymous namespace

StreamTemplate::StreamTemplate(StreamConfig config_, unsigned line_words)
    : config(std::move(config_))
{
    const StreamConfig &cfg = config;
    auto reject = [&](const std::string &detail) {
        throw SimError(SimErrorKind::Config,
                       "traffic." + (cfg.name.empty() ? "stream" : cfg.name),
                       kNeverCycle, detail);
    };

    if (cfg.queueCapacity == 0)
        reject("queueCapacity must be nonzero");
    if (cfg.mode != ArrivalMode::OpenLoop && cfg.window == 0)
        reject("window must be nonzero for closed-loop/trace streams");
    if (cfg.mode == ArrivalMode::OpenLoop &&
        !(cfg.requestsPerKilocycle > 0.0)) {
        reject("requestsPerKilocycle must be positive for open-loop "
               "streams");
    }

    if (cfg.mode == ArrivalMode::Trace) {
        std::ifstream in(cfg.tracePath);
        if (!in)
            reject(csprintf("cannot open trace '%s'",
                            cfg.tracePath.c_str()));
        TraceFile parsed;
        std::string error;
        if (!parseTrace(in, parsed, error))
            reject(csprintf("trace '%s': %s", cfg.tracePath.c_str(),
                            error.c_str()));
        for (const TraceOp &op : parsed.ops) {
            if (op.kind == TraceOp::Kind::Poke) {
                pokes.emplace_back(op.addr, op.value);
                continue;
            }
            if (op.kind != TraceOp::Kind::Barrier &&
                op.cmd.length > line_words) {
                reject(csprintf("trace '%s' command length %u exceeds "
                                "the %u-word line",
                                cfg.tracePath.c_str(), op.cmd.length,
                                line_words));
            }
            trace.ops.push_back(op);
        }
        return;
    }

    const PatternConfig &p = cfg.pattern;
    if (cfg.requests == 0)
        reject("requests must be nonzero");
    if (p.minLength == 0 || p.minLength > p.maxLength)
        reject(csprintf("pattern length bounds [%u, %u] invalid",
                        p.minLength, p.maxLength));
    if (p.maxLength > line_words)
        reject(csprintf("pattern maxLength %u exceeds the %u-word line",
                        p.maxLength, line_words));
    if (p.minStride == 0 || p.minStride > p.maxStride)
        reject(csprintf("pattern stride bounds [%u, %u] invalid",
                        p.minStride, p.maxStride));
    if (!(p.readFraction >= 0.0 && p.readFraction <= 1.0))
        reject(csprintf("readFraction %g outside [0, 1]",
                        p.readFraction));
    WordAddr span = static_cast<WordAddr>(p.maxStride) *
                        (p.maxLength - 1) + 1;
    if (p.regionWords < span)
        reject(csprintf("regionWords %llu cannot hold a "
                        "stride-%u x %u-element command",
                        static_cast<unsigned long long>(p.regionWords),
                        p.maxStride, p.maxLength));
}

StreamSource::StreamSource(const StreamConfig &config, unsigned id,
                           unsigned line_words)
    : StreamSource(ownTemplate(config, id, line_words), id, config.seed,
                   config.pattern.regionBase)
{
}

StreamSource::StreamSource(std::shared_ptr<const StreamTemplate> tmpl_,
                           unsigned id, std::uint64_t seed,
                           WordAddr region_base)
    : tmpl(std::move(tmpl_)), patternRng(seed),
      arrivalRng(seed ^ kArrivalStreamSalt), region(region_base),
      streamId(id)
{
    if (tmpl->config.mode == ArrivalMode::OpenLoop) {
        // Schedule the first arrival one gap in, like every later one.
        double mean = 1000.0 / tmpl->config.requestsPerKilocycle;
        double u = 0.5 + static_cast<double>(arrivalRng.next() >> 11) *
                             (1.0 / 9007199254740992.0); // 2^-53
        nextArrival = static_cast<Cycle>(u * mean + 0.5);
        if (nextArrival == 0)
            nextArrival = 1;
    }
}

std::string
StreamSource::name() const
{
    const std::string &n = tmpl->config.name;
    return n.empty() ? defaultName(streamId) : n;
}

bool
StreamSource::traceHeadReady() const
{
    const std::vector<TraceOp> &ops = tmpl->trace.ops;
    std::size_t i = traceNext;
    while (i < ops.size() && ops[i].kind == TraceOp::Kind::Barrier) {
        if (outstanding > 0)
            return false;
        ++i;
    }
    return i < ops.size();
}

bool
StreamSource::exhausted() const
{
    const StreamConfig &cfg = tmpl->config;
    if (cfg.mode == ArrivalMode::Trace) {
        const std::vector<TraceOp> &ops = tmpl->trace.ops;
        for (std::size_t i = traceNext; i < ops.size(); ++i) {
            if (ops[i].kind != TraceOp::Kind::Barrier)
                return false;
        }
        return true;
    }
    return emittedCount >= cfg.requests;
}

bool
StreamSource::arrivalReady(Cycle now) const
{
    const StreamConfig &cfg = tmpl->config;
    switch (cfg.mode) {
      case ArrivalMode::ClosedLoop:
        return emittedCount < cfg.requests && outstanding < cfg.window;
      case ArrivalMode::OpenLoop:
        return emittedCount < cfg.requests && nextArrival <= now;
      case ArrivalMode::Trace:
        return outstanding < cfg.window && traceHeadReady();
    }
    return false;
}

TrafficRequest
StreamSource::emit(Cycle now)
{
    TrafficRequest req;
    emitInto(req, now);
    return req;
}

void
StreamSource::emitInto(TrafficRequest &req, Cycle now)
{
    if (tmpl->config.mode == ArrivalMode::Trace)
        makeTraceRequest(req, now);
    else
        makePatternRequest(req, now);
}

void
StreamSource::makePatternRequest(TrafficRequest &req, Cycle now)
{
    const StreamConfig &cfg = tmpl->config;
    const PatternConfig &p = cfg.pattern;
    req.stream = streamId;
    req.seqNo = emittedCount;

    // Fixed draw order per request, so the command sequence is a pure
    // function of the pattern seed (independent of arrival timing).
    std::uint32_t stride = static_cast<std::uint32_t>(
        patternRng.range(p.minStride, p.maxStride));
    std::uint32_t length = static_cast<std::uint32_t>(
        patternRng.range(p.minLength, p.maxLength));
    bool is_read = roll(patternRng, p.readFraction);
    WordAddr span = static_cast<WordAddr>(stride) * (length - 1) + 1;
    WordAddr base = region + patternRng.below(p.regionWords - span + 1);

    // Every command field is set, so a reused request carries nothing
    // over from its previous occupant but vector capacity.
    req.cmd.base = base;
    req.cmd.stride = stride;
    req.cmd.length = length;
    req.cmd.isRead = is_read;
    req.cmd.txn = 0;
    req.cmd.mode = p.mode;
    req.cmd.indices.clear();
    req.cmd.revBits = 0;
    req.cmd.revOffset = 0;
    if (p.mode == VectorCommand::Mode::Indirect) {
        req.cmd.base = region;
        req.cmd.stride = 1;
        req.cmd.indices.resize(length);
        for (std::uint32_t i = 0; i < length; ++i)
            req.cmd.indices[i] = patternRng.below(p.regionWords);
    }
    req.writeData.clear();
    if (!is_read) {
        req.writeData.resize(length);
        for (std::uint32_t i = 0; i < length; ++i)
            req.writeData[i] = static_cast<Word>(patternRng.next());
    }

    if (cfg.mode == ArrivalMode::OpenLoop) {
        req.arrival = nextArrival;
        double mean = 1000.0 / cfg.requestsPerKilocycle;
        double u = 0.5 + static_cast<double>(arrivalRng.next() >> 11) *
                             (1.0 / 9007199254740992.0);
        Cycle gap = static_cast<Cycle>(u * mean + 0.5);
        nextArrival += gap == 0 ? 1 : gap;
    } else {
        req.arrival = now;
        ++outstanding;
    }
    ++emittedCount;
}

void
StreamSource::makeTraceRequest(TrafficRequest &req, Cycle now)
{
    const std::vector<TraceOp> &ops = tmpl->trace.ops;
    while (ops[traceNext].kind == TraceOp::Kind::Barrier)
        ++traceNext; // traceHeadReady() guaranteed outstanding == 0
    const TraceOp &op = ops[traceNext++];

    req.stream = streamId;
    req.seqNo = emittedCount;
    req.arrival = now;
    req.cmd = op.cmd;
    req.writeData.clear();
    if (op.kind == TraceOp::Kind::Write) {
        req.writeData.resize(op.cmd.length);
        for (std::uint32_t i = 0; i < op.cmd.length; ++i)
            req.writeData[i] = op.value + i;
    }
    ++outstanding;
    ++emittedCount;
}

void
StreamSource::onComplete()
{
    if (tmpl->config.mode != ArrivalMode::OpenLoop && outstanding > 0)
        --outstanding;
}

void
StreamSource::applyPokes(SparseMemory &mem) const
{
    for (const auto &[addr, value] : tmpl->pokes)
        mem.write(addr, value);
}

} // namespace pva
