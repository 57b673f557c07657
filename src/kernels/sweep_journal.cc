#include "kernels/sweep_journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

/** FNV-1a over @p data, continuing from @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), hash);
}

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Retried:
        return "retried";
      case PointStatus::Failed:
        return "failed";
    }
    return "?";
}

bool
parsePointStatus(const std::string &name, PointStatus &out)
{
    if (name == "ok") {
        out = PointStatus::Ok;
    } else if (name == "retried") {
        out = PointStatus::Retried;
    } else if (name == "failed") {
        out = PointStatus::Failed;
    } else {
        return false;
    }
    return true;
}

[[noreturn]] void
journalError(const std::string &path, SimErrorKind kind,
             const std::string &detail)
{
    throw SimError(kind, "journal", kNeverCycle,
                   path + ": " + detail);
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t points)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().member("schemaVersion", SweepJournal::kSchemaVersion);
    w.member("kind", SweepJournal::kKind);
    w.member("fingerprint", fingerprintText(fingerprint));
    w.member("points", points).endObject().endLine();
    return os.str();
}

std::string
recordLine(const JournalRecord &record)
{
    const SweepPoint &p = record.point;
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().member("index", record.index);
    w.member("system", systemShortName(p.system));
    w.member("kernel", kernelSpec(p.kernel).name);
    w.member("stride", p.stride).member("alignment", p.alignment);
    w.member("cycles", p.cycles).member("mismatches", p.mismatches);
    w.member("simTicks", p.simTicks);
    w.member("cyclesSkipped", p.cyclesSkipped);
    w.member("status", pointStatusName(p.status));
    w.member("attempts", p.attempts).member("error", record.error);
    w.endObject().endLine();
    return os.str();
}

/** Extract one journal record; returns false on any missing or
 *  ill-typed field. */
bool
parseRecord(const json::Value &v, JournalRecord &out)
{
    if (!v.isObject())
        return false;
    bool ok = true;
    auto u64 = [&](const char *key, std::uint64_t &dst) {
        const json::Value *f = v.find(key);
        if (!f) {
            ok = false;
            return;
        }
        dst = f->asU64(ok);
    };
    auto str = [&](const char *key, std::string &dst) {
        const json::Value *f = v.find(key);
        if (!f || !f->isString()) {
            ok = false;
            return;
        }
        dst = f->string();
    };

    std::uint64_t index = 0, stride = 0, alignment = 0, cycles = 0;
    std::uint64_t mismatches = 0, simTicks = 0, cyclesSkipped = 0;
    std::uint64_t attempts = 0;
    std::string system, kernel, status, error;
    u64("index", index);
    str("system", system);
    str("kernel", kernel);
    u64("stride", stride);
    u64("alignment", alignment);
    u64("cycles", cycles);
    u64("mismatches", mismatches);
    u64("simTicks", simTicks);
    u64("cyclesSkipped", cyclesSkipped);
    str("status", status);
    u64("attempts", attempts);
    str("error", error);
    if (!ok)
        return false;

    SweepPoint p{};
    if (!systemByShortName(system, p.system) ||
        !kernelByName(kernel, p.kernel) ||
        !parsePointStatus(status, p.status)) {
        return false;
    }
    p.stride = static_cast<std::uint32_t>(stride);
    p.alignment = static_cast<unsigned>(alignment);
    p.cycles = cycles;
    p.mismatches = static_cast<std::size_t>(mismatches);
    p.simTicks = simTicks;
    p.cyclesSkipped = cyclesSkipped;
    p.attempts = static_cast<unsigned>(attempts);
    out.index = static_cast<std::size_t>(index);
    out.point = p;
    out.error = std::move(error);
    return true;
}

} // anonymous namespace

std::uint64_t
fingerprintConfig(const SystemConfig &config)
{
    // Every configFields() entry, so every field that determines
    // simulated behavior is covered by construction. Wall-clock
    // budgets are not config fields: they bound the host, not the
    // simulation.
    return fnv1a(canonicalConfigText(config));
}

std::uint64_t
fingerprintRequest(const SweepRequest &request)
{
    std::string s = csprintf(
        "point:%s,%s,%u,%u,%u;maxCycles:%llu;config:%016llx",
        systemShortName(request.system),
        kernelSpec(request.kernel).name.c_str(), request.stride,
        request.alignment, request.elements,
        static_cast<unsigned long long>(request.limits.maxCycles),
        static_cast<unsigned long long>(
            fingerprintConfig(request.config)));
    return fnv1a(s);
}

std::uint64_t
fingerprintGrid(const std::vector<SweepRequest> &grid)
{
    std::uint64_t hash = fnv1a(csprintf("grid:%zu", grid.size()));
    for (const SweepRequest &req : grid) {
        std::uint64_t fp = fingerprintRequest(req);
        hash = fnv1a(&fp, sizeof(fp), hash);
    }
    return hash;
}

std::string
fingerprintText(std::uint64_t fingerprint)
{
    return csprintf("%016llx", static_cast<unsigned long long>(fingerprint));
}

SweepJournal::LoadResult
SweepJournal::load(const std::string &path, std::uint64_t fingerprint,
                   std::size_t points)
{
    LoadResult result;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return result; // no journal yet: a fresh start
    result.exists = true;

    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (content.empty())
        return result; // created but never written: fresh start

    // A line counts as durably written only when its trailing newline
    // made it to disk: the tail after the last '\n' — however much of
    // a record it resembles — is a torn write, tolerated and dropped.
    std::size_t lineStart = 0;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (lineStart < content.size()) {
        std::size_t newline = content.find('\n', lineStart);
        if (newline == std::string::npos) {
            result.tornTail = true;
            break;
        }
        std::string line =
            content.substr(lineStart, newline - lineStart);
        ++lineNo;

        json::Value v;
        std::string parseErr;
        if (!json::parse(line, v, parseErr)) {
            journalError(path, SimErrorKind::Corruption,
                         csprintf("unparsable journal line %zu: %s",
                                  lineNo, parseErr.c_str()));
        }
        if (!sawHeader) {
            bool ok = true;
            const json::Value *schema = v.find("schemaVersion");
            const json::Value *kind = v.find("kind");
            const json::Value *fp = v.find("fingerprint");
            const json::Value *count = v.find("points");
            if (!schema || !kind || !kind->isString() || !fp ||
                !fp->isString() || !count) {
                journalError(path, SimErrorKind::Config,
                             "malformed journal header");
            }
            if (schema->asU64(ok) !=
                    static_cast<std::uint64_t>(kSchemaVersion) ||
                !ok) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal schemaVersion %s, expected %d",
                             schema->numberText().c_str(),
                             kSchemaVersion));
            }
            if (kind->string() != kKind) {
                journalError(path, SimErrorKind::Config,
                             csprintf("journal kind '%s', expected "
                                      "'%s'",
                                      kind->string().c_str(), kKind));
            }
            const std::string want = fingerprintText(fingerprint);
            if (fp->string() != want) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal fingerprint %s does not match "
                             "this sweep's %s — refusing to resume "
                             "against a different grid or config",
                             fp->string().c_str(), want.c_str()));
            }
            if (count->asU64(ok) != points || !ok) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal covers %s points, sweep has %zu",
                             count->numberText().c_str(), points));
            }
            sawHeader = true;
        } else {
            JournalRecord record;
            if (!parseRecord(v, record)) {
                journalError(
                    path, SimErrorKind::Corruption,
                    csprintf("malformed journal record at line %zu",
                             lineNo));
            }
            if (record.index >= points) {
                journalError(
                    path, SimErrorKind::Corruption,
                    csprintf("journal record index %zu outside the "
                             "%zu-point grid",
                             record.index, points));
            }
            result.records.push_back(std::move(record));
        }
        lineStart = newline + 1;
        result.validBytes = lineStart;
    }
    return result;
}

SweepJournal::SweepJournal(const std::string &path,
                           std::uint64_t fingerprint,
                           std::size_t points,
                           std::uint64_t resume_from)
    : filePath(path)
{
    if (resume_from > 0) {
        // Drop a torn tail before appending: new records must start at
        // the end of the intact prefix, not merge into partial bytes.
        file = std::fopen(path.c_str(), "r+b");
        if (!file) {
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot reopen journal: %s",
                                  std::strerror(errno)));
        }
#ifndef _WIN32
        if (ftruncate(fileno(file),
                      static_cast<off_t>(resume_from)) != 0) {
            std::fclose(file);
            file = nullptr;
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot truncate journal tail: %s",
                                  std::strerror(errno)));
        }
#endif
        std::fseek(file, 0, SEEK_END);
    } else {
        file = std::fopen(path.c_str(), "wb");
        if (!file) {
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot create journal: %s",
                                  std::strerror(errno)));
        }
        std::string header = headerLine(fingerprint, points);
        if (std::fwrite(header.data(), 1, header.size(), file) !=
                header.size() ||
            std::fflush(file) != 0) {
            std::fclose(file);
            file = nullptr;
            journalError(path, SimErrorKind::Config,
                         "cannot write journal header");
        }
#ifndef _WIN32
        fsync(fileno(file));
#endif
    }
}

SweepJournal::~SweepJournal()
{
    if (file)
        std::fclose(file);
}

void
SweepJournal::append(const JournalRecord &record)
{
    std::string line = recordLine(record);
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fflush(file) != 0) {
        journalError(filePath, SimErrorKind::Config,
                     csprintf("journal append failed: %s",
                              std::strerror(errno)));
    }
#ifndef _WIN32
    // The durability point: a completion is only acknowledged to the
    // executor after its record is on stable storage.
    fsync(fileno(file));
#endif
}

} // namespace pva
