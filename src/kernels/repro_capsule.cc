#include "kernels/repro_capsule.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "kernels/sweep_journal.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

[[noreturn]] void
capsuleError(const std::string &path, const std::string &detail)
{
    throw SimError(SimErrorKind::Config, "capsule", kNeverCycle,
                   path + ": " + detail);
}

/** Typed member access to one JSON object; throws on a missing or
 *  mistyped field. */
struct Extract
{
    const json::Value &v;
    const std::string &path;

    const json::Value &
    member(const char *key) const
    {
        const json::Value *f = v.find(key);
        if (!f)
            capsuleError(path, csprintf("missing field '%s'", key));
        return *f;
    }

    std::uint64_t
    u64(const char *key) const
    {
        bool ok = true;
        std::uint64_t n = member(key).asU64(ok);
        if (!ok)
            capsuleError(path,
                         csprintf("field '%s' is not an unsigned "
                                  "integer", key));
        return n;
    }

    std::string
    str(const char *key) const
    {
        const json::Value &f = member(key);
        if (!f.isString())
            capsuleError(path,
                         csprintf("field '%s' is not a string", key));
        return f.string();
    }

    Extract
    object(const char *key) const
    {
        const json::Value &f = member(key);
        if (!f.isObject())
            capsuleError(path,
                         csprintf("field '%s' is not an object", key));
        return Extract{f, path};
    }
};

} // anonymous namespace

void
writeCapsule(std::ostream &os, const ReproCapsule &capsule)
{
    const SweepRequest &req = capsule.request;
    os << "{\n"
       << "  \"schemaVersion\": " << ReproCapsule::kSchemaVersion
       << ",\n"
       << "  \"kind\": \"" << ReproCapsule::kKind << "\",\n"
       << "  \"fingerprint\": \""
       << csprintf("%016llx", static_cast<unsigned long long>(
                                  capsule.fingerprint))
       << "\",\n"
       << "  \"attempts\": " << capsule.attempts << ",\n"
       << "  \"error\": \"" << json::escape(capsule.error) << "\",\n"
       << "  \"request\": {\n"
       << "    \"system\": \"" << systemShortName(req.system)
       << "\",\n"
       << "    \"kernel\": \"" << kernelSpec(req.kernel).name
       << "\",\n"
       << "    \"stride\": " << req.stride << ",\n"
       << "    \"alignment\": " << req.alignment << ",\n"
       << "    \"elements\": " << req.elements << ",\n"
       << "    \"maxCycles\": " << req.limits.maxCycles << ",\n"
       << "    \"config\": {\n      ";
    writeConfigJson(os, req.config, ",\n      ");
    os << "\n    }\n  }\n}\n";
}

void
writeCapsuleFile(const std::string &path, const ReproCapsule &capsule)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        capsuleError(path, "cannot create capsule file");
    writeCapsule(out, capsule);
    out.flush();
    if (!out)
        capsuleError(path, "capsule write failed");
}

ReproCapsule
loadCapsule(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        capsuleError(path, "cannot open capsule file");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    json::Value doc;
    std::string parseErr;
    if (!json::parse(buffer.str(), doc, parseErr))
        capsuleError(path, "not valid JSON: " + parseErr);
    if (!doc.isObject())
        capsuleError(path, "capsule is not a JSON object");

    Extract e{doc, path};
    std::uint64_t schema = e.u64("schemaVersion");
    if (schema != static_cast<std::uint64_t>(
                      ReproCapsule::kSchemaVersion)) {
        capsuleError(path,
                     csprintf("schemaVersion %llu, expected %d",
                              static_cast<unsigned long long>(schema),
                              ReproCapsule::kSchemaVersion));
    }
    if (e.str("kind") != ReproCapsule::kKind)
        capsuleError(path, "not a " + std::string(ReproCapsule::kKind));

    ReproCapsule capsule;
    capsule.attempts = static_cast<unsigned>(e.u64("attempts"));
    capsule.error = e.str("error");
    const std::string stored = e.str("fingerprint");

    Extract req = e.object("request");
    SweepRequest &r = capsule.request;
    std::string system = req.str("system");
    if (!systemByShortName(system, r.system))
        capsuleError(path, "unknown system '" + system + "'");
    std::string kernel = req.str("kernel");
    if (!kernelByName(kernel, r.kernel))
        capsuleError(path, "unknown kernel '" + kernel + "'");
    r.stride = static_cast<std::uint32_t>(req.u64("stride"));
    r.alignment = static_cast<unsigned>(req.u64("alignment"));
    if (r.alignment >= alignmentPresets().size())
        capsuleError(path, "alignment index out of range");
    r.elements = static_cast<std::uint32_t>(req.u64("elements"));
    r.limits.maxCycles = req.u64("maxCycles");
    Extract config = req.object("config");
    for (const ConfigField &f : configFields()) {
        if (!setConfigField(f, r.config, config.member(f.name))) {
            capsuleError(path, csprintf("config field '%s' must be %s",
                                        f.name,
                                        expectedValue(f).c_str()));
        }
    }
    r.limits.clocking = r.config.clocking;

    // Self-check: the stored fingerprint must describe what was
    // loaded, or the capsule would replay something else silently.
    capsule.fingerprint = fingerprintRequest(r);
    const std::string recomputed = csprintf(
        "%016llx", static_cast<unsigned long long>(capsule.fingerprint));
    if (stored != recomputed) {
        throw SimError(SimErrorKind::Corruption, "capsule", kNeverCycle,
                       csprintf("%s: stored fingerprint %s does not match "
                                "the recomputed %s (capsule edited or "
                                "damaged)",
                                path.c_str(), stored.c_str(),
                                recomputed.c_str()));
    }
    return capsule;
}

SweepPoint
replayCapsule(const ReproCapsule &capsule)
{
    return runPoint(capsule.request);
}

bool
sameSimError(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    // Wall-clock watchdog reports embed the elapsed milliseconds;
    // match the invariant parts around the "<N> ms" token.
    static const std::string tag = "wall-clock watchdog expired after ";
    std::size_t pa = a.find(tag);
    std::size_t pb = b.find(tag);
    if (pa == std::string::npos || pb == std::string::npos || pa != pb)
        return false;
    if (a.compare(0, pa, b, 0, pb) != 0)
        return false;
    std::size_t sa = a.find(" ms", pa + tag.size());
    std::size_t sb = b.find(" ms", pb + tag.size());
    if (sa == std::string::npos || sb == std::string::npos)
        return false;
    return a.substr(sa) == b.substr(sb);
}

} // namespace pva
