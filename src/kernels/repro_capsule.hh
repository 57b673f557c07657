/**
 * @file
 * Failure quarantine: standalone repro capsules (docs/ROBUSTNESS.md).
 *
 * When a sweep point exhausts its attempt budget (or trips a
 * watchdog), the executor serializes everything needed to re-execute
 * the failing attempt — the full SystemConfig including the effective
 * fault seed of that attempt, the workload coordinates, the cycle
 * budget, and the error it died with — as one self-contained JSON
 * file. `pva_replay --repro <capsule>` reloads the capsule and reruns
 * the point bit-exactly, so a failure logged by an overnight sweep is
 * reproducible at a desk from the capsule alone, with no knowledge of
 * the sweep's flags or grid position.
 */

#ifndef PVA_KERNELS_REPRO_CAPSULE_HH
#define PVA_KERNELS_REPRO_CAPSULE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "kernels/sweep.hh"

namespace pva
{

/** Everything needed to re-execute one failed sweep point. */
struct ReproCapsule
{
    /** Capsule format version (the file's schemaVersion field). */
    static constexpr int kSchemaVersion = 2;
    /** The file's kind tag. */
    static constexpr const char *kKind = "pva-repro-capsule";

    /** The failing attempt's exact request: config carries the
     *  *effective* fault seed (base seed plus retry advances), so a
     *  replay walks the same fault timeline. */
    SweepRequest request{};
    unsigned attempts = 0; ///< Attempts the sweep consumed on it
    /** The raw SimError text of the final attempt (as a replay would
     *  reproduce it — without the sweep's log enrichment). */
    std::string error;
    /** fingerprintRequest(request); also embedded in the sweep's log
     *  line, which is how a log line names its capsule. */
    std::uint64_t fingerprint = 0;
};

/** Serialize @p capsule as a standalone JSON document. */
void writeCapsule(std::ostream &os, const ReproCapsule &capsule);

/** Write @p capsule to @p path; throws SimError(Config) on I/O
 *  failure. */
void writeCapsuleFile(const std::string &path,
                      const ReproCapsule &capsule);

/** Parse a capsule file; throws SimError(Config) on a missing or
 *  malformed file, schema mismatch, or unknown enum names, and
 *  SimError(Corruption) when the stored fingerprint does not match
 *  the one recomputed from the loaded request. */
ReproCapsule loadCapsule(const std::string &path);

/**
 * Re-execute the capsule's request exactly (a plain runPoint of the
 * recorded request). Reproducing the quarantined failure means this
 * throws the recorded SimError again; returning normally means the
 * failure did not reproduce.
 */
SweepPoint replayCapsule(const ReproCapsule &capsule);

/**
 * Do two SimError texts describe the same failure? Exact match, with
 * one carve-out: wall-clock watchdog messages embed the elapsed
 * milliseconds, so two reports of the same hang differ textually and
 * are matched on everything but the elapsed time.
 */
bool sameSimError(const std::string &a, const std::string &b);

} // namespace pva

#endif // PVA_KERNELS_REPRO_CAPSULE_HH
