/**
 * @file
 * Unified construction-time configuration of the evaluated memory
 * systems.
 *
 * SystemConfig is the one knob bag every harness (benches, tests,
 * tools, the sweep executor) fills in and hands to makeSystem(): the
 * memory geometry (bank count, interleave factor), the SDRAM timing
 * parameters including auto-refresh, the bank-controller
 * microarchitecture (vector contexts, row policy, bypasses), the
 * serial baselines' accounting knobs, and the robustness layer (the
 * TimingChecker switch and the fault-injection plan). Each concrete
 * system consumes the subset that applies to it; a PvaUnit takes it
 * as a PvaConfig, which only adds the SRAM switch.
 *
 * validate() rejects unsupportable values with a SimError(Config)
 * naming the offending field, so bad knobs fail fast with a clear
 * message instead of as undefined behavior deep inside a run. Every
 * serialized form of the config comes from configFields() (below).
 */

#ifndef PVA_CORE_SYSTEM_CONFIG_HH
#define PVA_CORE_SYSTEM_CONFIG_HH

#include <iosfwd>

#include "core/bank_controller.hh"
#include "sdram/device.hh"
#include "sdram/geometry.hh"
#include "sim/clocking.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

/**
 * Configuration shared by all four evaluated memory systems.
 *
 * The default-constructed value is the paper's prototype point:
 * 16 word-interleaved banks, 2-2-2 SDRAM timing with refresh
 * disabled, 4 vector contexts with the ManageRow policy, no checker,
 * no fault injection.
 */
struct SystemConfig
{
    /** Bank count and interleave factor (all systems). */
    Geometry geometry{16, 1, 9, 2, 13};
    /** SDRAM timing, including tREFI auto-refresh (SDRAM systems). */
    SdramTiming timing{};
    /** Bank-controller microarchitecture (PVA SDRAM / PVA SRAM). */
    BcConfig bc{};
    /** Outstanding bus-transaction limit of the serial baselines. */
    unsigned maxOutstanding = 8;
    /** Cache-line baseline accounting (see CacheLineConfig). */
    bool optimisticLineReuse = false;
    /** Attach the redundant protocol/data checker (PVA systems). */
    bool timingCheck = false;
    /** Fault-injection plan (PVA systems; disabled by default). */
    FaultPlan faults{};
    /** Clocking discipline of the driving Simulation (all systems).
     *  Event is cycle-exact with Exhaustive; see docs/SIMULATION.md. */
    ClockingMode clocking = ClockingMode::Event;
    /**
     * Batched bank-controller ticking (PVA systems): the front end
     * keeps a cached wake cycle per bank controller and skips ticking
     * controllers that are provably quiescent until then, instead of
     * ticking all M controllers on every processed cycle. Cycle-exact
     * by the same wake contract the event core relies on
     * (docs/PERFORMANCE.md); off reproduces the every-BC-every-cycle
     * reference behaviour for differential testing.
     */
    bool batchTicking = true;
    /**
     * Memory-device backend (docs/DEVICE.md). Legacy is the paper's
     * part and the default; Salp gives every internal bank
     * salpSubarrays independent row buffers (Kim et al.); Deferred-
     * Refresh moves tREFI boundaries within refreshDeferWindow cycles
     * around in-flight work (Chang et al.). SDRAM systems only — the
     * SRAM comparison system and the serial baselines' analytic
     * timing ignore it.
     */
    MemBackend backend = MemBackend::Legacy;
    /** Row-buffer subarrays per internal bank (Salp; power of two). */
    unsigned salpSubarrays = 4;
    /** Max cycles a refresh may move (DeferredRefresh; 0 = tREFI/2). */
    unsigned refreshDeferWindow = 0;

    /** The resolved backend policy (SimError(Config) on a bad
     *  combination). */
    BackendPolicy
    backendPolicy() const
    {
        return resolveBackendPolicy(backend, geometry.rowBits(),
                                    timing.tREFI, timing.tRFC,
                                    salpSubarrays, refreshDeferWindow);
    }

    /**
     * Reject unsupportable configurations with a SimError(Config)
     * naming the offending knob. Called by makeSystem() so every
     * construction path — tools, benches, sweep points — fails fast
     * with a message instead of misbehaving downstream. Single-field
     * ranges come from configFields(); cross-field rules are written
     * out (Geometry's constructor checks its own shape).
     */
    void validate() const;

    bool operator==(const SystemConfig &) const = default;
};

/** Configuration of a PvaUnit: the SystemConfig it reads its knobs
 *  from, plus which device family to build. */
struct PvaConfig : SystemConfig
{
    bool useSram = false; ///< Build the PVA-SRAM comparison system
};

/**
 * One leaf field of SystemConfig. configFields() lists all of them;
 * the tool flags, fleet-scenario keys, repro capsule, journal
 * fingerprint, JSON envelope and validate()'s range checks are all
 * generated from it (docs/API.md), so adding a knob is one entry.
 */
struct ConfigField
{
    enum class Type { Unsigned, U64, Real, Bool, Enum };

    const char *name = nullptr; ///< The one JSON name on every surface
    const char *doc = nullptr;  ///< One line for --help and docs/API.md
    double min = 0;             ///< Valid range of numeric fields,
    double max = 4294967295.0;  ///< checked by validate()
    const char *flag = nullptr; ///< Tool flag, if any
    /** Flag argument form ("N", "on|off", the enum's names joined by
     *  '|'); nullptr for a value-less switch that sets true. */
    const char *form = "N";
    bool scenario = false; ///< Accepted as a fleet-scenario key
    Type type = Type::Unsigned;
    /** Canonical text: decimal integers, shortest round-trip reals,
     *  "true"/"false", enum names. */
    std::string (*get)(const SystemConfig &) = nullptr;
    /** Parse canonical text; false when malformed. Geometry fields
     *  rebuild the Geometry (SimError(Config) on a bad shape). */
    bool (*set)(SystemConfig &, const std::string &) = nullptr;
    /** The value as a number (range checks); nullptr for Bool/Enum. */
    double (*number)(const SystemConfig &) = nullptr;
};

/** Every leaf field of SystemConfig, in canonical order. */
const std::vector<ConfigField> &configFields();

/** The field named @p name; nullptr when there is none. */
const ConfigField *findConfigField(const std::string &name);

/** What a field's value must look like, for diagnostics. */
std::string expectedValue(const ConfigField &field);

/** Write every field as "name": value, separated by @p separator. */
void writeConfigJson(std::ostream &os, const SystemConfig &config,
                     const char *separator);

/** "name=value;" over every field: the journal fingerprint's input. */
std::string canonicalConfigText(const SystemConfig &config);

/** Set @p field from a parsed JSON value; false when its JSON type or
 *  text does not fit the field. */
bool setConfigField(const ConfigField &field, SystemConfig &config,
                    const json::Value &value);

} // namespace pva

#endif // PVA_CORE_SYSTEM_CONFIG_HH
