/**
 * @file
 * Shared application layer for the pva command-line tools.
 *
 * ToolApp is a declarative flag parser: each tool registers its flags
 * (name, metavar, help, handler) once, and the common flag sets —
 * system construction (--banks/--vcs/--row-policy/--refresh/
 * --clocking/--check/--fault-*), workload selection, executor knobs,
 * output selection (--stats/--json) and tracing (--trace-out/
 * --trace-filter/--trace-buffer) — come from one place, so pva_sim,
 * pva_replay and pva_loadgen accept the same vocabulary with the same
 * validation and the same generated usage text.
 *
 * run() wraps the tool body in the standard SimError/exception
 * handler and, when --trace-out was given (and tracing is compiled
 * in, see sim/trace.hh), opens a TraceSession around the body and
 * exports the Chrome trace JSON afterwards.
 *
 * JsonEnvelope implements the versioned JSON output API of
 * docs/API.md: every tool's --json output is one object of the form
 *   {"schemaVersion": 2, "tool": "...", "config": {...}, <sections>}
 * so downstream scripts parse a single shape across tools; "config"
 * carries every SystemConfig field (configFields()).
 */

#ifndef PVA_TOOLS_TOOL_APP_HH
#define PVA_TOOLS_TOOL_APP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/system_config.hh"
#include "options.hh"

namespace pva::tools
{

/** Version of the JSON output API every tool emits (docs/API.md). */
constexpr int kJsonSchemaVersion = 2;

/** The shared --trace-* flag values. */
struct TraceOptions
{
    std::string outPath; ///< --trace-out; empty = tracing inactive
    std::string filter;  ///< --trace-filter component glob(s)
    std::size_t bufferCap = 1u << 19; ///< --trace-buffer (events)
    /** --profile / --profile-period: sampling period (0 = off). */
    std::uint32_t profilePeriod = 0;

    bool active() const { return !outPath.empty(); }
    bool profiling() const { return profilePeriod != 0; }
};

/** Declarative flag parser + tool lifecycle (see file comment). */
class ToolApp
{
  public:
    explicit ToolApp(std::string tool_name);
    ~ToolApp();

    /** @name Flag registration
     * Handlers run during parse(), in command-line order. @{ */
    /** A value-less switch, e.g. --check. */
    void flag(const char *name, const char *help,
              std::function<void()> handler);
    /** A string-valued option, e.g. --kernel NAME. */
    void option(const char *name, const char *metavar, const char *help,
                std::function<void(const std::string &)> handler);
    /** An unsigned-integer option; fatal on a non-numeric value. */
    void numOption(const char *name, const char *metavar,
                   const char *help,
                   std::function<void(unsigned long long)> handler);
    /** A real-valued option; fatal on a non-numeric value. */
    void realOption(const char *name, const char *metavar,
                    const char *help,
                    std::function<void(double)> handler);
    /** Accept one bare (non-flag) argument, e.g. a trace file path. */
    void positional(const char *metavar,
                    std::function<void(const std::string &)> handler);
    /** @} */

    /** @name Common flag sets @{ */
    /** One flag per configFields() entry that has one (--banks,
     *  --refresh, --check, --fault-*, ...); config is validated after
     *  parsing. */
    void addSystemFlags(SystemConfig &config);
    /** --kernel/--stride/--alignment/--system/--elements. */
    void addWorkloadFlags(ToolOptions &opts);
    /** --jobs/--retries/--point-timeout. */
    void addExecutorFlags(unsigned &jobs, unsigned &retries,
                          double &point_timeout);
    /** --stats/--json. */
    void addOutputFlags(bool &stats, bool &json);
    /** --trace-out/--trace-filter/--trace-buffer/--profile/
     *  --profile-period. */
    void addTraceFlags();
    /** @} */

    /**
     * Parse argv. Unknown flags (or a missing value) print the
     * generated usage text and exit(2). Any SystemConfig registered
     * via addSystemFlags() is validated afterwards.
     */
    void parse(int argc, char **argv);

    /** Print the generated usage text and exit(2). */
    [[noreturn]] void usage() const;

    const std::string &toolName() const { return name; }
    const TraceOptions &traceOptions() const { return trace; }

    /**
     * Run the tool body under the standard try/catch (SimError and
     * std::exception exit 1 with a one-line diagnostic) and the trace
     * session lifecycle: when --trace-out is set, a TraceSession is
     * installed before @p body and the Chrome trace JSON is written
     * (with an event/drop summary on stderr) after it. In a build
     * without PVA_TRACE, --trace-out is a fatal error instead of a
     * silent no-op.
     */
    int run(const std::function<int()> &body);

    /** Recorded/dropped counts of the active session (0 when off). */
    std::uint64_t traceRecorded() const;
    std::uint64_t traceDropped() const;

  private:
    using Apply = std::function<void(const std::string &flag,
                                     const std::string &value)>;

    struct Spec
    {
        std::string name;    ///< Including leading dashes
        std::string metavar; ///< Empty for value-less switches
        std::string help;
        Apply apply;
        bool takesValue = false;
    };

    /** Register a flag; a null @p metavar makes it a switch. */
    void add(const char *flag_name, const char *metavar, const char *help,
             Apply apply);

    const Spec *find(const std::string &flag) const;

    std::string name;
    std::vector<Spec> specs;
    std::string positionalMetavar;
    std::function<void(const std::string &)> positionalHandler;
    SystemConfig *configToValidate = nullptr;
    TraceOptions trace;
    bool traceFlagsAdded = false;

    struct TraceState; ///< Hides the session type from untraced builds
    std::unique_ptr<TraceState> traceState;
};

/** A tool-specific member of the envelope's "config" object: its key
 *  and a string or unsigned integer value. */
using ConfigExtra =
    std::pair<const char *, std::variant<std::string, std::uint64_t>>;

/**
 * Versioned JSON envelope (docs/API.md). The constructor opens the
 * object and writes schemaVersion/tool/config; section() writes the
 * key "<key>" and hands back the writer for the caller to write the
 * payload; the destructor closes the object.
 */
class JsonEnvelope
{
  public:
    /** @param config_extras  members appended to the "config" object,
     *         after the SystemConfig fields. */
    JsonEnvelope(std::ostream &os, const ToolApp &app,
                 const SystemConfig &config,
                 const std::vector<ConfigExtra> &config_extras = {});
    ~JsonEnvelope();

    JsonEnvelope(const JsonEnvelope &) = delete;
    JsonEnvelope &operator=(const JsonEnvelope &) = delete;

    /** Start section @p key; caller writes one value through the
     *  returned writer. */
    json::Writer &section(const char *key);

    /**
     * Append the "trace" accounting section (out path, recorded,
     * dropped); no-op when the app traced nothing.
     */
    void traceSection(const ToolApp &app);

  private:
    json::Writer w;
};

} // namespace pva::tools

#endif // PVA_TOOLS_TOOL_APP_HH
