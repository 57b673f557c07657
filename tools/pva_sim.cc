/**
 * @file
 * pva_sim — command-line driver for the kernel harness.
 *
 * Runs one grid point and prints the cycle count, or with --sweep the
 * full chapter 6 grid (under the configured system knobs) on a worker
 * pool, writing the CSV rows to stdout; each point is isolated by the
 * executor's retry/watchdog harness and the final SweepReport
 * accounts for every point.
 *
 * Flags come from the shared ToolApp layer (tools/tool_app.hh), so
 * the vocabulary matches pva_replay and pva_loadgen; run `pva_sim
 * --help` for the generated list. --json replaces the human-readable
 * lines with one versioned JSON envelope (docs/API.md) on stdout
 * (single run) or stderr (--sweep, keeping the CSV on stdout);
 * --trace-out writes a Chrome/Perfetto event trace of the run
 * (docs/OBSERVABILITY.md, needs a PVA_TRACE=ON build).
 *
 * --check attaches the redundant TimingChecker; --fault-* enable
 * deterministic fault injection (see docs/ROBUSTNESS.md). Structured
 * simulation errors (SimError) exit with status 1 and a one-line
 * diagnostic instead of aborting.
 */

#include <cstdio>
#include <iostream>

#include "kernels/runner.hh"
#include "kernels/sweep_executor.hh"
#include "options.hh"
#include "tool_app.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

int
runSweep(const ToolApp &app, const ToolOptions &opts)
{
    SweepExecutor executor(opts.jobs);
    executor.setMaxAttempts(opts.retries);
    executor.setPointTimeout(opts.pointTimeout);
    executor.setCheckpoint(
        {opts.checkpointPath, opts.resume, opts.quarantineDir});
    executor.onProgress([](const SweepProgress &p) {
        if (p.done % 160 == 0 || p.done == p.total)
            inform("sweep: %zu/%zu points done", p.done, p.total);
    });
    SweepReport report = executor.runReport(
        SweepExecutor::chapter6Grid(opts.elements, opts.config));
    if (report.resumed > 0) {
        inform("sweep: restored %zu completed points from '%s'",
               report.resumed, opts.checkpointPath.c_str());
    }
    writeCsv(std::cout, report.points);
    for (const PointFailure &f : report.failures) {
        warn("sweep point %zu (%s/%s stride %u alignment %u) failed "
             "after %u attempts: %s",
             f.index, systemShortName(f.system),
             kernelSpec(f.kernel).name.c_str(), f.stride, f.alignment,
             f.attempts, f.error.c_str());
    }
    for (const QuarantineRecord &q : report.quarantine) {
        inform("quarantined point %zu: repro capsule %s "
               "(pva_replay --repro)",
               q.index, q.capsulePath.c_str());
    }
    if (opts.stats)
        executor.stats().dump(std::cerr);
    if (opts.json) {
        // The CSV owns stdout under --sweep; the envelope goes to
        // stderr so both can be captured independently.
        JsonEnvelope env(std::cerr, app, opts.config,
                         {{"elements", std::to_string(opts.elements)}});
        executor.stats().dumpJson(env.section("stats"));
        report.dumpJson(env.section("sweep"));
        env.traceSection(app);
    }
    bool clean = report.allOk() &&
                 executor.stats().scalar("sweep.mismatches") == 0;
    return clean ? 0 : 1;
}

int
runOnce(const ToolApp &app, const ToolOptions &opts)
{
    KernelId kernel = kernelFor(opts);
    const KernelSpec &spec = kernelSpec(kernel);
    WorkloadConfig wl = workloadFor(opts);

    auto sys = makeSystem(systemKindFor(opts.system), opts.config);
    RunLimits limits;
    limits.clocking = opts.config.clocking;
    if (opts.pointTimeout > 0.0)
        limits.timeoutMillis = opts.pointTimeout;
    RunResult r = runKernelOn(*sys, kernel, wl, limits);
    if (opts.json) {
        JsonEnvelope env(
            std::cout, app, opts.config,
            {{"kernel", jsonQuote(spec.name)},
             {"system", jsonQuote(opts.system)},
             {"stride", std::to_string(opts.stride)},
             {"alignment", std::to_string(opts.alignment)},
             {"elements", std::to_string(opts.elements)}});
        env.section("run")
            << "{\"cycles\": " << r.cycles
            << ", \"mismatches\": " << r.mismatches
            << ", \"simTicks\": " << r.simTicks
            << ", \"cyclesSkipped\": " << r.cyclesSkipped
            << ", \"cyclesPerSecond\": " << r.cyclesPerSecond << "}";
        sys->stats().dumpJson(env.section("stats"));
        env.traceSection(app);
    } else {
        std::printf("%s stride=%u alignment=%s system=%s elements=%u: "
                    "%llu cycles, %zu mismatches\n",
                    spec.name.c_str(), opts.stride,
                    alignmentPresets()[opts.alignment].name.c_str(),
                    opts.system.c_str(), opts.elements,
                    static_cast<unsigned long long>(r.cycles),
                    r.mismatches);
        std::printf("clocking=%s simTicks=%llu cyclesSkipped=%llu "
                    "cyclesPerSecond=%llu\n",
                    clockingModeName(opts.config.clocking),
                    static_cast<unsigned long long>(r.simTicks),
                    static_cast<unsigned long long>(r.cyclesSkipped),
                    static_cast<unsigned long long>(r.cyclesPerSecond));
    }
    if (opts.stats)
        sys->stats().dump(opts.json ? std::cerr : std::cout);
    return r.mismatches == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ToolOptions opts;
    ToolApp app("pva_sim");
    app.addWorkloadFlags(opts);
    app.addSystemFlags(opts.config);
    app.flag("--sweep", "run the full chapter 6 grid",
             [&opts] { opts.sweep = true; });
    app.option("--checkpoint", "FILE",
               "journal completed sweep points to FILE (JSONL, "
               "fsync'd per point; docs/ROBUSTNESS.md)",
               [&opts](const std::string &v) {
                   opts.checkpointPath = v;
               });
    app.flag("--resume",
             "restore completed points from the --checkpoint journal "
             "instead of rerunning them",
             [&opts] { opts.resume = true; });
    app.option("--quarantine-dir", "DIR",
               "write a standalone repro capsule per failed point "
               "into DIR (pva_replay --repro)",
               [&opts](const std::string &v) {
                   opts.quarantineDir = v;
               });
    app.addExecutorFlags(opts.jobs, opts.retries, opts.pointTimeout);
    app.addOutputFlags(opts.stats, opts.json);
    app.addTraceFlags();
    app.parse(argc, argv);
    if (opts.resume && opts.checkpointPath.empty())
        fatal("--resume needs --checkpoint FILE");
    if ((!opts.checkpointPath.empty() || !opts.quarantineDir.empty()) &&
        !opts.sweep) {
        fatal("--checkpoint/--quarantine-dir only apply to --sweep");
    }
    return app.run([&] {
        return opts.sweep ? runSweep(app, opts) : runOnce(app, opts);
    });
}
