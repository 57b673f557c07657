#include "kernels/sweep.hh"

#include "baselines/cacheline_system.hh"
#include "baselines/gathering_system.hh"
#include "core/pva_unit.hh"
#include "kernels/runner.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

const std::vector<SystemKind> &
allSystems()
{
    static const std::vector<SystemKind> systems = {
        SystemKind::PvaSdram,
        SystemKind::CacheLine,
        SystemKind::Gathering,
        SystemKind::PvaSram,
    };
    return systems;
}

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::PvaSdram:
        return "PVA SDRAM";
      case SystemKind::CacheLine:
        return "cache-line serial SDRAM";
      case SystemKind::Gathering:
        return "gathering pipelined SDRAM";
      case SystemKind::PvaSram:
        return "PVA SRAM";
    }
    return "?";
}

const char *
systemShortName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::PvaSdram:
        return "pva";
      case SystemKind::CacheLine:
        return "cacheline";
      case SystemKind::Gathering:
        return "gathering";
      case SystemKind::PvaSram:
        return "sram";
    }
    return "?";
}

bool
systemByShortName(const std::string &name, SystemKind &out)
{
    for (SystemKind kind : allSystems()) {
        if (name == systemShortName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
kernelByName(const std::string &name, KernelId &out)
{
    for (KernelId k : allKernels()) {
        if (kernelSpec(k).name == name) {
            out = k;
            return true;
        }
    }
    return false;
}

std::unique_ptr<MemorySystem>
makeSystem(SystemKind kind, const SystemConfig &config)
{
    config.validate();
    const std::string name = systemShortName(kind);
    switch (kind) {
      case SystemKind::PvaSdram:
        return std::make_unique<PvaUnit>(name, PvaConfig{config, false});
      case SystemKind::PvaSram:
        return std::make_unique<PvaUnit>(name, PvaConfig{config, true});
      case SystemKind::CacheLine: {
        CacheLineConfig cl;
        cl.lineWords = config.bc.lineWords;
        cl.maxOutstanding = config.maxOutstanding;
        cl.optimisticLineReuse = config.optimisticLineReuse;
        return std::make_unique<CacheLineSystem>(name, cl);
      }
      case SystemKind::Gathering: {
        GatheringConfig ga;
        ga.timing = config.timing;
        ga.maxOutstanding = config.maxOutstanding;
        return std::make_unique<GatheringSystem>(name, ga);
      }
    }
    panic("unknown system kind");
}

SweepPoint
runPoint(const SweepRequest &request)
{
    const KernelSpec &spec = kernelSpec(request.kernel);
    const AlignmentPreset &preset =
        alignmentPresets().at(request.alignment);

    WorkloadConfig cfg;
    cfg.stride = request.stride;
    cfg.elements = request.elements;
    cfg.lineWords = request.config.bc.lineWords;
    cfg.streamBases = streamBases(preset, spec.numStreams,
                                  request.stride, request.elements);

    auto sys = makeSystem(request.system, request.config);
    // The clocking discipline travels with the system configuration so
    // sweep grids honor SystemConfig::clocking without every caller
    // having to mirror it into RunLimits.
    RunLimits limits = request.limits;
    limits.clocking = request.config.clocking;
    RunResult r = runKernelOn(*sys, request.kernel, cfg, limits);

    SweepPoint p{request.system, request.kernel, request.stride,
                 request.alignment, r.cycles, r.mismatches};
    p.simTicks = r.simTicks;
    p.cyclesSkipped = r.cyclesSkipped;
    return p;
}

SweepPoint
runPoint(SystemKind system, KernelId kernel, std::uint32_t stride,
         unsigned alignment, std::uint32_t elements)
{
    SweepRequest req;
    req.system = system;
    req.kernel = kernel;
    req.stride = stride;
    req.alignment = alignment;
    req.elements = elements;
    return runPoint(req);
}

MinMaxCycles
runAcrossAlignments(SystemKind system, KernelId kernel,
                    std::uint32_t stride, std::uint32_t elements)
{
    MinMaxCycles mm{kNeverCycle, 0};
    for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
        SweepPoint p = runPoint(system, kernel, stride, a, elements);
        if (p.mismatches != 0) {
            throw SimError(
                SimErrorKind::Corruption, "sweep", kNeverCycle,
                csprintf("functional mismatch in %s/%s stride %u "
                         "alignment %u", systemName(system),
                         kernelSpec(kernel).name.c_str(), stride, a));
        }
        mm.min = std::min(mm.min, p.cycles);
        mm.max = std::max(mm.max, p.cycles);
    }
    return mm;
}

const std::vector<std::uint32_t> &
paperStrides()
{
    static const std::vector<std::uint32_t> strides = {1, 2, 4, 8, 16, 19};
    return strides;
}

} // namespace pva
