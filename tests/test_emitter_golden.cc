/**
 * @file
 * Golden bytes of the JSON documents no tool golden covers: a repro
 * capsule, a checkpoint journal, a sweep report with failure and
 * quarantine records and (traced builds only) a small Chrome-trace
 * export. Each is compared byte for byte with a committed file in
 * tests/expected/emitters/. On a difference the actual bytes are left
 * in the gtest temp directory under the same name; copying that file
 * over the committed one re-records the case. Each document must also
 * parse.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "kernels/repro_capsule.hh"
#include "kernels/sweep_executor.hh"
#include "kernels/sweep_journal.hh"
#include "sim/json.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::string want =
        slurp(PVA_SOURCE_DIR "/tests/expected/emitters/" + name);
    if (actual == want)
        return;
    const std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << actual;
    ADD_FAILURE() << name << " differs from tests/expected/emitters/"
                  << name << "; actual bytes in " << path;
}

void
expectParses(const std::string &doc)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(doc, v, error)) << error << "\n" << doc;
}

/** The failing point `pva_replay --repro` replays in the
 *  EmitterGolden.repro_json tool golden: a checked salp system whose
 *  every FirstHit result is corrupted. */
ReproCapsule
failingCapsule()
{
    ReproCapsule capsule;
    SweepRequest &r = capsule.request;
    r.kernel = KernelId::Copy;
    r.stride = 4;
    r.elements = 128;
    r.config.backend = MemBackend::Salp;
    r.config.salpSubarrays = 8;
    r.config.timingCheck = true;
    r.config.faults.corruptFirstHitRate = 1.0;
    r.config.faults.bcStallRate = 0.125;
    try {
        runPoint(r);
    } catch (const SimError &e) {
        capsule.error = e.what();
    }
    capsule.attempts = 2;
    capsule.fingerprint = fingerprintRequest(r);
    return capsule;
}

TEST(EmitterGolden, ReproCapsule)
{
    const ReproCapsule capsule = failingCapsule();
    ASSERT_FALSE(capsule.error.empty()) << "the point must fail";
    std::ostringstream os;
    writeCapsule(os, capsule);
    expectGolden("capsule.json", os.str());
    expectParses(os.str());
}

TEST(EmitterGolden, CheckpointJournal)
{
    const std::string path = testing::TempDir() + "golden_journal.jsonl";
    std::remove(path.c_str());
    {
        SweepJournal journal(path, 0x0123456789abcdefULL, 3);
        SweepPoint ok{SystemKind::PvaSdram, KernelId::Vaxpy, 19, 2,
                      1234, 0};
        ok.simTicks = 321;
        ok.cyclesSkipped = 913;
        journal.append({0, ok, ""});
        SweepPoint retried{SystemKind::CacheLine, KernelId::Scale, 8, 0,
                           4321, 0};
        retried.status = PointStatus::Retried;
        retried.attempts = 2;
        journal.append({1, retried, ""});
        SweepPoint failed{SystemKind::Gathering, KernelId::Copy, 1, 4, 0,
                          3};
        failed.status = PointStatus::Failed;
        failed.attempts = 3;
        journal.append({2, failed,
                        "[corruption] \"quoted\" back\\slash\ttab\nline"});
    }
    const std::string text = slurp(path);
    expectGolden("journal.jsonl", text);
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        expectParses(line);
    std::remove(path.c_str());
}

TEST(EmitterGolden, SweepReportWithFailureAndQuarantine)
{
    SweepReport report;
    report.points.resize(4);
    report.ok = 2;
    report.retried = 1;
    report.failed = 1;
    report.simTicks = 5000;
    report.cyclesSkipped = 700;
    PointFailure f;
    f.index = 3;
    f.system = SystemKind::PvaSdram;
    f.kernel = KernelId::Tridiag;
    f.stride = 16;
    f.alignment = 1;
    f.attempts = 2;
    f.error = "[corruption] checker: \"bad\" data\\n (fingerprint="
              "00000000deadbeef faultSeed=7)";
    report.failures.push_back(f);
    QuarantineRecord q;
    q.index = 3;
    q.attempts = 2;
    q.fingerprint = 0xdeadbeef;
    q.faultSeed = 7;
    q.error = f.error;
    q.capsulePath = "quarantine/capsule-3.json";
    report.quarantine.push_back(q);
    std::ostringstream os;
    report.dumpJson(os);
    expectGolden("sweep_report.json", os.str());
    expectParses(os.str());
}

#if PVA_TRACE_ENABLED

TEST(EmitterGolden, ChromeTraceExport)
{
    trace::TraceConfig cfg;
    cfg.bufferCapacity = 48;
    trace::TraceSession session(cfg);
    trace::setSession(&session);
    SweepRequest r;
    r.kernel = KernelId::Copy;
    r.stride = 16;
    r.elements = 64;
    const SweepPoint point = runPoint(r);
    trace::setSession(nullptr);
    ASSERT_EQ(point.mismatches, 0u);
    ASSERT_GT(session.dropped(), 0u) << "the export should show drops";
    std::ostringstream os;
    session.exportChromeJson(os);
    expectGolden("trace_copy16.json", os.str());
    expectParses(os.str());
}

#endif // PVA_TRACE_ENABLED

} // anonymous namespace
} // namespace pva
