/**
 * @file
 * Every tool's --json output is one document json::parse accepts:
 * pva_sim single runs and sweeps (with failures, a checkpoint journal
 * and repro capsules, which are parsed too), pva_replay on a trace and
 * on a capsule, and pva_loadgen single runs, load sweeps, scenarios and
 * fleets. The scenario run names its tenants with quotes, a backslash
 * and a tab, and the names must come back exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"

namespace pva
{
namespace
{

const std::string kSim = PVA_TOOL_SIM;
const std::string kReplay = PVA_TOOL_REPLAY;
const std::string kLoadgen = PVA_TOOL_LOADGEN;
const std::string kExpected = PVA_SOURCE_DIR "/tests/expected/";

/** Run @p command through the shell and return its stdout; its exit
 *  status goes to @p status. */
std::string
capture(const std::string &command, int &status)
{
    std::string out;
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "cannot run " << command;
        return out;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    status = pclose(pipe);
    return out;
}

/** Stdout of a command that must exit 0. */
std::string
stdoutOf(const std::string &command)
{
    int status = -1;
    const std::string out = capture(command + " 2>/dev/null", status);
    EXPECT_EQ(status, 0) << command;
    return out;
}

json::Value
parsed(const std::string &text, const std::string &what)
{
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(text, doc, error))
        << what << ": " << error << "\n" << text;
    return doc;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The keys every envelope starts with. */
void
expectEnvelope(const json::Value &doc, const char *tool)
{
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("tool"), nullptr);
    EXPECT_EQ(doc.find("tool")->string(), tool);
    ASSERT_NE(doc.find("config"), nullptr);
    EXPECT_TRUE(doc.find("config")->isObject());
}

TEST(ToolJson, SimSingleRun)
{
    const json::Value doc = parsed(
        stdoutOf(kSim + " --kernel copy --stride 4 --elements 256 --json"),
        "pva_sim --json");
    expectEnvelope(doc, "pva_sim");
    EXPECT_NE(doc.find("run"), nullptr);
    EXPECT_NE(doc.find("stats"), nullptr);
}

TEST(ToolJson, SimSweepWithFailuresJournalAndCapsules)
{
    const std::string journal = testing::TempDir() + "tool_json.jsonl";
    const std::string quarantine = testing::TempDir() + "tool_json_q";
    std::remove(journal.c_str());
    int status = -1;
    // The envelope goes to stderr under --sweep; drop the log lines
    // around it. The corrupted points fail, so the tool exits 1.
    const std::string err = capture(
        kSim + " --sweep --jobs 2 --json --backend salp --subarrays 8"
               " --check --fault-corrupt 0.5 --retries 1 --checkpoint " +
            journal + " --quarantine-dir " + quarantine +
            " 2>&1 >/dev/null",
        status);
    EXPECT_NE(status, 0);
    std::string envelope;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("info: ", 0) != 0 && line.rfind("warn: ", 0) != 0)
            envelope += line + "\n";
    }
    const json::Value doc = parsed(envelope, "pva_sim --sweep --json");
    expectEnvelope(doc, "pva_sim");
    const json::Value *sweep = doc.find("sweep");
    ASSERT_NE(sweep, nullptr);
    ASSERT_FALSE(sweep->find("failures")->array().empty());
    const auto &quarantined = sweep->find("quarantine")->array();
    ASSERT_FALSE(quarantined.empty());
    for (const json::Value &q : quarantined) {
        const std::string path = q.find("capsule")->string();
        parsed(slurp(path), path);
        std::remove(path.c_str());
    }

    std::istringstream records(slurp(journal));
    unsigned count = 0;
    for (std::string line; std::getline(records, line); ++count)
        parsed(line, journal + " line " + std::to_string(count + 1));
    EXPECT_EQ(count, 961u) << "a header and one record per point";
    std::remove(journal.c_str());
    std::remove(quarantine.c_str());
}

TEST(ToolJson, ReplayTrace)
{
    const json::Value doc = parsed(
        stdoutOf(kReplay + " " + kExpected + "loadgen/replay.trace --json"),
        "pva_replay --json");
    expectEnvelope(doc, "pva_replay");
    EXPECT_NE(doc.find("replay"), nullptr);
}

TEST(ToolJson, ReplayRepro)
{
    const json::Value doc = parsed(
        stdoutOf(kReplay + " --repro " + kExpected +
                 "emitters/capsule.json --json"),
        "pva_replay --repro --json");
    expectEnvelope(doc, "pva_replay");
    ASSERT_NE(doc.find("repro"), nullptr);
    EXPECT_TRUE(doc.find("repro")->find("reproduced")->boolean());
}

TEST(ToolJson, LoadgenSingleRun)
{
    const json::Value doc = parsed(
        stdoutOf(kLoadgen + " --streams 3 --requests 16 --json"),
        "pva_loadgen --json");
    expectEnvelope(doc, "pva_loadgen");
    ASSERT_NE(doc.find("traffic"), nullptr);
    EXPECT_EQ(doc.find("traffic")->find("streams")->array().size(), 3u);
}

TEST(ToolJson, LoadgenLoadSweep)
{
    const json::Value doc = parsed(
        stdoutOf(kLoadgen + " --load-sweep --json --loads 5,40 --systems "
                            "pva,gathering --streams 2 --requests 16 "
                            "--jobs 2"),
        "pva_loadgen --load-sweep --json");
    expectEnvelope(doc, "pva_loadgen");
    ASSERT_NE(doc.find("loadSweep"), nullptr);
    EXPECT_EQ(doc.find("loadSweep")->find("points")->array().size(), 4u);
}

TEST(ToolJson, LoadgenScenarioKeepsNamesThatNeedEscaping)
{
    const json::Value doc = parsed(
        stdoutOf(kLoadgen + " --scenario " + kExpected +
                 "emitters/escaped.scenario.json --jobs 2"),
        "pva_loadgen --scenario");
    ASSERT_NE(doc.find("scenario"), nullptr);
    EXPECT_EQ(doc.find("scenario")->string(), "esc\"aped\\ \x07");
    const auto &tenants = doc.find("fleet")->find("tenantResults")->array();
    ASSERT_EQ(tenants.size(), 3u);
    EXPECT_EQ(tenants[0].find("name")->string(), "a\"b\\\tc0");
    EXPECT_EQ(tenants[1].find("name")->string(), "a\"b\\\tc1");
    EXPECT_EQ(tenants[2].find("name")->string(), "plain2");
}

TEST(ToolJson, LoadgenFleet)
{
    const json::Value doc = parsed(
        stdoutOf(kLoadgen + " --fleet --json --tenants 4 "
                            "--streams-per-tenant 2 --requests 4 "
                            "--shards 2 --jobs 2"),
        "pva_loadgen --fleet --json");
    expectEnvelope(doc, "pva_loadgen");
    ASSERT_NE(doc.find("fleet"), nullptr);
    EXPECT_EQ(doc.find("fleet")->find("tenantResults")->array().size(),
              4u);
}

#if PVA_TRACE_ENABLED

TEST(ToolJson, TracedRunAndItsChromeTrace)
{
    const std::string trace = testing::TempDir() + "tool_json_trace.json";
    const json::Value doc = parsed(
        stdoutOf(kSim + " --kernel copy --stride 16 --elements 256 --json "
                        "--trace-out " + trace),
        "pva_sim --json --trace-out");
    expectEnvelope(doc, "pva_sim");
    ASSERT_NE(doc.find("trace"), nullptr);
    EXPECT_EQ(doc.find("trace")->find("out")->string(), trace);
    const json::Value exported = parsed(slurp(trace), trace);
    EXPECT_FALSE(exported.find("traceEvents")->array().empty());
    std::remove(trace.c_str());
}

#endif // PVA_TRACE_ENABLED

} // anonymous namespace
} // namespace pva
