/**
 * @file
 * StatSet registry tests: per-kind duplicate panics, names shared
 * across kinds, lookups across index growth, dump order against a
 * std::map reference, and copied/moved sets.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pva
{
namespace
{

std::string
dumpOf(const StatSet &set)
{
    std::ostringstream os;
    set.dump(os);
    return os.str();
}

std::string
csvOf(const StatSet &set)
{
    std::ostringstream os;
    set.dumpCsv(os);
    return os.str();
}

std::string
jsonOf(const StatSet &set)
{
    std::ostringstream os;
    set.dumpJson(os);
    return os.str();
}

TEST(StatSetDeath, DuplicatePanicsInEachKind)
{
    Scalar s;
    Distribution d;
    LogHistogram h;
    StatSet set;
    set.addScalar("pva.bc3.rowHits", &s);
    set.addDistribution("frontend.readLatency", &d);
    set.addHistogram("traffic.agg.totalLatency", &h);
    EXPECT_DEATH(set.addScalar("pva.bc3.rowHits", &s),
                 "duplicate scalar stat 'pva.bc3.rowHits'");
    EXPECT_DEATH(set.addDistribution("frontend.readLatency", &d),
                 "duplicate distribution stat 'frontend.readLatency'");
    EXPECT_DEATH(set.addHistogram("traffic.agg.totalLatency", &h),
                 "duplicate histogram stat 'traffic.agg.totalLatency'");
}

TEST(StatSet, SameNameAllowedInDifferentKinds)
{
    Scalar s;
    s += 3;
    Distribution d;
    d.sample(4);
    LogHistogram h;
    h.sample(5);
    StatSet set;
    set.addScalar("x", &s);
    set.addDistribution("x", &d);
    set.addHistogram("x", &h);
    set.addScalar("only.scalar", &s);
    EXPECT_EQ(set.scalar("x"), 3u);
    EXPECT_EQ(&set.distribution("x"), &d);
    EXPECT_EQ(&set.histogram("x"), &h);
    EXPECT_FALSE(set.hasScalar("y"));
    EXPECT_FALSE(set.hasDistribution("y"));
    EXPECT_FALSE(set.hasHistogram("y"));
    // A name registered in one kind is absent from the others.
    EXPECT_FALSE(set.hasDistribution("only.scalar"));
    EXPECT_FALSE(set.hasHistogram("only.scalar"));
    EXPECT_EQ(dumpOf(set), "only.scalar 3\nx 3\n"
                           "x.samples 1\nx.min 4\nx.max 4\nx.mean 4\n"
                           "x.samples 1\nx.min 5\nx.max 5\nx.mean 5\n"
                           "x.p50 5\nx.p95 5\nx.p99 5\nx.p999 5\n");
}

TEST(StatSetDeath, MissingLookupsPanicInEachKind)
{
    Scalar s;
    StatSet set;
    set.addScalar("x", &s);
    EXPECT_DEATH(set.scalar("y"), "no scalar stat named 'y'");
    EXPECT_DEATH(set.distribution("x"), "no distribution stat named 'x'");
    EXPECT_DEATH(set.histogram("x"), "no histogram stat named 'x'");
}

/** Names and values for a set large enough to double the index many
 *  times over. */
constexpr unsigned kManyNames = 12000;

std::string
manyName(unsigned i)
{
    return "sys.bc" + std::to_string(i % 16) + ".stat" + std::to_string(i);
}

TEST(StatSet, LookupsHoldAcrossIndexGrowth)
{
    std::vector<Scalar> stats(kManyNames);
    StatSet set;
    for (unsigned i = 0; i < kManyNames; ++i) {
        stats[i] += i;
        set.addScalar(manyName(i), &stats[i]);
        // Everything registered so far stays reachable while the
        // index grows underneath it.
        if ((i & (i + 1)) == 0) {
            for (unsigned j = 0; j <= i; ++j)
                ASSERT_EQ(set.scalar(manyName(j)), j) << "after " << i;
        }
    }
    for (unsigned i = 0; i < kManyNames; ++i)
        ASSERT_EQ(set.scalar(manyName(i)), i);
    for (unsigned i = kManyNames; i < kManyNames + 1000; ++i)
        EXPECT_FALSE(set.hasScalar(manyName(i)));
    EXPECT_FALSE(set.hasScalar(""));
    EXPECT_FALSE(set.hasDistribution(manyName(0)));
}

TEST(StatSetDeath, DuplicatesCaughtAfterIndexGrowth)
{
    std::vector<Scalar> stats(kManyNames);
    StatSet set;
    for (unsigned i = 0; i < kManyNames; ++i)
        set.addScalar(manyName(i), &stats[i]);
    Scalar extra;
    EXPECT_DEATH(set.addScalar(manyName(0), &extra), "duplicate scalar");
    EXPECT_DEATH(set.addScalar(manyName(kManyNames / 2), &extra),
                 "duplicate scalar");
    EXPECT_DEATH(set.addScalar(manyName(kManyNames - 1), &extra),
                 "duplicate scalar");
}

TEST(StatSet, DumpOrderMatchesStdMapOrder)
{
    // Prefixes, separators below and above '.', digits against
    // letters, an empty name and a byte above 0x7f: std::map orders
    // them by unsigned byte, and so must every dump.
    const std::vector<std::string> names = {
        "bc1x", "bc10.x", "bc1.x", "bc1", "bc2", "Bc1", "bc1-y",
        "bc1_z", "bc1.", "b", "", "bc1.x.y", "bc\xc3\xa9", "bcz",
        "bc10", "bc1.X"};
    std::vector<Scalar> scalars(names.size());
    std::vector<Distribution> dists(names.size());
    std::vector<LogHistogram> hists(names.size());
    std::map<std::string, std::size_t> reference;
    StatSet set;
    for (std::size_t i = 0; i < names.size(); ++i) {
        scalars[i] += i;
        dists[i].sample(i);
        hists[i].sample(i + 1);
        set.addScalar(names[i], &scalars[i]);
        reference.emplace(names[i], i);
    }
    // Register the other kinds in reverse so no dump can lean on
    // registration order.
    for (std::size_t i = names.size(); i-- > 0;) {
        set.addDistribution(names[i], &dists[i]);
        set.addHistogram(names[i], &hists[i]);
    }

    std::ostringstream text, csv, json;
    csv << "stat,value\n";
    json << "{\"scalars\": {";
    bool first = true;
    for (const auto &[name, i] : reference) {
        text << name << " " << i << "\n";
        csv << name << "," << i << "\n";
        json << (first ? "" : ", ") << '"' << name << "\": " << i;
        first = false;
    }
    json << "}, \"distributions\": {";
    first = true;
    for (const auto &[name, i] : reference) {
        text << name << ".samples 1\n"
             << name << ".min " << i << "\n"
             << name << ".max " << i << "\n"
             << name << ".mean " << i << "\n";
        json << (first ? "" : ", ") << '"' << name << "\": {"
             << "\"samples\": 1, \"min\": " << i << ", \"max\": " << i
             << ", \"mean\": " << i << ", \"bucketWidth\": 1, "
             << "\"buckets\": [";
        for (std::size_t b = 0; b <= i; ++b)
            json << (b ? ", " : "") << (b == i ? 1 : 0);
        json << "]}";
        first = false;
    }
    json << "}, \"histograms\": {";
    first = true;
    for (const auto &[name, i] : reference) {
        const LogHistogram &h = hists[i];
        text << name << ".samples 1\n"
             << name << ".min " << h.minValue() << "\n"
             << name << ".max " << h.maxValue() << "\n"
             << name << ".mean " << h.mean() << "\n"
             << name << ".p50 " << h.p50() << "\n"
             << name << ".p95 " << h.p95() << "\n"
             << name << ".p99 " << h.p99() << "\n"
             << name << ".p999 " << h.p999() << "\n";
        json << (first ? "" : ", ") << '"' << name << "\": {"
             << "\"samples\": 1, \"min\": " << h.minValue()
             << ", \"max\": " << h.maxValue() << ", \"mean\": " << h.mean()
             << ", \"p50\": " << h.p50() << ", \"p95\": " << h.p95()
             << ", \"p99\": " << h.p99() << ", \"p999\": " << h.p999()
             << "}";
        first = false;
    }
    json << "}}\n";

    EXPECT_EQ(dumpOf(set), text.str());
    EXPECT_EQ(csvOf(set), csv.str());
    EXPECT_EQ(jsonOf(set), json.str());
}

TEST(StatSet, DumpsAreRepeatable)
{
    // Dumps sort when called; calling twice, with a lookup between,
    // gives the same bytes.
    std::vector<Scalar> stats(200);
    StatSet set;
    for (unsigned i = 0; i < stats.size(); ++i) {
        stats[i] += i;
        set.addScalar(csprintf("s%u", 199 - i), &stats[i]);
    }
    const std::string once = dumpOf(set);
    EXPECT_TRUE(set.hasScalar("s7"));
    EXPECT_EQ(dumpOf(set), once);
    EXPECT_EQ(once.substr(0, 12), "s0 199\ns1 19");
}

TEST(StatSet, CopiedAndMovedSetsFindTheirEntries)
{
    std::vector<Scalar> stats(300);
    Distribution lat;
    lat.sample(9);
    StatSet set;
    for (unsigned i = 0; i < stats.size(); ++i) {
        stats[i] += i;
        set.addScalar(manyName(i), &stats[i]);
    }
    set.addDistribution("lat", &lat);
    const std::string dumped = jsonOf(set);

    StatSet copy = set;
    EXPECT_EQ(jsonOf(copy), dumped);
    for (unsigned i = 0; i < stats.size(); ++i)
        ASSERT_EQ(copy.scalar(manyName(i)), i);
    EXPECT_EQ(&copy.distribution("lat"), &lat);

    // The copy is independent: growing it leaves the original alone,
    // and its new entry is found across the copy's own index growth.
    std::vector<Scalar> more(400);
    for (unsigned i = 0; i < more.size(); ++i)
        copy.addScalar(manyName(1000 + i), &more[i]);
    EXPECT_TRUE(copy.hasScalar(manyName(1000)));
    EXPECT_FALSE(set.hasScalar(manyName(1000)));
    EXPECT_EQ(jsonOf(set), dumped);

    StatSet moved = std::move(set);
    EXPECT_EQ(jsonOf(moved), dumped);
    for (unsigned i = 0; i < stats.size(); ++i)
        ASSERT_EQ(moved.scalar(manyName(i)), i);

    StatSet assigned;
    assigned = std::move(copy);
    EXPECT_EQ(assigned.scalar(manyName(299)), 299u);
    EXPECT_TRUE(assigned.hasScalar(manyName(1399)));
}

TEST(StatSet, JsonDumpEscapesNames)
{
    const std::string scalarName = "tenant \"a\\b\".reads";
    const std::string distName = "bc\t1.latency";
    const std::string histName = std::string("x\x01y");
    Scalar s;
    s += 5;
    Distribution d;
    d.sample(3);
    LogHistogram h;
    h.sample(9);
    StatSet set;
    set.addScalar(scalarName, &s);
    set.addDistribution(distName, &d);
    set.addHistogram(histName, &h);

    json::Value doc;
    std::string error;
    const std::string text = jsonOf(set);
    ASSERT_TRUE(json::parse(text, doc, error)) << error << "\n" << text;
    const json::Value *scalar = doc.find("scalars")->find(scalarName);
    ASSERT_NE(scalar, nullptr) << text;
    EXPECT_EQ(scalar->numberText(), "5");
    EXPECT_NE(doc.find("distributions")->find(distName), nullptr) << text;
    EXPECT_NE(doc.find("histograms")->find(histName), nullptr) << text;
}

} // anonymous namespace
} // namespace pva
