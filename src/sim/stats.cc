#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "sim/logging.hh"

namespace pva
{

Distribution::Distribution(std::uint64_t bucket_width)
    : width(bucket_width == 0 ? 1 : bucket_width)
{
}

void
Distribution::sample(std::uint64_t value)
{
    if (sampleCount == 0) {
        minSeen = value;
        maxSeen = value;
    } else {
        if (value < minSeen)
            minSeen = value;
        if (value > maxSeen)
            maxSeen = value;
    }
    ++sampleCount;
    sum += value;
    std::uint64_t bucket = value / width;
    // Cap the histogram resolution; the tail collapses into one bucket.
    constexpr std::uint64_t max_buckets = 4096;
    if (bucket >= max_buckets)
        bucket = max_buckets - 1;
    if (histogram.size() <= bucket)
        histogram.resize(bucket + 1, 0);
    ++histogram[bucket];
}

void
Distribution::reset()
{
    sampleCount = 0;
    sum = 0;
    minSeen = 0;
    maxSeen = 0;
    histogram.clear();
}

double
Distribution::mean() const
{
    return sampleCount == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(sampleCount);
}

std::uint64_t
LogHistogram::bucketLowerBound(unsigned index)
{
    constexpr std::uint64_t linear = 1ULL << kSubBits;
    if (index < linear)
        return index;
    unsigned top = index >> kSubBits;
    std::uint64_t sub = index & (linear - 1);
    return (1ULL << (kSubBits + top - 1)) | (sub << (top - 1));
}

void
LogHistogram::cover(unsigned first, unsigned last)
{
    // Smallest window holding the old one and [first, last], then
    // grown to at least twice the old size (kFirstWindow on the first
    // sample) on the side that needed it, inside [0, kBucketCount).
    constexpr unsigned kFirstWindow = 2u << kSubBits; // two octaves
    const auto n = static_cast<unsigned>(counts.size());
    const bool downward = n > 0 && first < lo;
    unsigned newLo = n > 0 ? std::min(lo, first) : first;
    unsigned newHi = n > 0 ? std::max(lo + n, last + 1) : last + 1;
    const unsigned size = std::min(
        kBucketCount, std::max(newHi - newLo, n > 0 ? 2 * n : kFirstWindow));
    if (downward) {
        newLo = newHi > size ? newHi - size : 0;
    } else {
        newHi = std::min(kBucketCount, newLo + size);
        newLo = newHi - size;
    }
    std::vector<std::uint64_t> grown(size, 0);
    if (n > 0)
        std::copy(counts.begin(), counts.end(), grown.begin() + (lo - newLo));
    counts.swap(grown);
    lo = newLo;
}

void
LogHistogram::reset()
{
    sampleCount = 0;
    sum = 0;
    minSeen = 0;
    maxSeen = 0;
    std::fill(counts.begin(), counts.end(), 0);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.sampleCount == 0)
        return;
    if (sampleCount == 0) {
        minSeen = other.minSeen;
        maxSeen = other.maxSeen;
    } else {
        if (other.minSeen < minSeen)
            minSeen = other.minSeen;
        if (other.maxSeen > maxSeen)
            maxSeen = other.maxSeen;
    }
    sampleCount += other.sampleCount;
    sum += other.sum;
    const auto n = static_cast<unsigned>(other.counts.size());
    if (other.lo < lo || other.lo + n > lo + counts.size())
        cover(other.lo, other.lo + n - 1);
    for (unsigned k = 0; k < n; ++k)
        counts[other.lo - lo + k] += other.counts[k];
}

double
LogHistogram::mean() const
{
    return sampleCount == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(sampleCount);
}

std::uint64_t
LogHistogram::percentile(double p) const
{
    if (sampleCount == 0)
        return 0;
    if (p <= 0.0)
        return minSeen;
    // The rank of the sample the percentile asks for (1-based,
    // ceiling), clamped to the population.
    auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(sampleCount) + 0.9999999);
    if (rank > sampleCount)
        rank = sampleCount;
    if (rank == 0) // a p so small no sample is asked for
        return minSeen;
    std::uint64_t seen = 0;
    for (unsigned k = 0; k < counts.size(); ++k) {
        seen += counts[k];
        if (seen >= rank) {
            const unsigned i = lo + k;
            // Report the bucket's inclusive upper edge (conservative
            // for latency SLOs), clamped to the observed range.
            std::uint64_t hi = i + 1 < kBucketCount
                ? bucketLowerBound(i + 1) - 1
                : maxSeen;
            if (hi > maxSeen)
                hi = maxSeen;
            if (hi < minSeen)
                hi = minSeen;
            return hi;
        }
    }
    return maxSeen;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LogHistogram::nonZeroBuckets() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (unsigned k = 0; k < counts.size(); ++k) {
        if (counts[k])
            out.emplace_back(bucketLowerBound(lo + k), counts[k]);
    }
    return out;
}

namespace
{

/** Hash of (kind, name), folded to the 32 bits an entry keeps. */
std::uint32_t
hashName(std::uint8_t kind, std::string_view name)
{
    const std::uint64_t h = std::hash<std::string_view>{}(name) ^ kind;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

const char *const kKindNames[] = {"scalar", "distribution", "histogram"};

} // anonymous namespace

std::string_view
StatSet::nameOf(const Entry &e) const
{
    return std::string_view(names).substr(e.nameOffset, e.nameLength);
}

std::size_t
StatSet::probe(Kind kind, std::string_view name, std::uint32_t hash) const
{
    // Fibonacci hashing picks the home slot (the top log2(size) bits
    // of the product); linear probing from there.
    const std::size_t mask = index.size() - 1;
    std::size_t i =
        (hash * 0x9e3779b9u) >> (32 - std::countr_zero(index.size()));
    for (; index[i] != 0; i = (i + 1) & mask) {
        const Entry &e = entries[index[i] - 1];
        if (e.hash == hash && e.kind == kind && nameOf(e) == name)
            break;
    }
    return i;
}

void
StatSet::growIndex()
{
    index.assign(index.empty() ? 32 : 2 * index.size(), 0);
    for (std::uint32_t n = 0; n < entries.size(); ++n) {
        const Entry &e = entries[n];
        index[probe(e.kind, nameOf(e), e.hash)] = n + 1;
    }
}

const void *
StatSet::find(Kind kind, const std::string &name) const
{
    if (index.empty())
        return nullptr;
    const std::uint32_t n = index[probe(
        kind, name, hashName(static_cast<std::uint8_t>(kind), name))];
    return n != 0 ? entries[n - 1].stat : nullptr;
}

void
StatSet::add(Kind kind, const std::string &name, const void *stat)
{
    if (2 * (entries.size() + 1) > index.size())
        growIndex();
    const std::uint32_t hash =
        hashName(static_cast<std::uint8_t>(kind), name);
    const std::size_t slot = probe(kind, name, hash);
    if (index[slot] != 0)
        panic("duplicate %s stat '%s'",
              kKindNames[static_cast<int>(kind)], name.c_str());
    entries.push_back({stat, static_cast<std::uint32_t>(names.size()),
                       static_cast<std::uint32_t>(name.size()), hash,
                       kind});
    names += name;
    index[slot] = static_cast<std::uint32_t>(entries.size());
}

std::vector<const StatSet::Entry *>
StatSet::sorted(Kind kind) const
{
    std::vector<const Entry *> out;
    for (const Entry &e : entries) {
        if (e.kind == kind)
            out.push_back(&e);
    }
    // string_view compares like std::string (char_traits, as unsigned
    // bytes), so the order is the one a std::map<std::string> keeps.
    std::sort(out.begin(), out.end(),
              [this](const Entry *a, const Entry *b) {
                  return nameOf(*a) < nameOf(*b);
              });
    return out;
}

void
StatSet::addScalar(const std::string &name, const Scalar *stat)
{
    add(Kind::Scalar, name, stat);
}

void
StatSet::addDistribution(const std::string &name, const Distribution *stat)
{
    add(Kind::Distribution, name, stat);
}

void
StatSet::addHistogram(const std::string &name, const LogHistogram *stat)
{
    add(Kind::Histogram, name, stat);
}

std::uint64_t
StatSet::scalar(const std::string &name) const
{
    const void *stat = find(Kind::Scalar, name);
    if (!stat)
        panic("no scalar stat named '%s'", name.c_str());
    return static_cast<const Scalar *>(stat)->value();
}

bool
StatSet::hasScalar(const std::string &name) const
{
    return find(Kind::Scalar, name) != nullptr;
}

const Distribution &
StatSet::distribution(const std::string &name) const
{
    const void *stat = find(Kind::Distribution, name);
    if (!stat)
        panic("no distribution stat named '%s'", name.c_str());
    return *static_cast<const Distribution *>(stat);
}

bool
StatSet::hasDistribution(const std::string &name) const
{
    return find(Kind::Distribution, name) != nullptr;
}

const LogHistogram &
StatSet::histogram(const std::string &name) const
{
    const void *stat = find(Kind::Histogram, name);
    if (!stat)
        panic("no histogram stat named '%s'", name.c_str());
    return *static_cast<const LogHistogram *>(stat);
}

bool
StatSet::hasHistogram(const std::string &name) const
{
    return find(Kind::Histogram, name) != nullptr;
}

void
StatSet::dump(std::ostream &os) const
{
    for (const Entry *e : sorted(Kind::Scalar)) {
        os << nameOf(*e) << " "
           << static_cast<const Scalar *>(e->stat)->value() << "\n";
    }
    for (const Entry *e : sorted(Kind::Distribution)) {
        const std::string_view name = nameOf(*e);
        const auto *stat = static_cast<const Distribution *>(e->stat);
        os << name << ".samples " << stat->samples() << "\n";
        os << name << ".min " << stat->minValue() << "\n";
        os << name << ".max " << stat->maxValue() << "\n";
        os << name << ".mean " << stat->mean() << "\n";
    }
    for (const Entry *e : sorted(Kind::Histogram)) {
        const std::string_view name = nameOf(*e);
        const auto *stat = static_cast<const LogHistogram *>(e->stat);
        os << name << ".samples " << stat->samples() << "\n";
        os << name << ".min " << stat->minValue() << "\n";
        os << name << ".max " << stat->maxValue() << "\n";
        os << name << ".mean " << stat->mean() << "\n";
        os << name << ".p50 " << stat->p50() << "\n";
        os << name << ".p95 " << stat->p95() << "\n";
        os << name << ".p99 " << stat->p99() << "\n";
        os << name << ".p999 " << stat->p999() << "\n";
    }
}

void
StatSet::dumpCsv(std::ostream &os) const
{
    os << "stat,value\n";
    for (const Entry *e : sorted(Kind::Scalar)) {
        os << nameOf(*e) << ","
           << static_cast<const Scalar *>(e->stat)->value() << "\n";
    }
}

void
StatSet::dumpJson(json::Writer &w) const
{
    w.beginObject().key("scalars").beginObject();
    for (const Entry *e : sorted(Kind::Scalar))
        w.member(nameOf(*e), static_cast<const Scalar *>(e->stat)->value());
    w.endObject().key("distributions").beginObject();
    for (const Entry *e : sorted(Kind::Distribution)) {
        const auto *stat = static_cast<const Distribution *>(e->stat);
        w.key(nameOf(*e)).beginObject();
        w.member("samples", stat->samples()).member("min", stat->minValue());
        w.member("max", stat->maxValue()).member("mean", stat->mean());
        w.member("bucketWidth", stat->bucketWidth());
        w.key("buckets").beginArray();
        for (std::uint64_t b : stat->buckets())
            w.value(b);
        w.endArray().endObject();
    }
    w.endObject().key("histograms").beginObject();
    for (const Entry *e : sorted(Kind::Histogram)) {
        const auto *stat = static_cast<const LogHistogram *>(e->stat);
        w.key(nameOf(*e)).beginObject();
        w.member("samples", stat->samples()).member("min", stat->minValue());
        w.member("max", stat->maxValue()).member("mean", stat->mean());
        w.member("p50", stat->p50()).member("p95", stat->p95());
        w.member("p99", stat->p99()).member("p999", stat->p999());
        w.endObject();
    }
    w.endObject().endObject().endLine();
}

} // namespace pva
