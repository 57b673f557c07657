#include "core/firsthit.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pva
{

StrideDecomposition
decomposeStride(std::uint32_t stride, unsigned m)
{
    const std::uint32_t M = 1u << m;
    StrideDecomposition d;
    d.strideModM = stride & (M - 1);
    if (d.strideModM == 0) {
        // The whole vector stays in DecodeBank(V.B); the index increment
        // within that one bank is 1.
        d.s = m;
        d.sigma = 0;
        d.delta = 1;
        return d;
    }
    d.s = trailingZeros(d.strideModM);
    d.sigma = d.strideModM >> d.s;
    d.delta = 1u << (m - d.s);
    return d;
}

std::uint32_t
computeK1(std::uint32_t stride_mod_m, unsigned m)
{
    if (stride_mod_m == 0)
        panic("computeK1 undefined for stride == 0 mod M");
    const std::uint32_t M = 1u << m;
    const unsigned s = trailingZeros(stride_mod_m);
    const std::uint32_t target = 1u << s;
    const std::uint32_t delta = 1u << (m - s);
    // K1 = sigma^-1 mod 2^(m-s); found by scan exactly as a PLA would
    // have its contents enumerated at design time.
    for (std::uint32_t k = 1; k <= delta; ++k) {
        if ((static_cast<std::uint64_t>(k) * stride_mod_m) % M == target)
            return k;
    }
    panic("no K1 for stride %u mod 2^%u", stride_mod_m, m);
}

FirstHit
firstHitWord(const VectorCommand &v, unsigned bank, unsigned m)
{
    const std::uint32_t M = 1u << m;
    if (v.length == 0)
        return {};
    const unsigned b0 = static_cast<unsigned>(v.base & (M - 1));
    if (bank == b0)
        return {true, 0}; // case 0: V[0] lives here

    StrideDecomposition sd = decomposeStride(v.stride, m);
    if (sd.wholeVectorInOneBank())
        return {}; // every element stays in b0

    const std::uint32_t d = (bank + M - b0) & (M - 1);
    if (d & ((1u << sd.s) - 1))
        return {}; // lemma 4.2: only every 2^s-th bank is hit

    const std::uint32_t i = d >> sd.s;
    const std::uint32_t k1 = computeK1(sd.strideModM, m);
    const std::uint32_t ki =
        static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(k1) * i) % sd.delta);
    if (ki >= v.length)
        return {}; // the vector ends before reaching this bank
    return {true, ki};
}

std::uint32_t
nextHitWord(std::uint32_t stride, unsigned m)
{
    StrideDecomposition sd = decomposeStride(stride, m);
    return sd.delta; // theorem 4.4 (and 1 for the one-bank case)
}

SubVector
subVectorWord(const VectorCommand &v, unsigned bank, unsigned m)
{
    SubVector sv;
    FirstHit fh = firstHitWord(v, bank, m);
    if (!fh.hit)
        return sv;
    sv.hit = true;
    sv.firstIndex = fh.index;
    sv.delta = nextHitWord(v.stride, m);
    sv.count = 1 + (v.length - 1 - fh.index) / sv.delta;
    return sv;
}

FirstHit
firstHitBrute(const VectorCommand &v, unsigned bank, const Geometry &geo)
{
    for (std::uint32_t i = 0; i < v.length; ++i) {
        if (geo.bankOf(v.element(i)) == bank)
            return {true, i};
    }
    return {};
}

std::optional<std::uint32_t>
nextHitBrute(std::uint32_t theta, std::uint32_t stride, unsigned n_words,
             std::uint32_t nm)
{
    for (std::uint32_t p = 1; p <= nm; ++p) {
        if ((theta + static_cast<std::uint64_t>(p) * stride) % nm < n_words)
            return p;
    }
    return std::nullopt;
}

std::uint32_t
nextHitRecursive(std::uint32_t theta, std::uint32_t stride, unsigned n_words,
                 std::uint32_t nm)
{
    const std::uint32_t N = n_words;

    if (stride < N) {
        // Sub-block steps: the next block-frame hit is either immediate
        // or at the wrap around NM.
        if (theta + stride < N)
            return 1;
        std::uint32_t p3_plus_1 = (nm - theta) / stride;
        if (p3_plus_1 &&
            (theta + static_cast<std::uint64_t>(p3_plus_1) * stride) % nm <
                N) {
            return p3_plus_1;
        }
        return p3_plus_1 + 1;
    }

    std::uint32_t s1 = nm % stride;
    if (s1 <= theta)
        return nm / stride;

    std::uint32_t p2;
    if (s1 < N) {
        p2 = (stride - N + theta) / s1 + 1;
    } else {
        std::uint32_t s2 = stride % s1;
        if (s2 == 0) {
            // The paper's listing divides by s1 without guarding this
            // degenerate subcase (s1 divides stride). Solve condition (3)
            // of section 4.1.2 directly: find the least p2 whose
            // p2*NM mod stride falls within (stride-N+theta, stride+theta]
            // interpreted modulo stride.
            p2 = 0;
            for (std::uint32_t cand = 1; cand <= stride; ++cand) {
                std::uint64_t r =
                    (static_cast<std::uint64_t>(cand) * nm) % stride;
                bool in_wrapped_interval =
                    r > stride - N + theta || r <= theta;
                if (in_wrapped_interval) {
                    p2 = cand;
                    break;
                }
            }
            if (p2 == 0)
                panic("nextHitRecursive: no p2 (theta=%u stride=%u nm=%u)",
                      theta, stride, nm);
        } else {
            std::uint32_t p3_plus_1 = nextHitRecursive(theta, s2, N, s1);
            p2 = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(p3_plus_1) * stride + theta) /
                s1);
        }
    }

    std::uint32_t carry = 1;
    if ((static_cast<std::uint64_t>(p2) * nm) % stride <=
        stride - N + theta) {
        carry = 0;
    }
    std::uint32_t p1_minus_1 = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(p2) * nm) / stride);
    return p1_minus_1 + carry;
}

std::vector<std::uint32_t>
expandBankIndices(const VectorCommand &v, unsigned bank, const Geometry &geo)
{
    std::vector<std::uint32_t> indices;
    const unsigned m = geo.bankBits();
    const unsigned n = geo.interleaveBits();

    if (n == 0) {
        SubVector sv = subVectorWord(v, bank, m);
        for (std::uint32_t j = 0; j < sv.count; ++j)
            indices.push_back(sv.index(j));
        return indices;
    }

    // Section 4.1.3: physical bank b of an N-word-interleaved M-bank
    // system behaves as logical word-interleaved banks
    // [b*N, (b+1)*N) of an (N*M)-bank system.
    const unsigned logical_m = m + n;
    const unsigned N = geo.interleave();
    for (unsigned lb = bank * N; lb < (bank + 1) * N; ++lb) {
        SubVector sv = subVectorWord(v, lb, logical_m);
        for (std::uint32_t j = 0; j < sv.count; ++j)
            indices.push_back(sv.index(j));
    }
    std::sort(indices.begin(), indices.end());
    return indices;
}

void
hitBanks(const VectorCommand &v, const Geometry &geo,
         std::vector<std::uint8_t> &mark, std::vector<unsigned> &out)
{
    const unsigned banks = geo.banks();
    if (mark.size() < banks)
        mark.assign(banks, 0);
    out.clear();
    unsigned found = 0;
    for (std::uint32_t i = 0; i < v.length && found < banks; ++i) {
        std::uint8_t &m = mark[geo.bankOf(v.element(i))];
        found += m == 0;
        m = 1;
    }
    for (unsigned b = 0; out.size() < found; ++b) {
        if (mark[b]) {
            mark[b] = 0;
            out.push_back(b);
        }
    }
}

} // namespace pva
