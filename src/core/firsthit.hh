/**
 * @file
 * The PVA FirstHit()/NextHit() algorithms of chapter 4.
 *
 * Given a broadcast vector V = <B, S, L>, every bank controller must
 * determine — without expanding the vector — the index of the first
 * element that lands in its bank (FirstHit) and the constant index
 * increment between consecutive elements in the same bank (NextHit).
 *
 * This module implements:
 *  - the brute-force reference (definitional; used by tests),
 *  - the fast word-interleave algorithm of Theorems 4.3/4.4
 *    (FirstHit = (K1 * i) mod 2^(m-s), NextHit = 2^(m-s)),
 *  - the general recursive NextHit of section 4.1.2 for cache-line
 *    interleaved systems, and
 *  - the logical-bank transformation of section 4.1.3 that reduces
 *    block/cache-line interleave (and wide banks) to word interleave.
 */

#ifndef PVA_CORE_FIRSTHIT_HH
#define PVA_CORE_FIRSTHIT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/vector_command.hh"
#include "sdram/geometry.hh"
#include "sim/types.hh"

namespace pva
{

/** Result of FirstHit(V, b): index of the first element in bank b. */
struct FirstHit
{
    bool hit = false;
    std::uint32_t index = 0;

    bool operator==(const FirstHit &o) const
    {
        return hit == o.hit && (!hit || index == o.index);
    }
};

/** The paper's S = sigma * 2^s decomposition of a stride modulo M. */
struct StrideDecomposition
{
    std::uint32_t strideModM; ///< S mod M (lemma 4.1: all that matters)
    unsigned s;               ///< trailing zeros of (S mod M)
    std::uint32_t sigma;      ///< odd part of (S mod M)
    std::uint32_t delta;      ///< NextHit = 2^(m-s) (theorem 4.4)

    /** True iff the stride is congruent to 0 mod M: the whole vector
     *  stays in the one bank holding V.B. */
    bool
    wholeVectorInOneBank() const
    {
        return strideModM == 0;
    }
};

/** Decompose stride @p stride for an M = 2^m bank system. */
StrideDecomposition decomposeStride(std::uint32_t stride, unsigned m);

/**
 * K1 of theorem 4.3: the smallest vector index that hits the bank at
 * distance 2^s from the base bank. Defined for stride_mod_m != 0.
 */
std::uint32_t computeK1(std::uint32_t stride_mod_m, unsigned m);

/**
 * Fast FirstHit for a word-interleaved system of M = 2^m banks
 * (theorem 4.3). O(1): a table lookup plus a multiply-and-mask in
 * hardware; here computed directly.
 */
FirstHit firstHitWord(const VectorCommand &v, unsigned bank, unsigned m);

/** NextHit for word interleave (theorem 4.4): 2^(m-s); 1 if S mod M == 0
 *  (every element stays in one bank). */
std::uint32_t nextHitWord(std::uint32_t stride, unsigned m);

/**
 * Brute-force FirstHit reference: walk the vector until an element maps
 * to @p bank under @p geo. Definitional; O(L).
 */
FirstHit firstHitBrute(const VectorCommand &v, unsigned bank,
                       const Geometry &geo);

/**
 * Brute-force NextHit reference for cache-line interleave: least p >= 1
 * such that (theta + p*stride) mod NM < N, i.e. the revisit period of a
 * bank's block frame. Returns nullopt if no revisit within NM steps
 * (cannot happen for stride < NM, asserted in tests).
 */
std::optional<std::uint32_t> nextHitBrute(std::uint32_t theta,
                                          std::uint32_t stride, unsigned n_words,
                                          std::uint32_t nm);

/**
 * The recursive NextHit of section 4.1.2 (the paper's C listing, with
 * the implicit global N made explicit). @p theta is the offset of the
 * known hit within the bank's block (0 <= theta < n_words), @p stride
 * the vector stride mod NM (0 < stride < nm), @p nm = N*M.
 */
std::uint32_t nextHitRecursive(std::uint32_t theta, std::uint32_t stride,
                               unsigned n_words, std::uint32_t nm);

/**
 * All vector indices that hit @p bank, in increasing order — the bank's
 * sub-vector. Uses the logical-bank transformation for N > 1: physical
 * bank b owns logical word-interleaved banks [b*N, (b+1)*N) of an
 * (N*M)-bank system, each contributing an arithmetic sequence
 * K_i + j*delta' that is merged here.
 */
std::vector<std::uint32_t> expandBankIndices(const VectorCommand &v,
                                             unsigned bank,
                                             const Geometry &geo);

/**
 * The banks holding at least one element of @p v, in ascending order,
 * into @p out: exactly the bank controllers whose FirstHit predictors
 * assert hit for the broadcast (the others' shares are empty). @p mark
 * is per-bank scratch, grown to geo.banks() entries on first use and
 * all zero between calls, so steady-state calls do not allocate.
 */
void hitBanks(const VectorCommand &v, const Geometry &geo,
              std::vector<std::uint8_t> &mark, std::vector<unsigned> &out);

/**
 * The sub-vector of @p bank expressed as the hardware sees it for word
 * interleave: first index and constant increment (count derived from L).
 * Only valid for N == 1 geometries.
 */
struct SubVector
{
    bool hit = false;
    std::uint32_t firstIndex = 0;
    std::uint32_t delta = 1;
    std::uint32_t count = 0;

    /** Vector index of the j-th element of this bank's sub-vector. */
    std::uint32_t
    index(std::uint32_t j) const
    {
        return firstIndex + delta * j;
    }
};

/** Compute the word-interleave sub-vector of @p bank. */
SubVector subVectorWord(const VectorCommand &v, unsigned bank, unsigned m);

} // namespace pva

#endif // PVA_CORE_FIRSTHIT_HH
