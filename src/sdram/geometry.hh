/**
 * @file
 * Memory-system geometry and address mapping.
 *
 * The paper's prototype is a 16-bank word-interleaved system (M = 16,
 * N = 1) where each bank is one 32-bit-wide SDRAM device with four
 * internal banks. This class also supports cache-line (block)
 * interleaving with N > 1 words per block so that the logical-bank
 * transformation of section 4.1.3 can be exercised.
 *
 * Word-address layout for interleave N = 2^n over M = 2^m banks:
 *
 *     | bank-local high bits | bank (m bits) | block offset (n bits) |
 *
 * DecodeBank(addr) = (wordAddr >> n) mod M, exactly the paper's
 * bit-select definition.
 */

#ifndef PVA_SDRAM_GEOMETRY_HH
#define PVA_SDRAM_GEOMETRY_HH

#include <cstdint>

#include "sim/types.hh"

namespace pva
{

/** Coordinates of a word inside one SDRAM device. */
struct DeviceCoords
{
    unsigned internalBank;
    std::uint32_t row;
    std::uint32_t col;

    bool
    operator==(const DeviceCoords &o) const
    {
        return internalBank == o.internalBank && row == o.row &&
               col == o.col;
    }
};

/** Static description of the memory system's shape. */
class Geometry
{
  public:
    /**
     * @param banks        number of external banks M (power of two).
     * @param interleave   words per consecutive block in one bank, N
     *                     (power of two; 1 = word interleave).
     * @param col_bits     column address bits per internal bank.
     * @param ibank_bits   internal-bank address bits (2 for 4 banks).
     * @param row_bits     row address bits.
     */
    Geometry(unsigned banks = 16, unsigned interleave = 1,
             unsigned col_bits = 9, unsigned ibank_bits = 2,
             unsigned row_bits = 13);

    unsigned banks() const { return numBanks; }
    unsigned bankBits() const { return mBits; }
    unsigned interleave() const { return numInterleave; }
    unsigned interleaveBits() const { return nBits; }
    unsigned internalBanks() const { return 1u << internalBankBits; }
    unsigned ibankBits() const { return internalBankBits; }
    unsigned colBits() const { return columnBits; }
    unsigned rowBits() const { return rowAddressBits; }

    /** Words of capacity per external bank. */
    std::uint64_t
    wordsPerBank() const
    {
        return 1ULL << (columnBits + internalBankBits + rowAddressBits);
    }

    /** The paper's DecodeBank(): which external bank holds this word. */
    unsigned
    bankOf(WordAddr w) const
    {
        return static_cast<unsigned>((w >> nBits) & (numBanks - 1));
    }

    /** Bank-local word index (dense within one bank). */
    WordAddr
    bankLocal(WordAddr w) const
    {
        WordAddr block = w >> (nBits + mBits);
        WordAddr offset = w & ((1ULL << nBits) - 1);
        return (block << nBits) | offset;
    }

    /** Map a flat word address to device coordinates within its bank.
     *  Inline: the restimer scoreboard decomposes every candidate op
     *  on the scheduler hot path. */
    DeviceCoords
    decompose(WordAddr w) const
    {
        WordAddr local = bankLocal(w);
        DeviceCoords c;
        c.col =
            static_cast<std::uint32_t>(local & ((1ULL << columnBits) - 1));
        c.internalBank = static_cast<unsigned>(
            (local >> columnBits) & ((1ULL << internalBankBits) - 1));
        c.row = static_cast<std::uint32_t>(
            (local >> (columnBits + internalBankBits)) &
            ((1ULL << rowAddressBits) - 1));
        return c;
    }

    /** Inverse of decompose() for bank @p bank. */
    WordAddr compose(unsigned bank, const DeviceCoords &c) const;

    bool operator==(const Geometry &) const = default;

  private:
    unsigned numBanks;
    unsigned mBits;
    unsigned numInterleave;
    unsigned nBits;
    unsigned columnBits;
    unsigned internalBankBits;
    unsigned rowAddressBits;
};

} // namespace pva

#endif // PVA_SDRAM_GEOMETRY_HH
