#include "sdram/geometry.hh"

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

Geometry::Geometry(unsigned banks, unsigned interleave, unsigned col_bits,
                   unsigned ibank_bits, unsigned row_bits)
    : numBanks(banks), numInterleave(interleave), columnBits(col_bits),
      internalBankBits(ibank_bits), rowAddressBits(row_bits)
{
    if (!isPowerOfTwo(banks)) {
        throw SimError(SimErrorKind::Config, "geometry", kNeverCycle,
                       csprintf("bank count %u is not a power of two",
                                banks));
    }
    if (!isPowerOfTwo(interleave)) {
        throw SimError(SimErrorKind::Config, "geometry", kNeverCycle,
                       csprintf("interleave factor %u is not a power "
                                "of two", interleave));
    }
    mBits = log2Exact(banks);
    nBits = log2Exact(interleave);
}

WordAddr
Geometry::compose(unsigned bank, const DeviceCoords &c) const
{
    WordAddr local = (static_cast<WordAddr>(c.row)
                      << (columnBits + internalBankBits)) |
                     (static_cast<WordAddr>(c.internalBank) << columnBits) |
                     c.col;
    WordAddr block = local >> nBits;
    WordAddr offset = local & ((1ULL << nBits) - 1);
    return (block << (nBits + mBits)) |
           (static_cast<WordAddr>(bank) << nBits) | offset;
}

} // namespace pva
