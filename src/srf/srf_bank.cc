#include "srf/srf_bank.h"

#include "util/log.h"

namespace isrf {

void
SrfBank::init(const SrfGeometry &geom, uint32_t laneId)
{
    geom_ = geom;
    laneId_ = laneId;
    remoteDepth_ = geom.remoteQueueDepth;
    words_.assign(geom.laneWords, 0);
    subArrays_.assign(geom.subArrays, SubArray());
    remoteQueue_.clear();
    portsDirty_ = true;  // fresh sub-arrays: force one clean reset
}

void
SrfBank::newCycle()
{
    // Sub-array ports only become busy through the claim calls below;
    // with none since the last reset every port is already free.
    if (!portsDirty_)
        return;
    for (auto &sa : subArrays_)
        sa.newCycle();
    portsDirty_ = false;
}

Word
SrfBank::read(uint32_t addr) const
{
    if (addr >= words_.size())
        panic("SrfBank[%u]::read: address %u out of range (%zu words)",
              laneId_, addr, words_.size());
    return words_[addr];
}

void
SrfBank::write(uint32_t addr, Word w)
{
    if (addr >= words_.size())
        panic("SrfBank[%u]::write: address %u out of range (%zu words)",
              laneId_, addr, words_.size());
    words_[addr] = w;
}

bool
SrfBank::claimSequentialRow(uint32_t addr)
{
    if (addr % geom_.seqWidth != 0)
        panic("SrfBank[%u]: unaligned sequential row address %u", laneId_,
              addr);
    portsDirty_ = true;
    return subArrays_[geom_.subArrayOf(addr)].claimSequential();
}

bool
SrfBank::claimIndexedWord(uint32_t addr)
{
    if (addr >= words_.size())
        panic("SrfBank[%u]: indexed address %u out of range", laneId_, addr);
    portsDirty_ = true;
    return subArrays_[geom_.subArrayOf(addr)].claimIndexed();
}

uint64_t
SrfBank::sequentialAccesses() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.sequentialAccesses();
    return n;
}

uint64_t
SrfBank::indexedAccesses() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.indexedAccesses();
    return n;
}

uint64_t
SrfBank::subArrayConflicts() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.conflicts();
    return n;
}

} // namespace isrf
