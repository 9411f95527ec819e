/**
 * @file
 * SRF space allocation for streams.
 *
 * Stream programs strip-mine their data so all live streams fit in the
 * SRF (§2). The allocator hands out per-lane word regions aligned to
 * the sequential access width; programs typically allocate a set of
 * double-buffered strips plus persistent tables.
 */
#ifndef ISRF_CORE_STREAM_H
#define ISRF_CORE_STREAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "srf/srf_types.h"

namespace isrf {

/**
 * Bump allocator over each lane's SRF words (all lanes are allocated
 * in lockstep: a region is the same address range in every bank).
 * Scopes free in stack order: closing a scope returns every word
 * allocated since it opened.
 */
class SrfAllocator
{
  public:
    explicit SrfAllocator(const SrfGeometry &geom = {})
        : geom_(geom)
    {
    }

    void
    init(const SrfGeometry &geom)
    {
        geom_ = geom;
        cursor_ = 0;
        scopes_.clear();
    }

    /**
     * Allocate a region able to hold a stream.
     *
     * @param totalWords Stream length: total words across lanes for
     *        Striped layout, max per-lane words for PerLane.
     * @param layout Data layout of the stream.
     * @return base word address (same in every lane).
     */
    uint32_t
    alloc(uint64_t totalWords, StreamLayout layout)
    {
        uint64_t perLane = perLaneWords(totalWords, layout);
        uint64_t aligned = roundUp(perLane, geom_.seqWidth);
        if (cursor_ + aligned > geom_.laneWords) {
            // Out of SRF space: the workload must strip-mine harder.
            return kAllocFail;
        }
        auto base = static_cast<uint32_t>(cursor_);
        cursor_ += aligned;
        return base;
    }

    /** Words each lane needs for a stream of this size/layout. */
    uint64_t
    perLaneWords(uint64_t totalWords, StreamLayout layout) const
    {
        if (layout == StreamLayout::PerLane)
            return totalWords;
        uint64_t blocks =
            (totalWords + geom_.seqWidth - 1) / geom_.seqWidth;
        uint64_t rows = (blocks + geom_.lanes - 1) / geom_.lanes;
        return rows * geom_.seqWidth;
    }

    /** Reset all allocations (between program phases). */
    void reset() { cursor_ = 0; }

    /** Open a scope at the current cursor. @return its depth. */
    size_t
    openScope()
    {
        scopes_.push_back(cursor_);
        return scopes_.size() - 1;
    }

    /**
     * Free everything allocated since scope `depth` opened.
     * @return false, freeing nothing, unless `depth` is the innermost
     *         open scope.
     */
    bool
    closeScope(size_t depth)
    {
        if (depth + 1 != scopes_.size())
            return false;
        cursor_ = scopes_.back();
        scopes_.pop_back();
        return true;
    }

    /** Unallocated words per lane. */
    uint64_t freeWords() const { return geom_.laneWords - cursor_; }
    uint64_t usedWords() const { return cursor_; }

    static constexpr uint32_t kAllocFail = 0xffffffffu;

  private:
    static uint64_t
    roundUp(uint64_t v, uint64_t a)
    {
        return (v + a - 1) / a * a;
    }

    SrfGeometry geom_;
    uint64_t cursor_ = 0;
    /** Cursor at each open scope's start, outermost first. */
    std::vector<uint64_t> scopes_;
};

} // namespace isrf

#endif // ISRF_CORE_STREAM_H
