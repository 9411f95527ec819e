#include "mem/cache.h"

#include "util/log.h"

namespace isrf {

Cache::Cache(const CacheConfig &cfg)
{
    init(cfg);
}

void
Cache::init(const CacheConfig &cfg)
{
    cfg_ = cfg;
    if (cfg.lineWords == 0 || cfg.ways == 0 || cfg.banks == 0)
        fatal("Cache: invalid geometry");
    uint32_t linesTotal = cfg.capacityWords / cfg.lineWords;
    if (linesTotal % cfg.ways != 0)
        fatal("Cache: capacity not divisible by ways");
    sets_ = linesTotal / cfg.ways;
    lines_.assign(static_cast<size_t>(sets_) * cfg.ways, Line());
    stamp_ = 0;
    resetStats();
}

CacheAccessResult
Cache::access(uint64_t lineAddr, bool isWrite)
{
    CacheAccessResult res;
    uint32_t set = static_cast<uint32_t>(lineAddr % sets_);
    uint64_t tag = lineAddr / sets_;
    Line *base = &lines_[static_cast<size_t>(set) * cfg_.ways];

    stamp_++;
    for (uint32_t w = 0; w < cfg_.ways; w++) {
        Line &ln = base[w];
        if (ln.valid && ln.tag == tag) {
            ln.lru = stamp_;
            ln.dirty = ln.dirty || isWrite;
            hits_++;
            res.hit = true;
            return res;
        }
    }

    // Miss: allocate, evicting the LRU way.
    misses_++;
    uint32_t victim = 0;
    for (uint32_t w = 1; w < cfg_.ways; w++) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (!base[victim].valid)
            break;
        if (base[w].lru < base[victim].lru)
            victim = w;
    }
    Line &ln = base[victim];
    if (ln.valid && ln.dirty) {
        writebacks_++;
        res.writeback = true;
        res.evictedLineAddr = ln.tag * sets_ + set;
    }
    ln.valid = true;
    ln.dirty = isWrite;
    ln.tag = tag;
    ln.lru = stamp_;
    return res;
}

bool
Cache::probe(uint64_t lineAddr) const
{
    uint32_t set = static_cast<uint32_t>(lineAddr % sets_);
    uint64_t tag = lineAddr / sets_;
    const Line *base = &lines_[static_cast<size_t>(set) * cfg_.ways];
    for (uint32_t w = 0; w < cfg_.ways; w++)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &ln : lines_)
        ln = Line();
}

} // namespace isrf
