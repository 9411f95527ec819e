#include "mem/memory_system.h"

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

namespace {

const char *
memOpName(MemOpKind kind)
{
    switch (kind) {
      case MemOpKind::Load: return "load";
      case MemOpKind::Store: return "store";
      case MemOpKind::Gather: return "gather";
      case MemOpKind::Scatter: return "scatter";
    }
    return "?";
}

} // namespace

void
MemorySystem::init(const MemSystemConfig &cfg, const DramConfig &dramCfg,
                   const CacheConfig &cacheCfg, Srf *srf,
                   Tracer *tracer)
{
    cfg_ = cfg;
    srf_ = srf;
    trc_ = tracer ? tracer : &Tracer::instance();
    dram_.init(dramCfg, trc_);
    cache_.init(cacheCfg);
    units_.assign(cfg.units, StreamMemUnit());
    unitOpId_.assign(cfg.units, 0);
    for (auto &u : units_) {
        u.init(&dram_, cfg.cacheEnabled ? &cache_ : nullptr, srf,
               cfg.stagingWords, trc_);
    }
    queue_.clear();
    nextId_ = 1;
    lastCompletion_ = kNoEvent;
    stats_.resetAll();
    traceCh_ = trc_->channel("mem");
    queueDepthHist_ = &stats_.histogram("queue_depth", 0,
        static_cast<double>(cfg.units + 16), cfg.units + 16);
}

MemOpId
MemorySystem::submit(MemOp op)
{
    if (op.srfSlot == kNoSlot)
        panic("MemorySystem::submit: op without SRF slot");
    if (!cfg_.cacheEnabled)
        op.cached = false;
    MemOpId id = nextId_++;
    queue_.push_back({id, std::move(op)});
    stats_.counter("ops_submitted").inc();
    return id;
}

bool
MemorySystem::done(MemOpId id) const
{
    if (id <= 0 || id >= nextId_)
        return false;
    if (!queue_.empty() && id >= queue_.front().id)
        return false;
    for (size_t u = 0; u < units_.size(); u++)
        if (units_[u].busy() && unitOpId_[u] == id)
            return false;
    return true;
}

bool
MemorySystem::idle() const
{
    if (!queue_.empty())
        return false;
    for (const auto &u : units_)
        if (u.busy())
            return false;
    return true;
}

size_t
MemorySystem::inFlight() const
{
    size_t n = queue_.size();
    for (const auto &u : units_)
        if (u.busy())
            n++;
    return n;
}

void
MemorySystem::tick(Cycle now)
{
    dram_.tick();
    MemBandwidth bw;
    bw.cacheTokens = cfg_.cacheEnabled ? cache_.config().wordsPerCycle : 0;

    size_t busyBefore = inFlight();
    if (busyBefore > 0)
        queueDepthHist_->sample(static_cast<double>(busyBefore));

    // Dispatch queued ops to free units.
    for (size_t u = 0; u < units_.size() && !queue_.empty(); u++) {
        if (units_[u].busy())
            continue;
        units_[u].start(queue_.front().op, now);
        unitOpId_[u] = queue_.front().id;
        if (trc_->on()) {
            trc_->instant(traceCh_,
                memOpName(queue_.front().op.kind), now,
                static_cast<uint64_t>(queue_.front().id));
        }
        queue_.pop_front();
        stats_.counter("ops_started").inc();
    }

    for (size_t u = 0; u < units_.size(); u++) {
        bool wasBusy = units_[u].busy();
        units_[u].tick(now, bw);
        if (wasBusy && !units_[u].busy()) {
            lastCompletion_ = now;
            stats_.counter("ops_completed").inc();
            if (trc_->on()) {
                trc_->instant(traceCh_, "op_done", now,
                    static_cast<uint64_t>(unitOpId_[u]));
            }
        }
    }
}

} // namespace isrf
