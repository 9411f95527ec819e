#include "cluster/cluster.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
KernelInvocation::finalize()
{
    if (!graph)
        panic("KernelInvocation: no graph");
    size_t nSlots = graph->streamSlots().size();
    if (slots.size() != nSlots)
        panic("KernelInvocation(%s): %zu slot bindings for %zu slots",
              graph->name().c_str(), slots.size(), nSlots);
    seqReadsPerIter.assign(nSlots, 0);
    seqWritesPerIter.assign(nSlots, 0);
    idxReadsPerIter.assign(nSlots, 0);
    idxWritesPerIter.assign(nSlots, 0);
    idxReadOffsets.assign(nSlots, {});
    commSendsPerIter = 0;
    for (NodeId id = 0; id < graph->nodeCount(); id++) {
        const Node &n = graph->node(id);
        switch (n.op) {
          case Opcode::SeqRead:
            seqReadsPerIter[n.streamSlot]++;
            break;
          case Opcode::SeqWrite:
            seqWritesPerIter[n.streamSlot]++;
            break;
          case Opcode::IdxRead:
            idxReadsPerIter[n.streamSlot]++;
            idxReadOffsets[n.streamSlot].push_back(
                sched.opCycle.empty() ? sched.separation
                                      : sched.opCycle[id]);
            break;
          case Opcode::IdxWrite:
            idxWritesPerIter[n.streamSlot]++;
            break;
          case Opcode::CommSend:
            commSendsPerIter++;
            break;
          default:
            break;
        }
    }
    for (auto &offsets : idxReadOffsets)
        std::sort(offsets.begin(), offsets.end());
    if (laneTraces.empty())
        panic("KernelInvocation(%s): no lane traces",
              graph->name().c_str());
    for (auto &t : laneTraces) {
        t.seqWrites.resize(nSlots);
        t.idxReads.resize(nSlots);
        t.idxWrites.resize(nSlots);
    }
}

void
Cluster::init(uint32_t lane, Srf *srf, Crossbar *dataNet,
              Tracer *tracer)
{
    trc_ = tracer ? tracer : &Tracer::instance();
    lane_ = lane;
    srf_ = srf;
    dataNet_ = dataNet;
    traceCh_ = trc_->channel("cluster");
}

void
Cluster::bind(const KernelInvocation *inv, Cycle now)
{
    if (inv_)
        panic("Cluster[%u]: bind while bound", lane_);
    inv_ = inv;
    bindCycle_ = now;
    itersIssued_ = 0;
    nextIssue_ = now + inv->startOverhead;
    lastIssue_ = now;
    pendingCommSends_ = 0;
    size_t nSlots = inv->graph->streamSlots().size();
    if (nSlots > kMaxSlots)
        panic("Cluster[%u]: kernel %s binds %zu stream slots (max %zu)",
              lane_, inv->graph->name().c_str(), nSlots, kMaxSlots);
    dataNeeds_.assign(nSlots, {});
    seqWriteCur_.assign(nSlots, 0);
    seqWriteDone_.assign(nSlots, 0);
    idxReadCur_.assign(nSlots, 0);
    idxReadDone_.assign(nSlots, 0);
    idxWriteCur_.assign(nSlots, 0);
    idxWriteDone_.assign(nSlots, 0);
    pendingIn_.assign(nSlots, 0);
    pendingMask_ = 0;
    needMask_ = 0;
    doneReported_ = false;
    if (trc_->on())
        trc_->instant(traceCh_, "bind", now, lane_);
}

void
Cluster::unbind()
{
    inv_ = nullptr;
}

bool
Cluster::stagedRange(size_t s) const
{
    return seqWriteDone_[s] < seqWriteCur_[s] ||
        idxReadDone_[s] < idxReadCur_[s] ||
        idxWriteDone_[s] < idxWriteCur_[s];
}

bool
Cluster::done(Cycle now) const
{
    if (!inv_)
        return true;
    uint64_t total = inv_->laneTraces[lane_].iterations;
    if (itersIssued_ < total)
        return false;
    if (needMask_ != 0)
        return false;
    // Staged writes and indexed accesses hold a finished lane open;
    // staged sequential reads do not.
    for (uint64_t m = pendingMask_; m != 0; m &= m - 1)
        if (stagedRange(static_cast<size_t>(__builtin_ctzll(m))))
            return false;
    if (pendingCommSends_ > 0)
        return false;
    if (total > 0 && now < lastIssue_ + inv_->sched.length)
        return false;
    return true;
}

bool
Cluster::consumeDueData(Cycle now)
{
    for (uint64_t m = needMask_; m != 0; m &= m - 1) {
        size_t s = static_cast<size_t>(__builtin_ctzll(m));
        auto &q = dataNeeds_[s];
        while (!q.empty() && q.front() <= now) {
            SlotId slot = inv_->slots[s];
            if (!srf_->idxDataReady(lane_, slot, now))
                return false;
            Word tmp[4];
            srf_->idxDataPop(lane_, slot, tmp);
            q.pop_front();
        }
        if (q.empty())
            needMask_ &= ~(uint64_t{1} << s);
    }
    return true;
}

void
Cluster::drainPending(Cycle now)
{
    const LaneTrace &tr = inv_->laneTraces[lane_];
    for (uint64_t m = pendingMask_; m != 0; m &= m - 1) {
        size_t s = static_cast<size_t>(__builtin_ctzll(m));
        SlotId slot = inv_->slots[s];
        // Sequential reads: consume buffered words; if the stream has
        // run dry in storage, the remaining reads are a short tail and
        // are dropped (final partial iteration).
        while (pendingIn_[s] > 0 && srf_->seqCanRead(lane_, slot)) {
            srf_->seqRead(lane_, slot);
            pendingIn_[s]--;
        }
        if (pendingIn_[s] > 0 &&
                srf_->seqWordsRemaining(lane_, slot) == 0) {
            pendingIn_[s] = 0;
        }
        // Sequential writes.
        while (seqWriteDone_[s] < seqWriteCur_[s] &&
               srf_->seqCanWrite(lane_, slot)) {
            srf_->seqWrite(lane_, slot,
                           tr.seqWrites[s][seqWriteDone_[s]++]);
        }
        // Indexed reads: push addresses into the FIFO as space frees;
        // the data-need clock starts at the FIFO issue.
        while (idxReadDone_[s] < idxReadCur_[s] &&
               srf_->idxCanIssue(lane_, slot)) {
            if (!srf_->idxIssueRead(lane_, slot,
                                    tr.idxReads[s][idxReadDone_[s]]))
                break;
            idxReadDone_[s]++;
            uint32_t k = static_cast<uint32_t>(dataNeeds_[s].size());
            uint32_t off = inv_->idxReadOffsets[s].empty()
                ? inv_->sched.separation
                : inv_->idxReadOffsets[s][k %
                      inv_->idxReadOffsets[s].size()];
            dataNeeds_[s].push_back(now + off);
            needMask_ |= uint64_t{1} << s;
        }
        // Indexed writes.
        while (idxWriteDone_[s] < idxWriteCur_[s] &&
               srf_->idxCanIssue(lane_, slot)) {
            const IdxWriteTraceEntry &e =
                tr.idxWrites[s][idxWriteDone_[s]];
            if (!srf_->idxIssueWrite(lane_, slot, e.recordIndex, e.data))
                break;
            idxWriteDone_[s]++;
        }
        if (pendingIn_[s] == 0 && !stagedRange(s))
            pendingMask_ &= ~(uint64_t{1} << s);
    }
}

void
Cluster::issueIteration(Cycle now)
{
    // Only called with pendingMask_ == 0: every range is empty, so the
    // slots with work after staging are exactly the ones staged here.
    const LaneTrace &tr = inv_->laneTraces[lane_];
    size_t nSlots = inv_->slots.size();
    for (size_t s = 0; s < nSlots; s++) {
        pendingIn_[s] += inv_->seqReadsPerIter[s];
        seqWriteCur_[s] = std::min<size_t>(
            seqWriteCur_[s] + inv_->seqWritesPerIter[s],
            tr.seqWrites[s].size());
        idxReadCur_[s] = std::min<size_t>(
            idxReadCur_[s] + inv_->idxReadsPerIter[s],
            tr.idxReads[s].size());
        idxWriteCur_[s] = std::min<size_t>(
            idxWriteCur_[s] + inv_->idxWritesPerIter[s],
            tr.idxWrites[s].size());
        if (pendingIn_[s] > 0 || stagedRange(s))
            pendingMask_ |= uint64_t{1} << s;
    }
    pendingCommSends_ += inv_->commSendsPerIter;
    itersIssued_++;
    lastIssue_ = now;
    nextIssue_ = now + inv_->sched.ii;
    drainPending(now);
}

void
Cluster::tick(Cycle now)
{
    if (!inv_) {
        cycles_.idle++;
        lastCat_ = CycleCat::Idle;
        return;
    }
    // Kernel dispatch overhead (microcode load, stream descriptor setup).
    if (now < bindCycle_ + inv_->startOverhead) {
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
        return;
    }
    // Drain pending statically scheduled communications.
    if (pendingCommSends_ > 0 && dataNet_) {
        if (dataNet_->claimSource(lane_))
            pendingCommSends_--;
    }
    drainPending(now);
    if (!consumeDueData(now)) {
        cycles_.srfStall++;
        lastCat_ = CycleCat::SrfStall;
        return;
    }
    uint64_t total = inv_->laneTraces[lane_].iterations;
    if (itersIssued_ >= total) {
        if (!doneReported_) {
            doneReported_ = true;
            if (trc_->on())
                trc_->instant(traceCh_, "lane_done", now,
                                           lane_);
        }
        // Pipe drain / waiting for other lanes: kernel overhead
        // (software-pipeline drain + load imbalance).
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
        return;
    }
    bool steady = itersIssued_ + 1 >= inv_->sched.stages() &&
        total >= inv_->sched.stages();
    if (now < nextIssue_) {
        if (steady) {
            cycles_.loopBody++;
            lastCat_ = CycleCat::Loop;
        } else {
            cycles_.overhead++;
            lastCat_ = CycleCat::Overhead;
        }
        return;
    }
    // All of the previous iteration's stream work must have drained:
    // a VLIW schedule cannot roll to the next iteration while its
    // buffer accesses are still backed up.
    if (pendingMask_ != 0) {
        cycles_.srfStall++;
        lastCat_ = CycleCat::SrfStall;
        return;
    }
    issueIteration(now);
    if (steady) {
        cycles_.loopBody++;
        lastCat_ = CycleCat::Loop;
    } else {
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
    }
}

} // namespace isrf
