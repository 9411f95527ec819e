/**
 * @file
 * Shared helpers for machine-level tests: small kernels and invocation
 * builders.
 */
#ifndef ISRF_TESTS_TEST_HELPERS_H
#define ISRF_TESTS_TEST_HELPERS_H

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "kernel/builder.h"
#include "util/snapshot.h"

namespace isrf {
namespace test {

/** copy: out[i] = in[i] * 1 (one ALU op to keep the loop non-trivial). */
inline KernelGraph
makeCopyKernel()
{
    KernelBuilder b("copy");
    auto in = b.seqIn("in");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    b.write(out, b.iadd(x, b.constInt(0)));
    return b.build();
}

/** lookup: out[i] = table[in[i] & mask] (in-lane indexed). */
inline KernelGraph
makeLookupKernel()
{
    KernelBuilder b("lookup");
    auto in = b.seqIn("in");
    auto lut = b.idxlIn("lut");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    auto v = b.readIdx(lut, x);
    b.write(out, v);
    return b.build();
}

/**
 * Build a copy-kernel invocation: input slot striped data is echoed to
 * the output slot. The functional trace (per-lane output words) is the
 * lane's share of the input.
 */
inline std::shared_ptr<KernelInvocation>
makeCopyInvocation(Machine &m, const KernelGraph *graph, SlotId in,
                   SlotId out, const std::vector<Word> &inputData)
{
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = graph;
    inv->sched = m.scheduleKernel(*graph);
    inv->slots = {in, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &g = m.config().srf;
    for (size_t e = 0; e < inputData.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / g.seqWidth) % g.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.seqWrites.resize(2);
        t.seqWrites[1].push_back(inputData[e]);
    }
    for (auto &t : inv->laneTraces)
        t.seqWrites.resize(2);
    inv->finalize();
    return inv;
}

/**
 * One lane's Cluster::saveState() record (snapshot format version 2),
 * decoded so tests can inspect its staged work and tamper with it.
 * The per-slot vectors are indexed by kernel slot.
 */
struct LaneSnapshot
{
    std::string head;  ///< bound flag through pendingCommSends, raw
    std::vector<std::vector<uint64_t>> dataNeeds;
    std::vector<uint64_t> seqWriteCur, idxReadCur, idxWriteCur;
    std::vector<std::vector<uint32_t>> stagedSeqWrites;
    std::vector<uint32_t> pendingIn;
    std::vector<std::vector<uint32_t>> stagedIdxReads;
    /** Each entry: record index, then the four data words. */
    std::vector<std::vector<std::array<uint32_t, 5>>> stagedIdxWrites;
    std::string tail;  ///< cycle counters, last category, done flag

    static constexpr size_t kHeadBytes = 1 + 4 * 8 + 4;
    static constexpr size_t kTailBytes = 4 * 8 + 1 + 1;

    /** Decode one lane record from `r`; false if it is malformed. */
    bool
    parse(SnapshotReader &r)
    {
        head.resize(kHeadBytes);
        for (char &c : head) {
            uint8_t b = 0;
            if (!r.u8(b))
                return false;
            c = static_cast<char>(b);
        }
        uint64_t nslots = 0;
        if (!r.len(nslots, 1))
            return false;
        dataNeeds.assign(nslots, {});
        for (auto &q : dataNeeds) {
            uint64_t n = 0;
            if (!r.len(n, 8))
                return false;
            q.resize(n);
            for (uint64_t &c : q)
                if (!r.u64(c))
                    return false;
        }
        for (auto *cur : {&seqWriteCur, &idxReadCur, &idxWriteCur}) {
            cur->resize(nslots);
            for (uint64_t &v : *cur)
                if (!r.u64(v))
                    return false;
        }
        if (!readWords(r, stagedSeqWrites, nslots))
            return false;
        pendingIn.resize(nslots);
        for (uint32_t &v : pendingIn)
            if (!r.u32(v))
                return false;
        if (!readWords(r, stagedIdxReads, nslots))
            return false;
        stagedIdxWrites.assign(nslots, {});
        for (auto &q : stagedIdxWrites) {
            uint64_t n = 0;
            if (!r.len(n, 20))
                return false;
            q.resize(n);
            for (auto &e : q)
                for (uint32_t &w : e)
                    if (!r.u32(w))
                        return false;
        }
        tail.resize(kTailBytes);
        for (char &c : tail) {
            uint8_t b = 0;
            if (!r.u8(b))
                return false;
            c = static_cast<char>(b);
        }
        return true;
    }

    void
    write(SnapshotWriter &w) const
    {
        w.bytes(head.data(), head.size());
        w.u64(dataNeeds.size());
        for (const auto &q : dataNeeds) {
            w.u64(q.size());
            for (uint64_t c : q)
                w.u64(c);
        }
        for (const auto *cur : {&seqWriteCur, &idxReadCur, &idxWriteCur})
            for (uint64_t v : *cur)
                w.u64(v);
        writeWords(w, stagedSeqWrites);
        for (uint32_t v : pendingIn)
            w.u32(v);
        writeWords(w, stagedIdxReads);
        for (const auto &q : stagedIdxWrites) {
            w.u64(q.size());
            for (const auto &e : q)
                for (uint32_t x : e)
                    w.u32(x);
        }
        w.bytes(tail.data(), tail.size());
    }

    /** Staged trace entries over all slots and traces. */
    size_t
    stagedEntries() const
    {
        size_t n = 0;
        for (size_t s = 0; s < dataNeeds.size(); s++)
            n += stagedSeqWrites[s].size() + stagedIdxReads[s].size() +
                stagedIdxWrites[s].size();
        return n;
    }

  private:
    static bool
    readWords(SnapshotReader &r, std::vector<std::vector<uint32_t>> &qs,
              uint64_t nslots)
    {
        qs.assign(nslots, {});
        for (auto &q : qs) {
            uint64_t n = 0;
            if (!r.len(n, 4))
                return false;
            q.resize(n);
            for (uint32_t &x : q)
                if (!r.u32(x))
                    return false;
        }
        return true;
    }

    static void
    writeWords(SnapshotWriter &w,
               const std::vector<std::vector<uint32_t>> &qs)
    {
        for (const auto &q : qs) {
            w.u64(q.size());
            for (uint32_t x : q)
                w.u32(x);
        }
    }
};

/** Decode lane `lane`'s saveState() record of a live machine. */
inline LaneSnapshot
laneSnapshot(const Machine &m, uint32_t lane)
{
    SnapshotWriter w;
    m.cluster(lane).saveState(w);
    SnapshotReader r(w.data());
    LaneSnapshot ls;
    if (!ls.parse(r) || !r.atEnd())
        ADD_FAILURE() << "lane " << lane << ": undecodable cluster state";
    return ls;
}

} // namespace test
} // namespace isrf

#endif // ISRF_TESTS_TEST_HELPERS_H
