/**
 * @file
 * Tests for the compute-cluster model: invocation metadata, iteration
 * pacing against the schedule, spill-over of wide per-iteration stream
 * work, indexed-data stalls, load imbalance and cycle categorization.
 */
#include <gtest/gtest.h>

#include <utility>

#include "test_helpers.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind = MachineKind::ISRF4)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 16;
    return cfg;
}

TEST(KernelInvocation, FinalizeDerivesPerSlotCounts)
{
    KernelGraph g = test::makeLookupKernel();
    KernelInvocation inv;
    inv.graph = &g;
    ModuloScheduler sched;
    inv.sched = sched.schedule(g, 6);
    inv.slots = {0, 1, 2};
    inv.laneTraces.assign(8, LaneTrace());
    inv.finalize();
    ASSERT_EQ(inv.seqReadsPerIter.size(), 3u);
    EXPECT_EQ(inv.seqReadsPerIter[0], 1u);
    EXPECT_EQ(inv.idxReadsPerIter[1], 1u);
    EXPECT_EQ(inv.seqWritesPerIter[2], 1u);
    EXPECT_EQ(inv.commSendsPerIter, 0u);
    ASSERT_EQ(inv.idxReadOffsets[1].size(), 1u);
    // The data read is scheduled at least `separation` after issue.
    EXPECT_GE(inv.idxReadOffsets[1][0], 6u);
}

TEST(KernelInvocation, FinalizeChecksBindingArity)
{
    KernelGraph g = test::makeCopyKernel();
    KernelInvocation inv;
    inv.graph = &g;
    inv.slots = {0};  // needs 2
    inv.laneTraces.assign(8, LaneTrace());
    EXPECT_DEATH(inv.finalize(), "slot bindings");
}

TEST(Cluster, IterationPacingFollowsII)
{
    // A compute-only kernel (no stream stalls possible) must retire one
    // iteration exactly every II cycles after the pipeline fills.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    sc.base = 0;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("paced");
    auto o = b.seqOut("o");
    auto x = b.fmul(b.constFloat(2), b.constFloat(3));
    for (int i = 0; i < 7; i++)
        x = b.fadd(x, x);  // 8 ALU ops -> II = 2
    b.write(o, x);
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const uint64_t iters = 100;
    for (auto &t : inv->laneTraces) {
        t.iterations = iters;
        t.seqWrites.resize(1);
        t.seqWrites[0].assign(iters, 1);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    uint32_t ii = inv->sched.ii;
    EXPECT_EQ(ii, 2u);
    m.launchKernel(inv);
    uint64_t cycles = m.runUntil([&]() { return !m.kernelActive(); },
                                 100000).cycles;
    // startOverhead + fill + iters*II + drain + flush, with slack.
    uint64_t lower = m.config().kernelStartOverhead + iters * ii;
    EXPECT_GE(cycles, lower);
    EXPECT_LE(cycles, lower + inv->sched.length + 64);
}

TEST(Cluster, WidePerIterationWritesSpillAcrossCycles)
{
    // 16 writes/iteration against an 8-word buffer must work (spill
    // over), not deadlock — the Rijndael base kernel shape.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("wide");
    auto o = b.seqOut("o");
    for (int i = 0; i < 16; i++)
        b.write(o, b.constInt(i));
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (auto &t : inv->laneTraces) {
        t.iterations = 16;
        t.seqWrites.resize(1);
        for (uint32_t i = 0; i < 16 * 16; i++)
            t.seqWrites[0].push_back(i);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    // All 256 words per lane landed in order.
    EXPECT_EQ(m.srf().wordsWritten(out), 16u * 16 * m.lanes());
    EXPECT_EQ(m.srf().readWord(0, 0), 0u);
    EXPECT_EQ(m.srf().readWord(0, 9), 9u);
}

TEST(Cluster, LoadImbalanceCountedAsOverhead)
{
    // Lane 0 runs 400 iterations, everyone else 4: the idle lanes must
    // accumulate overhead (load imbalance), not loop time.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    SlotId out = m.srf().openSlot(sc);
    KernelGraph g = test::makeCopyKernel();
    SlotConfig ic;
    ic.lengthWords = 4096;
    ic.base = 2048;
    SlotId in = m.srf().openSlot(ic);

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (uint32_t l = 0; l < m.lanes(); l++) {
        auto &t = inv->laneTraces[l];
        t.iterations = l == 0 ? 400 : 4;
        t.seqWrites.resize(2);
        t.seqWrites[1].assign(t.iterations, 7);
        t.idxReads.resize(2);
        t.idxWrites.resize(2);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    const TimeBreakdown &bd = m.breakdown();
    // 7 lanes idle for ~396 iterations' worth of cycles.
    EXPECT_GT(bd.overhead, bd.loopBody);
}

TEST(Cluster, IndexedDataLatencyStallsWhenSeparationTooShort)
{
    // With a 1-cycle scheduled separation the data cannot be back in
    // time (in-lane latency is 4), so the lane must take SRF stalls.
    Machine m;
    MachineConfig cfg = smallConfig(MachineKind::ISRF4);
    cfg.inLaneSeparation = 1;
    m.init(cfg);

    SlotConfig tc;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = 256;
    tc.indexed = true;
    SlotId tbl = m.srf().openSlot(tc);
    SlotConfig oc;
    oc.lengthWords = 4096;
    oc.base = 256;
    SlotId out = m.srf().openSlot(oc);

    KernelBuilder b("shortsep");
    auto lut = b.idxlIn("lut");
    auto o = b.seqOut("o");
    auto v = b.readIdx(lut, b.iterIdx());
    b.write(o, v);
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {tbl, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    Rng rng(5);
    for (auto &t : inv->laneTraces) {
        t.iterations = 64;
        t.seqWrites.resize(2);
        t.idxReads.resize(2);
        t.idxWrites.resize(2);
        for (int i = 0; i < 64; i++) {
            t.seqWrites[1].push_back(1);
            t.idxReads[0].push_back(
                static_cast<uint32_t>(rng.below(256)));
        }
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    EXPECT_GT(m.breakdown().srfStall, 0u);
}

TEST(Cluster, CommSendsOccupyDataNetwork)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 2048;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("commy");
    auto o = b.seqOut("o");
    auto v = b.constInt(1);
    auto s0 = b.commSend(v, v);
    auto r = b.commRecv();
    b.orderEdge(s0, r, 2, 0);
    b.write(o, b.iadd(r, v));
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (auto &t : inv->laneTraces) {
        t.iterations = 32;
        t.seqWrites.resize(1);
        t.seqWrites[0].assign(32, 3);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    EXPECT_EQ(inv->commSendsPerIter, 1u);
    uint64_t before = m.dataNet().transfers();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    (void)before;
    SUCCEED();  // completing without deadlock exercises the comm path
}

TEST(Cluster, DoneRequiresPipelineDrain)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 1024;
    SlotId out = m.srf().openSlot(sc);
    KernelGraph g = test::makeCopyKernel();
    SlotConfig ic;
    ic.lengthWords = 1024;
    ic.base = 1024;
    SlotId in = m.srf().openSlot(ic);
    std::vector<Word> data(1024, 9);
    m.srf().fillSlot(in, data);
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    uint32_t len = inv->sched.length;
    EXPECT_GT(len, inv->sched.ii);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    SUCCEED();
}

// ----------------------------------------------------------------------
// Spilled indexed work: more accesses per iteration than FIFO entries
// ----------------------------------------------------------------------

constexpr uint32_t kSpillTableWords = 64;
constexpr uint32_t kSpillIters = 32;
constexpr uint32_t kSpillWritesPerIter = 4;

/** ISRF4 with one-entry address FIFOs. */
MachineConfig
spillConfig()
{
    MachineConfig cfg = smallConfig(MachineKind::ISRF4);
    cfg.srf.addrFifoSize = 1;
    return cfg;
}

/** t[i + j] = lut[i] + j for j < 4: one indexed read, four writes. */
KernelGraph
spillKernel()
{
    KernelBuilder b("spill");
    auto lut = b.idxlIn("lut");
    auto t = b.idxlOut("t");
    auto v = b.readIdx(lut, b.iterIdx());
    for (uint32_t j = 0; j < kSpillWritesPerIter; j++)
        b.writeIdx(t, b.iadd(b.iterIdx(), b.constInt(j)),
                   b.iadd(v, b.constInt(j)));
    return b.build();
}

/** Open the kernel's two per-lane tables: {lut, t}. */
std::pair<SlotId, SlotId>
openSpillSlots(Machine &m)
{
    SlotConfig lc;
    lc.layout = StreamLayout::PerLane;
    lc.lengthWords = kSpillTableWords;
    lc.indexed = true;
    SlotId lut = m.srf().openSlot(lc);
    SlotConfig tc = lc;
    tc.base = kSpillTableWords;
    SlotId t = m.srf().openSlot(tc);
    return {lut, t};
}

/**
 * Every lane writes each record of t twice, with different data, so
 * the final table shows whether the writes landed in trace order.
 */
std::shared_ptr<KernelInvocation>
spillInvocation(Machine &m, const KernelGraph &g, SlotId lut, SlotId t)
{
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {lut, t};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (uint32_t l = 0; l < m.lanes(); l++) {
        LaneTrace &tr = inv->laneTraces[l];
        tr.iterations = kSpillIters;
        tr.idxReads.resize(2);
        tr.idxWrites.resize(2);
        for (uint32_t i = 0; i < kSpillIters; i++) {
            tr.idxReads[0].push_back(i % kSpillTableWords);
            for (uint32_t j = 0; j < kSpillWritesPerIter; j++) {
                uint32_t n = i * kSpillWritesPerIter + j;
                IdxWriteTraceEntry e;
                e.recordIndex = n % kSpillTableWords;
                e.data[0] = (l << 16) | (n + 1);
                tr.idxWrites[1].push_back(e);
            }
        }
    }
    inv->finalize();
    return inv;
}

/** Lane `l`'s table t after applying its writes in trace order. */
std::vector<Word>
expectedSpillTable(const KernelInvocation &inv, uint32_t l)
{
    std::vector<Word> table(kSpillTableWords, 0);
    for (const IdxWriteTraceEntry &e : inv.laneTraces[l].idxWrites[1])
        table[e.recordIndex] = e.data[0];
    return table;
}

/** Every lane's table t as stored in the SRF. */
std::vector<std::vector<Word>>
storedSpillTables(Machine &m)
{
    std::vector<std::vector<Word>> tables(m.lanes());
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t r = 0; r < kSpillTableWords; r++)
            tables[l].push_back(m.srf().readWord(l, kSpillTableWords + r));
    return tables;
}

TEST(Cluster, SpilledIndexedWritesLandInTraceOrder)
{
    Machine m;
    m.init(spillConfig());
    auto [lut, t] = openSpillSlots(m);
    KernelGraph g = spillKernel();
    auto inv = spillInvocation(m, g, lut, t);
    ASSERT_GT(inv->idxWritesPerIter[1], m.config().srf.addrFifoSize);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    ASSERT_FALSE(m.kernelActive());
    std::vector<std::vector<Word>> stored = storedSpillTables(m);
    for (uint32_t l = 0; l < m.lanes(); l++)
        EXPECT_EQ(stored[l], expectedSpillTable(*inv, l)) << "lane " << l;
}

} // namespace
} // namespace isrf
