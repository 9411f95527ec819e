/**
 * @file
 * Tests for the memory system: DRAM functional storage + bandwidth
 * model, the vector cache, and stream load/store/gather/scatter through
 * the MemorySystem into the SRF.
 */
#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "util/random.h"

namespace isrf {

/** Brute-force oracle for MemorySystem::done(): scan queue and units. */
struct MemorySystemTestPeer
{
    static bool
    doneByScan(const MemorySystem &m, MemOpId id)
    {
        if (id <= 0 || id >= m.nextId_)
            return false;
        for (size_t u = 0; u < m.units_.size(); u++)
            if (m.units_[u].busy() && m.unitOpId_[u] == id)
                return false;
        for (const auto &p : m.queue_)
            if (p.id == id)
                return false;
        return true;
    }
};

namespace {

TEST(Dram, FunctionalRoundtrip)
{
    DramConfig cfg;
    cfg.capacityWords = 1024;
    Dram d(cfg);
    d.write(100, 0xabcd);
    EXPECT_EQ(d.read(100), 0xabcdu);
    d.fill(10, {1, 2, 3});
    EXPECT_EQ(d.dump(10, 3), (std::vector<Word>{1, 2, 3}));
    EXPECT_DEATH(d.read(2000), "out of range");
    // Ranges whose end wraps past 2^64 must not pass the bounds check.
    EXPECT_DEATH(d.fill(UINT64_MAX, {1}), "out of bounds");
    EXPECT_DEATH(d.fill(1000, std::vector<Word>(100)), "out of bounds");
    EXPECT_DEATH(d.dump(UINT64_MAX, 2), "out of bounds");
    EXPECT_DEATH(d.dump(2, UINT64_MAX), "out of bounds");
    EXPECT_EQ(d.dump(1020, 4).size(), 4u);
    EXPECT_TRUE(d.dump(1024, 0).empty());
}

TEST(Dram, UntouchedWordsReadZero)
{
    Dram d(DramConfig{});  // the Table 3 machine's 16M words
    const uint64_t last = d.capacityWords() - 1;
    d.write(12345, 7);
    for (uint64_t a : {uint64_t{0}, uint64_t{12344}, uint64_t{12346},
                       d.capacityWords() / 2, last})
        EXPECT_EQ(d.read(a), 0u) << "address " << a;
    EXPECT_EQ(d.dump(last - 1023, 1024), std::vector<Word>(1024, 0));
}

TEST(Dram, ReinitReturnsZeroedWords)
{
    // A re-init must hand back fresh zero pages, never the old ones,
    // for small arrays and for large ones.
    for (uint64_t words : {uint64_t{1024}, uint64_t{1} << 22}) {
        SCOPED_TRACE(words);
        DramConfig cfg;
        cfg.capacityWords = words;
        Dram d(cfg);
        d.write(0, 0xdead);
        d.write(words - 1, 0xbeef);
        d.fill(words / 2, std::vector<Word>(256, 0x5a5a));
        d.init(cfg);
        EXPECT_EQ(d.read(0), 0u);
        EXPECT_EQ(d.read(words - 1), 0u);
        EXPECT_EQ(d.dump(words / 2, 256), std::vector<Word>(256, 0));
    }
}

TEST(Dram, BandwidthTokenBucket)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 2.0;
    cfg.burstTokens = 4.0;
    Dram d(cfg);
    uint64_t total = 0;
    for (int i = 0; i < 100; i++) {
        d.tick();
        total += d.requestWords(100, true);
    }
    // ~2 words per cycle sustained (+ initial burst).
    EXPECT_GE(total, 195u);
    EXPECT_LE(total, 205u);
    EXPECT_EQ(d.wordsTransferred(), total);
}

TEST(Dram, RandomAccessCostsMore)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 2.0;
    cfg.randomCostFactor = 2.0;
    Dram d(cfg);
    uint64_t total = 0;
    for (int i = 0; i < 100; i++) {
        d.tick();
        total += d.requestWords(100, false);
    }
    EXPECT_GE(total, 95u);
    EXPECT_LE(total, 105u);
    EXPECT_EQ(d.randomWords(), total);
    EXPECT_EQ(d.seqWords(), 0u);
}

TEST(Dram, TryConsumeExactAllOrNothing)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 1.0;
    cfg.burstTokens = 2.0;
    Dram d(cfg);
    d.tick();  // 1 token
    EXPECT_FALSE(d.tryConsumeExact(2, true));
    d.tick();  // 2 tokens
    EXPECT_TRUE(d.tryConsumeExact(2, true));
    EXPECT_EQ(d.wordsTransferred(), 2u);
}

TEST(Cache, HitAfterMiss)
{
    Cache c;
    EXPECT_FALSE(c.probe(42));
    auto r1 = c.access(42, false);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(c.probe(42));
    auto r2 = c.access(42, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    CacheConfig cfg;
    cfg.capacityWords = 16;  // 8 lines, 2 sets x 4 ways (line=2 words)
    Cache c(cfg);
    uint32_t sets = c.numSets();
    ASSERT_EQ(sets, 2u);
    // Fill set 0 with 4 lines, then touch the first to refresh LRU.
    for (uint64_t i = 0; i < 4; i++)
        c.access(i * sets, false);
    c.access(0, false);  // line 0 most recent
    // Allocate a 5th line in set 0: evicts line addressed sets*1 (LRU).
    c.access(4 * sets, false);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(1 * sets));
    EXPECT_TRUE(c.probe(2 * sets));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    CacheConfig cfg;
    cfg.capacityWords = 16;
    Cache c(cfg);
    uint32_t sets = c.numSets();
    c.access(0, true);  // dirty
    for (uint64_t i = 1; i < 4; i++)
        c.access(i * sets, false);
    auto r = c.access(4 * sets, false);  // evicts dirty line 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.evictedLineAddr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache c;
    c.access(7, false);
    c.flush();
    EXPECT_FALSE(c.probe(7));
}

/** Fixture wiring MemorySystem + Srf for end-to-end transfers. */
class MemSysTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        geom_ = SrfGeometry{};
        srf_.init(geom_, SrfMode::SequentialOnly, nullptr);
        MemSystemConfig mc;
        DramConfig dc;
        dc.capacityWords = 1 << 16;
        dc.accessLatency = 4;
        CacheConfig cc;
        mem_.init(mc, dc, cc, &srf_);
    }

    void
    runCycles(uint32_t n)
    {
        for (uint32_t i = 0; i < n; i++) {
            srf_.beginCycle(now_);
            mem_.tick(now_);
            srf_.endCycle(now_);
            now_++;
        }
    }

    SlotId
    openStriped(uint32_t words, uint32_t base)
    {
        SlotConfig cfg;
        cfg.layout = StreamLayout::Striped;
        cfg.base = base;
        cfg.lengthWords = words;
        return srf_.openSlot(cfg);
    }

    SrfGeometry geom_;
    Srf srf_;
    MemorySystem mem_;
    Cycle now_ = 0;
};

TEST_F(MemSysTest, LoadMovesDataIntoSrf)
{
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i ^ 0x55);
    mem_.dram().fill(1000, data);
    SlotId slot = openStriped(256, 0);

    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = 1000;
    op.srfSlot = slot;
    MemOpId id = mem_.submit(op);
    EXPECT_FALSE(mem_.done(id));
    runCycles(400);
    EXPECT_TRUE(mem_.done(id));
    EXPECT_TRUE(mem_.idle());
    EXPECT_EQ(srf_.dumpSlot(slot), data);
    EXPECT_EQ(mem_.dram().wordsTransferred(), 256u);
}

TEST_F(MemSysTest, StoreMovesDataToDram)
{
    SlotId slot = openStriped(128, 0);
    std::vector<Word> data(128);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 7);
    srf_.fillSlot(slot, data);

    MemOp op;
    op.kind = MemOpKind::Store;
    op.memBase = 5000;
    op.srfSlot = slot;
    MemOpId id = mem_.submit(op);
    runCycles(300);
    EXPECT_TRUE(mem_.done(id));
    EXPECT_EQ(mem_.dram().dump(5000, 128), data);
}

TEST_F(MemSysTest, GatherCollectsIndexedRecords)
{
    std::vector<Word> table(8192);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i + 9000);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(8, 0);

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {5, 100, 3, 8191, 0, 7, 7, 5200};
    MemOpId id = mem_.submit(op);
    runCycles(300);
    ASSERT_TRUE(mem_.done(id));
    auto out = srf_.dumpSlot(slot);
    EXPECT_EQ(out[0], 9005u);
    EXPECT_EQ(out[1], 9100u);
    EXPECT_EQ(out[3], 9000u + 8191u);
    EXPECT_EQ(out[6], 9007u);
    // A gather spanning a large footprint pays the random-access cost.
    EXPECT_EQ(mem_.dram().randomWords(), 8u);
}

TEST_F(MemSysTest, SmallFootprintGatherRunsAtStreamCost)
{
    std::vector<Word> table(256, 3);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(8, 0);
    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {1, 2, 3, 4, 250, 6, 7, 8};
    mem_.submit(op);
    runCycles(300);
    // Table-sized footprints hit open DRAM rows: sequential cost.
    EXPECT_EQ(mem_.dram().randomWords(), 0u);
    EXPECT_EQ(mem_.dram().seqWords(), 8u);
}

TEST_F(MemSysTest, GatherWithDstOffsetAppends)
{
    std::vector<Word> table(8192);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(16, 0);
    srf_.fillSlot(slot, std::vector<Word>(16, 0xeeee));

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {7000, 6000};
    op.dstOffsetWords = 8;
    mem_.submit(op);
    runCycles(300);
    auto out = srf_.dumpSlot(slot);
    EXPECT_EQ(out[0], 0xeeeeu);  // untouched prefix
    EXPECT_EQ(out[8], 7000u);
    EXPECT_EQ(out[9], 6000u);
}

TEST_F(MemSysTest, ScatterWritesIndexedRecords)
{
    SlotId slot = openStriped(4, 0);
    srf_.fillSlot(slot, {11, 22, 33, 44});
    MemOp op;
    op.kind = MemOpKind::Scatter;
    op.memBase = 2000;
    op.srfSlot = slot;
    op.indices = {9, 0, 30, 2};
    MemOpId id = mem_.submit(op);
    runCycles(300);
    ASSERT_TRUE(mem_.done(id));
    EXPECT_EQ(mem_.dram().read(2009), 11u);
    EXPECT_EQ(mem_.dram().read(2000), 22u);
    EXPECT_EQ(mem_.dram().read(2030), 33u);
    EXPECT_EQ(mem_.dram().read(2002), 44u);
}

TEST_F(MemSysTest, TwoUnitsOverlapOps)
{
    SlotId a = openStriped(512, 0);
    SlotId b = openStriped(512, 256);
    MemOp op1;
    op1.kind = MemOpKind::Load;
    op1.memBase = 0;
    op1.srfSlot = a;
    MemOp op2;
    op2.kind = MemOpKind::Load;
    op2.memBase = 4096;
    op2.srfSlot = b;
    mem_.submit(op1);
    mem_.submit(op2);
    runCycles(3);
    EXPECT_EQ(mem_.inFlight(), 2u);
    runCycles(800);
    EXPECT_TRUE(mem_.idle());
}

TEST_F(MemSysTest, OpsQueueBeyondUnits)
{
    SlotId s[3];
    for (int i = 0; i < 3; i++)
        s[i] = openStriped(64, static_cast<uint32_t>(i) * 64);
    for (int i = 0; i < 3; i++) {
        MemOp op;
        op.kind = MemOpKind::Load;
        op.memBase = static_cast<uint64_t>(i) * 128;
        op.srfSlot = s[i];
        mem_.submit(op);
    }
    EXPECT_EQ(mem_.inFlight(), 3u);
    runCycles(600);
    EXPECT_TRUE(mem_.idle());
}

/** Cache-enabled memory system. */
class CachedMemTest : public MemSysTest
{
  protected:
    void
    SetUp() override
    {
        geom_ = SrfGeometry{};
        srf_.init(geom_, SrfMode::SequentialOnly, nullptr);
        MemSystemConfig mc;
        mc.cacheEnabled = true;
        DramConfig dc;
        dc.capacityWords = 1 << 16;
        dc.accessLatency = 4;
        CacheConfig cc;
        mem_.init(mc, dc, cc, &srf_);
    }
};

TEST_F(CachedMemTest, RepeatedGatherHitsInCache)
{
    std::vector<Word> table(256);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(64, 0);

    std::vector<uint32_t> idx(64);
    for (size_t i = 0; i < idx.size(); i++)
        idx[i] = static_cast<uint32_t>((i * 13) % 256);

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = idx;
    op.cached = true;
    mem_.submit(op);
    runCycles(400);
    uint64_t traffic1 = mem_.dram().wordsTransferred();

    // Same gather again: lines are resident, so almost no new DRAM
    // traffic.
    mem_.submit(op);
    runCycles(400);
    uint64_t traffic2 = mem_.dram().wordsTransferred() - traffic1;
    EXPECT_GT(traffic1, 60u);
    EXPECT_LT(traffic2, traffic1 / 4);
    EXPECT_GT(mem_.cache().hits(), 50u);
}

TEST_F(CachedMemTest, UncachedOpsBypassCache)
{
    std::vector<Word> data(128, 3);
    mem_.dram().fill(0, data);
    SlotId slot = openStriped(128, 0);
    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = 0;
    op.srfSlot = slot;
    op.cached = false;
    mem_.submit(op);
    runCycles(300);
    EXPECT_EQ(mem_.cache().hits() + mem_.cache().misses(), 0u);
}

TEST_F(MemSysTest, DoneMatchesQueueAndUnitScanUnderRandomTraffic)
{
    // done() answers "still queued" from the FIFO's front id instead of
    // scanning the queue; it must agree with the full scan for every
    // id (never issued, queued, executing, finished) on every cycle.
    constexpr uint32_t kSlotWords = 64;
    constexpr int kSlots = 4;
    Rng rng(0x5eed0d0eull);
    for (uint32_t units = 1; units <= 4; units++) {
        SCOPED_TRACE("units=" + std::to_string(units));
        MemSystemConfig mc;
        mc.units = units;
        DramConfig dc;
        dc.capacityWords = 1 << 16;
        dc.accessLatency = 4;
        mem_.init(mc, dc, CacheConfig{}, &srf_);
        std::vector<SlotId> slots;
        for (int i = 0; i < kSlots; i++)
            slots.push_back(openStriped(kSlotWords,
                static_cast<uint32_t>(i) * kSlotWords));

        MemOpId lastId = 0;
        for (int step = 0; step < 400; step++) {
            uint64_t burst = rng.chance(0.3) ? rng.below(4) : 0;
            for (uint64_t b = 0; b < burst; b++) {
                MemOp op;
                op.kind = static_cast<MemOpKind>(rng.below(4));
                op.srfSlot = slots[rng.below(kSlots)];
                op.memBase = rng.below(1 << 15);
                if (op.kind == MemOpKind::Gather ||
                        op.kind == MemOpKind::Scatter) {
                    op.indices.resize(1 + rng.below(kSlotWords));
                    for (auto &ix : op.indices)
                        ix = static_cast<uint32_t>(rng.below(1 << 14));
                } else {
                    op.lengthWords = 1 + rng.below(kSlotWords);
                }
                lastId = mem_.submit(op);
            }
            runCycles(1 + static_cast<uint32_t>(rng.below(24)));
            for (MemOpId id = -1; id <= lastId + 1; id++)
                ASSERT_EQ(mem_.done(id),
                          MemorySystemTestPeer::doneByScan(mem_, id))
                    << "id " << id << " at cycle " << now_;
        }
        while (!mem_.idle())
            runCycles(1);
        for (MemOpId id = 1; id <= lastId; id++)
            EXPECT_TRUE(mem_.done(id)) << "id " << id;
        EXPECT_EQ(mem_.stats().counterValue("ops_completed"),
                  static_cast<uint64_t>(lastId));
        for (SlotId s : slots)
            srf_.closeSlot(s);
    }
}

} // namespace
} // namespace isrf
