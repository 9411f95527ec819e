/**
 * @file
 * Tests for indexed SRF access: in-lane reads/writes, latency, in-order
 * delivery, sub-array conflicts, ISRF1 vs ISRF4 bandwidth, records,
 * cross-lane access through the index network and data crossbar, and
 * the data words of many random reads checked against their table.
 */
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "net/crossbar.h"
#include "srf/srf.h"
#include "util/log.h"
#include "util/random.h"

namespace isrf {
namespace {

class SrfIdxTest : public ::testing::Test
{
  protected:
    void
    initSrf(SrfMode mode)
    {
        geom_ = SrfGeometry{};
        net_.init(geom_.lanes, 1, 1);
        srf_.init(geom_, mode, &net_);
    }

    void
    cycle(uint32_t n = 1)
    {
        for (uint32_t i = 0; i < n; i++) {
            net_.newCycle();
            srf_.beginCycle(now_);
            srf_.endCycle(now_);
            now_++;
        }
    }

    /** Open a PerLane table slot with lane-dependent contents. */
    SlotId
    openTable(uint32_t words, uint32_t base = 0, uint32_t recordWords = 1)
    {
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.indexed = true;
        cfg.layout = StreamLayout::PerLane;
        cfg.base = base;
        cfg.lengthWords = words;
        cfg.recordWords = recordWords;
        SlotId id = srf_.openSlot(cfg);
        for (uint32_t l = 0; l < geom_.lanes; l++)
            for (uint32_t w = 0; w < words; w++)
                srf_.writeWord(l, base + w, l * 1000 + w);
        return id;
    }

    SrfGeometry geom_;
    Crossbar net_;
    Srf srf_;
    Cycle now_ = 0;
};

TEST_F(SrfIdxTest, InLaneReadReturnsCorrectDataAfterLatency)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    ASSERT_TRUE(srf_.idxCanIssue(3, id));
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(3, id, 17));
    srf_.endCycle(now_);
    Cycle issue = now_;
    now_++;
    // Not ready before the in-lane latency has elapsed.
    while (now_ < issue + geom_.inLaneLatency) {
        EXPECT_FALSE(srf_.idxDataReady(3, id, now_));
        cycle();
    }
    cycle(2);
    ASSERT_TRUE(srf_.idxDataReady(3, id, now_));
    Word out[4];
    EXPECT_EQ(srf_.idxDataPop(3, id, out), 1u);
    EXPECT_EQ(out[0], 3017u);
}

TEST_F(SrfIdxTest, InOrderDeliveryAcrossConflicts)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    // Two requests to the same sub-array (addresses 0 and 1) conflict
    // with each other only within a cycle; in-order pop still holds.
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 1));
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 0));
    srf_.endCycle(now_);
    now_++;
    cycle(10);
    Word out[4];
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 1u);  // first-issued first
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 0u);
}

TEST_F(SrfIdxTest, Isrf4ServesFourDistinctSubArraysPerCycle)
{
    initSrf(SrfMode::Indexed4);
    // Four streams, each issuing to a different sub-array.
    SlotId ids[4];
    for (uint32_t s = 0; s < 4; s++)
        ids[s] = openTable(16, s * 16);
    srf_.beginCycle(now_);
    for (uint32_t s = 0; s < 4; s++)
        ASSERT_TRUE(srf_.idxIssueRead(0, ids[s], s * 4));  // sub-array s
    srf_.endCycle(now_);
    now_++;
    // Addresses become serviceable the cycle after FIFO entry.
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 4u);
}

TEST_F(SrfIdxTest, Isrf1ServesOneWordPerCycle)
{
    initSrf(SrfMode::Indexed1);
    SlotId ids[4];
    for (uint32_t s = 0; s < 4; s++)
        ids[s] = openTable(16, s * 16);
    srf_.beginCycle(now_);
    for (uint32_t s = 0; s < 4; s++)
        ASSERT_TRUE(srf_.idxIssueRead(0, ids[s], s * 4));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 1u);
    cycle(3);
    EXPECT_EQ(srf_.idxInLaneWords(), 4u);
}

TEST_F(SrfIdxTest, SameSubArrayConflictSerializes)
{
    initSrf(SrfMode::Indexed4);
    SlotId a = openTable(16, 0);
    SlotId b = openTable(16, 16);
    srf_.beginCycle(now_);
    // Both target sub-array 0 of lane 0 (addresses 0 and 16+... note
    // slot b's base 16 -> laneAddr 16 -> sub-array 0 again).
    ASSERT_TRUE(srf_.idxIssueRead(0, a, 0));
    ASSERT_TRUE(srf_.idxIssueRead(0, b, 0));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 1u);
    EXPECT_GE(srf_.subArrayConflicts(), 1u);
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 2u);
}

TEST_F(SrfIdxTest, MultiWordRecordsExpandToWordAccesses)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64, 0, 4);
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(2, id, 3));  // words 12..15
    srf_.endCycle(now_);
    now_++;
    cycle(10);
    ASSERT_TRUE(srf_.idxDataReady(2, id, now_));
    Word out[4];
    EXPECT_EQ(srf_.idxDataPop(2, id, out), 4u);
    EXPECT_EQ(out[0], 2012u);
    EXPECT_EQ(out[3], 2015u);
}

TEST_F(SrfIdxTest, IndexedWriteLandsInBank)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.indexed = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.base = 32;
    cfg.lengthWords = 32;
    SlotId id = srf_.openSlot(cfg);
    Word data[1] = {0xdead};
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueWrite(5, id, 7, data));
    EXPECT_FALSE(srf_.idxWritesDrained(id));
    srf_.endCycle(now_);
    now_++;
    cycle(2);
    EXPECT_TRUE(srf_.idxWritesDrained(id));
    EXPECT_EQ(srf_.readWord(5, 39), 0xdeadu);
}

TEST_F(SrfIdxTest, AddressFifoBackpressure)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    // Fill the FIFO without any service cycles.
    uint32_t issued = 0;
    srf_.beginCycle(now_);
    while (srf_.idxIssueRead(0, id, issued % 64))
        issued++;
    // Capacity = addrFifoSize (8); the data buffer is larger.
    EXPECT_EQ(issued, geom_.addrFifoSize);
    EXPECT_FALSE(srf_.idxCanIssue(0, id));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_TRUE(srf_.idxCanIssue(0, id));
}

TEST_F(SrfIdxTest, CrossLaneReadRoutesToOwningBank)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 256;
    SlotId id = srf_.openSlot(cfg);
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i + 7000);
    srf_.fillSlot(id, data);

    // Lane 0 reads global word 100 (lives in lane (100/4)%8 = 1).
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 100));
    srf_.endCycle(now_);
    Cycle issue = now_;
    now_++;
    while (now_ < issue + geom_.crossLaneLatency) {
        EXPECT_FALSE(srf_.idxDataReady(0, id, now_));
        cycle();
    }
    cycle(4);
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    Word out[4];
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 7100u);
    EXPECT_EQ(srf_.idxCrossWords(), 1u);
}

TEST_F(SrfIdxTest, CrossLaneBankPortLimitsThroughput)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 1024;
    SlotId id = srf_.openSlot(cfg);

    // All 8 lanes target bank 0 (word indices 0..3 stripe to lane 0).
    srf_.beginCycle(now_);
    for (uint32_t l = 0; l < 8; l++)
        ASSERT_TRUE(srf_.idxIssueRead(l, id, l % 4));
    srf_.endCycle(now_);
    now_++;
    // With one network port per bank, only ~1 index routes per cycle.
    cycle(1);
    EXPECT_LE(srf_.idxCrossWords(), 2u);
    cycle(20);
    EXPECT_EQ(srf_.idxCrossWords(), 8u);
}

TEST_F(SrfIdxTest, CrossLaneWriteRejected)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.indexed = true;
    cfg.crossLane = true;
    EXPECT_DEATH(srf_.openSlot(cfg), "cross-lane indexed write");
}

TEST_F(SrfIdxTest, SequentialAndIndexedShareThePort)
{
    initSrf(SrfMode::Indexed4);
    SlotId tbl = openTable(64, 0);

    SlotConfig scfg;
    scfg.dir = StreamDir::In;
    scfg.layout = StreamLayout::Striped;
    scfg.base = 64;
    scfg.lengthWords = 2048;
    SlotId seq = srf_.openSlot(scfg);

    // Keep both sides demanding for 40 cycles.
    uint64_t seqGrants0 = srf_.stats().counterValue("seq_grant_cycles");
    for (int i = 0; i < 40; i++) {
        srf_.beginCycle(now_);
        for (uint32_t l = 0; l < 8; l++) {
            if (srf_.idxCanIssue(l, tbl))
                srf_.idxIssueRead(l, tbl, static_cast<uint32_t>(i) % 64);
            while (srf_.seqCanRead(l, seq))
                srf_.seqRead(l, seq);
        }
        srf_.endCycle(now_);
        now_++;
    }
    uint64_t seqGrants =
        srf_.stats().counterValue("seq_grant_cycles") - seqGrants0;
    uint64_t idxGrants = srf_.stats().counterValue("idx_grant_cycles");
    // Round-robin between one sequential claimant and the indexed
    // bundle: roughly half the cycles each.
    EXPECT_GE(seqGrants, 15u);
    EXPECT_GE(idxGrants, 15u);
}

// Kernels on a Machine replay precomputed lane traces and drop the
// words their indexed reads return, so this test is what checks that
// the SRF fetches the right word for every in-lane and cross-lane read.
TEST(SrfIdxData, RandomReadsReturnTheirTableWords)
{
    struct Point
    {
        SrfMode mode;
        uint32_t lanes;
        uint32_t seqWidth;
        uint32_t recordWords;
    };
    const Point points[] = {
        {SrfMode::Indexed1, 8, 4, 1}, {SrfMode::Indexed4, 8, 4, 1},
        {SrfMode::Indexed1, 4, 2, 2}, {SrfMode::Indexed4, 4, 2, 1},
        {SrfMode::Indexed4, 16, 8, 2},
    };
    constexpr uint32_t kLocalWords = 64;  // per lane, both tables
    constexpr uint32_t kReads = 40;       // per lane per table

    for (const Point &p : points) {
        const std::string where = strprintf(
            "%s lanes=%u seqWidth=%u recordWords=%u",
            p.mode == SrfMode::Indexed1 ? "ISRF1" : "ISRF4", p.lanes,
            p.seqWidth, p.recordWords);
        SrfGeometry g;
        g.lanes = p.lanes;
        g.seqWidth = p.seqWidth;
        g.laneWords = 1024;
        Crossbar net;
        net.init(g.lanes, 1, 1);
        Srf srf;
        srf.init(g, p.mode, &net);

        // Slot 0: a cross-lane table striped across every lane. Slot 1:
        // an in-lane table, each lane's own kLocalWords words.
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.indexed = true;
        cfg.recordWords = p.recordWords;
        cfg.crossLane = true;
        cfg.layout = StreamLayout::Striped;
        cfg.base = 0;
        cfg.lengthWords = p.lanes * kLocalWords;
        SlotId slots[2];
        slots[0] = srf.openSlot(cfg);
        cfg.crossLane = false;
        cfg.layout = StreamLayout::PerLane;
        cfg.base = kLocalWords;
        cfg.lengthWords = kLocalWords;
        slots[1] = srf.openSlot(cfg);

        // Distinct words, so a read of any neighbour is a mismatch.
        // PerLane fill order is lane 0's words, then lane 1's, ...
        std::vector<Word> tables[2];
        for (int t = 0; t < 2; t++) {
            tables[t].resize(p.lanes * kLocalWords);
            for (size_t i = 0; i < tables[t].size(); i++)
                tables[t][i] = static_cast<Word>(((t + 1) << 24) + i);
            srf.fillSlot(slots[t], tables[t]);
        }
        const uint32_t records[2] = {
            p.lanes * kLocalWords / p.recordWords,
            kLocalWords / p.recordWords};

        Rng rng(0x1dc0de + p.lanes * 31 + p.seqWidth);
        std::vector<std::deque<std::vector<Word>>> want(2 * p.lanes);
        std::vector<uint32_t> left(2 * p.lanes, kReads);
        const uint64_t total = 2ull * p.lanes * kReads;
        uint64_t popped = 0, mismatches = 0;
        std::string firstMismatch;
        Cycle now = 0;
        for (; popped < total && now < 100000; now++) {
            net.newCycle();
            srf.beginCycle(now);
            for (uint32_t l = 0; l < p.lanes; l++) {
                for (int t = 0; t < 2; t++) {
                    auto &q = want[2 * l + t];
                    while (srf.idxDataReady(l, slots[t], now)) {
                        ASSERT_FALSE(q.empty()) << where;
                        Word out[4];
                        ASSERT_EQ(srf.idxDataPop(l, slots[t], out),
                                  p.recordWords) << where;
                        for (uint32_t k = 0; k < p.recordWords; k++) {
                            if (out[k] == q.front()[k])
                                continue;
                            if (mismatches++ == 0)
                                firstMismatch = strprintf(
                                    "lane %u %s word %u: got %#x, "
                                    "want %#x", l,
                                    t == 0 ? "cross-lane" : "in-lane",
                                    k, out[k], q.front()[k]);
                        }
                        q.pop_front();
                        popped++;
                    }
                    // Up to two new reads per table per cycle.
                    uint32_t &n = left[2 * l + t];
                    for (int i = 0; i < 2 && n > 0 &&
                             srf.idxCanIssue(l, slots[t]); i++) {
                        n--;
                        uint32_t rec =
                            static_cast<uint32_t>(rng.below(records[t]));
                        ASSERT_TRUE(srf.idxIssueRead(l, slots[t], rec));
                        uint32_t w0 = rec * p.recordWords +
                            (t == 0 ? 0 : l * kLocalWords);
                        q.emplace_back(
                            tables[t].begin() + w0,
                            tables[t].begin() + w0 + p.recordWords);
                    }
                }
            }
            srf.endCycle(now);
        }
        ASSERT_EQ(popped, total) << where << ": reads never returned";
        EXPECT_EQ(mismatches, 0u) << where << ", first: " << firstMismatch;
        EXPECT_EQ(srf.idxCrossWords(), p.lanes * kReads * p.recordWords)
            << where;
        EXPECT_EQ(srf.idxInLaneWords(), p.lanes * kReads * p.recordWords)
            << where;
    }
}

} // namespace
} // namespace isrf
