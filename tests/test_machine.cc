/**
 * @file
 * Machine-level tests: configuration factories, kernel launch/finish
 * lifecycle, functional output correctness, execution-time breakdown
 * accounting, Figure 13 bandwidth records, re-initialization, config
 * validation, and a seeded MachineConfig fuzz.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <functional>

#include "core/config.h"
#include "core/report.h"
#include "core/stream_program.h"
#include "test_helpers.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 18;  // keep test machines light
    return cfg;
}

TEST(MachineConfig, Factories)
{
    EXPECT_EQ(MachineConfig::base().srfMode, SrfMode::SequentialOnly);
    EXPECT_EQ(MachineConfig::isrf1().srfMode, SrfMode::Indexed1);
    EXPECT_EQ(MachineConfig::isrf4().srfMode, SrfMode::Indexed4);
    EXPECT_TRUE(MachineConfig::cacheCfg().mem.cacheEnabled);
    EXPECT_EQ(MachineConfig::base().name(), "Base");
    for (auto kind : {MachineKind::Base, MachineKind::ISRF1,
                      MachineKind::ISRF4, MachineKind::Cache}) {
        MachineConfig::make(kind).validate();
    }
}

TEST(MachineConfig, Table3Defaults)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.srf.lanes, 8u);
    EXPECT_EQ(cfg.srf.totalBytes(), 128u * 1024);
    EXPECT_EQ(cfg.srf.seqWidth, 4u);
    EXPECT_EQ(cfg.srf.streamBufWords, 8u);
    EXPECT_EQ(cfg.srf.addrFifoSize, 8u);
    EXPECT_EQ(cfg.srf.seqLatency, 3u);
    EXPECT_EQ(cfg.srf.inLaneLatency, 4u);
    EXPECT_EQ(cfg.srf.crossLaneLatency, 6u);
    EXPECT_NEAR(cfg.dram.wordsPerCycle, 2.285, 0.001);
    EXPECT_EQ(cfg.cache.capacityWords * 4, 128u * 1024);
    EXPECT_EQ(cfg.cache.ways, 4u);
    EXPECT_EQ(cfg.cache.banks, 4u);
    EXPECT_EQ(cfg.cache.lineWords, 2u);
    EXPECT_EQ(cfg.cluster.aluSlots, 4u);
    EXPECT_EQ(cfg.cluster.divSlots, 1u);
}

class MachineTest : public ::testing::TestWithParam<MachineKind>
{
};

TEST_P(MachineTest, CopyKernelEndToEnd)
{
    Machine m;
    m.init(smallConfig(GetParam()));

    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 256;
    inCfg.base = m.allocator().alloc(256, StreamLayout::Striped);
    outCfg.lengthWords = 256;
    outCfg.base = m.allocator().alloc(256, StreamLayout::Striped);
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);

    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 5 + 3);
    m.srf().fillSlot(in, data);

    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    EXPECT_TRUE(m.kernelActive());
    uint64_t cycles = m.runUntil([&]() { return !m.kernelActive(); },
                                 200000).cycles;
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(m.srf().dumpSlot(out), data);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MachineTest,
                         ::testing::Values(MachineKind::Base,
                                           MachineKind::ISRF1,
                                           MachineKind::ISRF4,
                                           MachineKind::Cache));

TEST(Machine, BreakdownAccountsEveryLaneCycle)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 0;
    outCfg.lengthWords = 512;
    outCfg.base = m.config().srf.laneWords / 2;
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);
    std::vector<Word> data(512, 1);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 200000);

    const TimeBreakdown &bd = m.breakdown();
    EXPECT_EQ(bd.total(), m.now() * m.lanes());
    EXPECT_GT(bd.loopBody, 0u);
    EXPECT_GT(bd.overhead, 0u);  // dispatch + fill/drain
    EXPECT_EQ(bd.memStall, 0u);  // no memory ops issued
}

TEST(Machine, KernelBwRecorded)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 0;
    outCfg.lengthWords = 512;
    outCfg.base = 1024;
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);
    std::vector<Word> data(512, 2);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    m.launchKernel(test::makeCopyInvocation(m, &g, in, out, data));
    m.runUntil([&]() { return !m.kernelActive(); }, 200000);

    const auto &bw = m.kernelBw();
    ASSERT_TRUE(bw.count("copy"));
    const KernelBwRecord &rec = bw.at("copy");
    EXPECT_EQ(rec.invocations, 1u);
    EXPECT_GT(rec.laneCycles, 0u);
    // copy touches 2 words (1 read + 1 write) per iteration.
    EXPECT_EQ(rec.seqWords, 2u * 512u);
    EXPECT_GT(rec.seqPerLaneCycle(), 0.0);
    EXPECT_EQ(rec.inLaneWords, 0u);
}

TEST(Machine, LaunchWhileActiveDies)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig cfg;
    cfg.lengthWords = 64;
    SlotId in = m.srf().openSlot(cfg);
    cfg.base = 512;
    SlotId out = m.srf().openSlot(cfg);
    std::vector<Word> data(64, 1);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    auto inv2 = test::makeCopyInvocation(m, &g, in, out, data);
    EXPECT_DEATH(m.launchKernel(inv2), "while");
}

TEST(Machine, IndexedLookupKernelEndToEnd)
{
    Machine m;
    m.init(smallConfig(MachineKind::ISRF4));

    // Table: per-lane copy of 256 entries; in: per-lane indices; out:
    // the looked-up values.
    SlotConfig tblCfg;
    tblCfg.layout = StreamLayout::PerLane;
    tblCfg.lengthWords = 256;
    tblCfg.base = 0;
    tblCfg.indexed = true;
    SlotId tbl = m.srf().openSlot(tblCfg);
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t w = 0; w < 256; w++)
            m.srf().writeWord(l, w, (w * 3) ^ l);

    SlotConfig inCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 256;
    SlotId in = m.srf().openSlot(inCfg);
    SlotConfig outCfg;
    outCfg.lengthWords = 512;
    outCfg.base = 512;
    SlotId out = m.srf().openSlot(outCfg);

    std::vector<Word> indices(512);
    Rng rng(3);
    for (auto &w : indices)
        w = static_cast<Word>(rng.below(256));
    m.srf().fillSlot(in, indices);

    KernelGraph g = test::makeLookupKernel();
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, tbl, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &geom = m.config().srf;
    for (size_t e = 0; e < indices.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / geom.seqWidth) % geom.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.seqWrites.resize(3);
        t.idxReads.resize(3);
        t.idxReads[1].push_back(indices[e]);
        t.seqWrites[2].push_back((indices[e] * 3) ^ lane);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 400000);

    // Verify the output: element e was processed by its stripe lane.
    auto outData = m.srf().dumpSlot(out);
    for (size_t e = 0; e < indices.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / geom.seqWidth) % geom.lanes);
        EXPECT_EQ(outData[e], (indices[e] * 3) ^ lane) << "element " << e;
    }
    EXPECT_GT(m.srf().idxInLaneWords(), 0u);
}

/**
 * Load `data` from DRAM address 0 into an SRF stream and copy it
 * through the copy kernel. @return the program's cycle count; `out`,
 * when given, receives the output stream.
 */
uint64_t
runCopyProgram(Machine &m, const std::vector<Word> &data,
               std::vector<Word> *out = nullptr)
{
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", data.size());
    SlotId dst = prog.addStream("out", data.size());
    prog.load(in, 0, m.config().mem.cacheEnabled);
    static KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, dst, data));
    uint64_t cycles = prog.run();
    if (out)
        *out = prog.dumpStream(dst);
    return cycles;
}

/**
 * Load `idx` from DRAM address 0 and run a lookup kernel over it:
 * out[e] = table[idx[e]]. In-lane, every lane holds `table`; cross-lane,
 * `table` is one striped stream and idx[e] a global record index.
 * @return the program's cycle count; `out` receives the output stream.
 */
uint64_t
runLookupProgram(Machine &m, const std::vector<Word> &idx,
                 const std::vector<Word> &table, std::vector<Word> *out,
                 bool crossLane = false)
{
    m.mem().dram().fill(0, idx);
    StreamProgram prog(m);
    SlotId in = prog.addStream("idx", idx.size());
    SlotId lut = crossLane
        ? prog.addStream("lut", table.size(), StreamLayout::Striped,
                         StreamDir::In, true, true)
        : prog.addStream("lut", table.size(), StreamLayout::PerLane,
                         StreamDir::In, true);
    SlotId dst = prog.addStream("out", idx.size());
    if (crossLane) {
        prog.fillStream(lut, table);
    } else {
        std::vector<Word> tables;
        for (uint32_t l = 0; l < m.lanes(); l++)
            tables.insert(tables.end(), table.begin(), table.end());
        prog.fillStream(lut, tables);
    }
    prog.load(in, 0, m.config().mem.cacheEnabled);
    static KernelGraph inLane = test::makeLookupKernel();
    static KernelGraph cross = test::makeCrossLookupKernel();
    const KernelGraph &g = crossLane ? cross : inLane;
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, lut, dst};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &geom = m.config().srf;
    for (auto &t : inv->laneTraces) {
        t.seqWrites.resize(3);
        t.idxReads.resize(3);
    }
    for (size_t e = 0; e < idx.size(); e++) {
        auto &t = inv->laneTraces[(e / geom.seqWidth) % geom.lanes];
        t.iterations++;
        t.idxReads[1].push_back(idx[e]);
        t.seqWrites[2].push_back(table[idx[e]]);
    }
    inv->finalize();
    prog.kernel(inv);
    uint64_t cycles = prog.run();
    *out = prog.dumpStream(dst);
    return cycles;
}

std::vector<Word>
rampData(size_t n)
{
    std::vector<Word> data(n);
    for (size_t i = 0; i < n; i++)
        data[i] = static_cast<Word>(i * 3 + 1);
    return data;
}

TEST(MachineReinit, SecondInitMatchesFreshMachine)
{
    // init() registers the machine with its engine; without
    // Engine::clear() a second init() would register it twice and
    // keep the old clock running.
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;

    Machine fresh;
    fresh.init(cfg);
    uint64_t freshCycles = runCopyProgram(fresh, rampData(256));
    std::string freshReport = machineReportJson(fresh);

    Machine m;
    m.init(cfg);
    runCopyProgram(m, std::vector<Word>(512, 7));
    EXPECT_GT(m.now(), 0u);

    // Re-init the dirty machine and run the reference program: every
    // stat, the clock, and the report must match a fresh machine.
    m.init(cfg);
    EXPECT_EQ(m.now(), 0u);
    EXPECT_EQ(m.engine().componentCount(), fresh.engine().componentCount());
    EXPECT_EQ(runCopyProgram(m, rampData(256)), freshCycles);
    EXPECT_EQ(machineReportJson(m), freshReport);
}

// ----------------------------------------------------------------------
// Config validation
// ----------------------------------------------------------------------

TEST(ConfigValidateDeathTest, ReportsAllViolationsAtOnce)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.subArrays = 3;       // not a power of two
    cfg.dram.accessLatency = 0;  // invalid
    // Both violations appear in one fatal() message.
    EXPECT_DEATH(cfg.validate(), "2 violation");
    EXPECT_DEATH(cfg.validate(), "subArrays must be a power of two");
    EXPECT_DEATH(cfg.validate(), "accessLatency must be nonzero");
}

TEST(ConfigValidateDeathTest, KeepsExistingChecks)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.mem.cacheEnabled = true;
    EXPECT_DEATH(cfg.validate(), "cache enabled");
    MachineConfig cc = MachineConfig::cacheCfg();
    cc.mem.cacheEnabled = false;
    EXPECT_DEATH(cc.validate(), "without cache");
    MachineConfig lw = MachineConfig::base();
    lw.srf.laneWords = 4098;
    EXPECT_DEATH(lw.validate(), "multiple of seqWidth");
}

TEST(ConfigValidateDeathTest, SeqWidthBeyondRowBufferIsConfigError)
{
    // Used to hard-fatal() inside Srf::init() at machine-build time;
    // now reported collect-all with the other config violations.
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.seqWidth = 16;  // keeps laneWords a multiple: one violation
    EXPECT_DEATH(cfg.validate(), "seqWidth > 8 unsupported");
}

TEST(ConfigValidateDeathTest, TooManySlotsForGlobalArbiter)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.maxStreamSlots = 64;  // + indexed bundle = 65 claimants
    EXPECT_DEATH(cfg.validate(), "at most 64 claimants");
}

// ----------------------------------------------------------------------
// Lazily backed DRAM
// ----------------------------------------------------------------------

/** This process's resident set in bytes (/proc/self/statm). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** Resident-set growth since `before` (0 if it shrank). */
uint64_t
residentGrowthSince(uint64_t before)
{
    uint64_t now = residentBytes();
    return now > before ? now - before : 0;
}

/** A quarter of the Table 3 DRAM: eager zero-filling would cross it. */
constexpr uint64_t kResidentBound = 16ull << 20;

TEST(LazyDram, DefaultMachineInitGrowsResidentSetLittle)
{
    MachineConfig cfg = MachineConfig::isrf4();
    ASSERT_EQ(cfg.dram.capacityWords, 16ull << 20);
    uint64_t before = residentBytes();
    Machine m;
    m.init(cfg);
    m.mem().dram().write(cfg.dram.capacityWords - 1, 42);
    EXPECT_LT(residentGrowthSince(before), kResidentBound);
    EXPECT_EQ(m.mem().dram().read(cfg.dram.capacityWords - 1), 42u);
    EXPECT_EQ(m.mem().dram().read(cfg.dram.capacityWords / 2), 0u);
}

// ----------------------------------------------------------------------
// Seeded MachineConfig fuzz
// ----------------------------------------------------------------------

template <typename T>
T
pick(Rng &rng, std::initializer_list<T> values)
{
    return values.begin()[rng.below(values.size())];
}

/**
 * Overwrite every fuzzed field with a value validate() accepts. Fields
 * are drawn in order so the ones bounded by others (stream buffer and
 * staging sizes, cache capacity) see their final bounds.
 */
void
drawValidPoint(MachineConfig &c, Rng &rng)
{
    c.srf.lanes = pick(rng, {1u, 2u, 4u, 8u, 16u, 32u});
    c.srf.subArrays = pick(rng, {1u, 2u, 4u, 8u});
    c.srf.seqWidth = pick(rng, {1u, 2u, 4u, 8u});
    c.srf.laneWords = pick(rng, {256u, 1024u, 4096u});
    // The copy program opens two streams, the lookup program three.
    c.srf.maxStreamSlots = c.srfMode == SrfMode::SequentialOnly
        ? pick(rng, {2u, 3u, 8u, 24u, 63u})
        : pick(rng, {3u, 8u, 24u, 63u});
    c.srf.addrFifoSize = pick(rng, {1u, 2u, 8u, 16u});
    c.srf.streamBufWords = c.srf.seqWidth * pick(rng, {1u, 2u, 4u});
    c.srf.remoteQueueDepth = pick(rng, {1u, 4u, 8u});
    c.srf.netPortsPerBank = pick(rng, {1u, 2u, 8u});
    c.commOccupancy = pick(rng, {0.0, 0.3, 0.8});
    c.inLaneSeparation = pick(rng, {0u, 6u, 10u, 1024u});
    c.crossLaneSeparation = pick(rng, {0u, 20u, 24u, 1024u});
    c.mem.units = pick(rng, {1u, 2u, 4u});
    c.mem.stagingWords = c.srf.seqAccessWords() * pick(rng, {1u, 2u, 4u});
    c.dram.accessLatency = pick(rng, {1u, 40u, 200u});
    c.dram.wordsPerCycle = pick(rng, {0.5, 2.285, 8.0});
    c.cache.lineWords = pick(rng, {1u, 2u, 4u, 8u});
    c.cache.ways = pick(rng, {1u, 2u, 3u, 4u});
    c.cache.banks = pick(rng, {1u, 2u, 3u, 4u});
    c.cache.capacityWords = c.cache.lineWords * c.cache.ways *
        pick(rng, {16u, 256u, 1024u});
}

/** One way to break a valid point, and the violation validate() names. */
struct Breakage
{
    std::function<void(MachineConfig &)> apply;
    const char *violation;  ///< regex matched against the fatal message
};

const std::vector<Breakage> &
breakages()
{
    static const char *kNonzero =
        "lanes, seqWidth and subArrays must all be nonzero";
    static const char *kCacheGeom =
        "cache lineWords, ways and banks must all be nonzero";
    static const char *kCacheCap =
        "cache capacityWords must be a nonzero multiple";
    static const char *kComm = "commOccupancy must be in \\[0, 1\\)";
    static const std::vector<Breakage> all = {
        {[](MachineConfig &c) { c.srf.lanes = 0; }, kNonzero},
        {[](MachineConfig &c) { c.srf.lanes = 6; },
         "lanes must be a power of two"},
        {[](MachineConfig &c) { c.srf.subArrays = 0; }, kNonzero},
        {[](MachineConfig &c) { c.srf.subArrays = 3; },
         "subArrays must be a power of two"},
        {[](MachineConfig &c) { c.srf.seqWidth = 0; }, kNonzero},
        {[](MachineConfig &c) { c.srf.seqWidth = 3; },
         "laneWords must be a multiple of seqWidth"},
        {[](MachineConfig &c) { c.srf.seqWidth = 16; },
         "seqWidth > 8 unsupported"},
        {[](MachineConfig &c) { c.srf.laneWords = 0; },
         "laneWords must be nonzero"},
        {[](MachineConfig &c) { c.srf.maxStreamSlots = 0; },
         "maxStreamSlots must be nonzero"},
        {[](MachineConfig &c) { c.srf.maxStreamSlots = 64; },
         "maxStreamSlots must leave the global arbiter"},
        {[](MachineConfig &c) { c.srf.addrFifoSize = 0; },
         "addrFifoSize must be nonzero"},
        {[](MachineConfig &c) { c.srf.remoteQueueDepth = 0; },
         "remoteQueueDepth must be nonzero"},
        {[](MachineConfig &c) {
             c.srf.streamBufWords = c.srf.seqWidth - 1;
         },
         "streamBufWords must hold one sequential access"},
        {[](MachineConfig &c) { c.mem.units = 0; },
         "mem.units must be nonzero"},
        {[](MachineConfig &c) {
             c.mem.stagingWords = c.srf.seqAccessWords() - 1;
         },
         "mem.stagingWords must hold one SRF block"},
        {[](MachineConfig &c) { c.dram.accessLatency = 0; },
         "DRAM accessLatency must be nonzero"},
        {[](MachineConfig &c) { c.dram.wordsPerCycle = 0.0; },
         "DRAM bandwidth \\(wordsPerCycle\\) must be positive"},
        {[](MachineConfig &c) { c.dram.wordsPerCycle = std::nan(""); },
         "DRAM bandwidth \\(wordsPerCycle\\) must be positive"},
        {[](MachineConfig &c) { c.srf.netPortsPerBank = 0; },
         "netPortsPerBank must be nonzero"},
        {[](MachineConfig &c) { c.commOccupancy = 1.0; }, kComm},
        {[](MachineConfig &c) { c.commOccupancy = -0.25; }, kComm},
        {[](MachineConfig &c) { c.commOccupancy = std::nan(""); }, kComm},
        {[](MachineConfig &c) { c.inLaneSeparation = 1025; },
         "inLaneSeparation must be at most 1024 cycles"},
        {[](MachineConfig &c) { c.crossLaneSeparation = UINT32_MAX; },
         "crossLaneSeparation must be at most 1024 cycles"},
        {[](MachineConfig &c) { c.cache.lineWords = 0; }, kCacheGeom},
        {[](MachineConfig &c) { c.cache.ways = 0; }, kCacheGeom},
        {[](MachineConfig &c) { c.cache.banks = 0; }, kCacheGeom},
        {[](MachineConfig &c) { c.cache.capacityWords = 0; }, kCacheCap},
        {[](MachineConfig &c) {
             c.cache.lineWords = 2;
             c.cache.capacityWords = 1025;  // odd: not a whole line
         },
         kCacheCap},
    };
    return all;
}

TEST(MachineConfigFuzzDeathTest, PerturbedPresetsFailValidationOrRunCopy)
{
    // Every other point breaks one field (each breakage at least
    // once) and must die in validate() naming it; every valid point
    // must run the copy kernel to a correct result, and on an indexed
    // SRF also the in-lane and the cross-lane lookup kernels, one
    // program after another on the same machine. One-entry address
    // FIFOs and one-access stream buffers make lanes stage spilled
    // work. A crash or hang anywhere is a missing validate() rule or a
    // model bug.
    const std::vector<Breakage> &broken = breakages();
    const size_t points = 4 * broken.size();
    Rng rng(0x15EEDull);
    for (size_t i = 0; i < points; i++) {
        MachineKind kind = static_cast<MachineKind>(i / 2 % 4);
        MachineConfig cfg = MachineConfig::make(kind);
        drawValidPoint(cfg, rng);
        SCOPED_TRACE(testing::Message()
                     << "point " << i << " on " << machineKindName(kind)
                     << ": lanes=" << cfg.srf.lanes << " seqWidth="
                     << cfg.srf.seqWidth << " subArrays="
                     << cfg.srf.subArrays);
        if (i % 2 == 1) {
            const Breakage &b = broken[(i / 2) % broken.size()];
            b.apply(cfg);
            EXPECT_DEATH(cfg.validate(), b.violation);
            continue;
        }
        Machine m;
        m.init(cfg);
        std::vector<Word> data = rampData(8 * cfg.srf.seqAccessWords());
        std::vector<Word> out;
        EXPECT_GT(runCopyProgram(m, data, &out), 0u);
        EXPECT_EQ(out, data);
        if (cfg.srfMode == SrfMode::SequentialOnly)
            continue;
        std::vector<Word> table = rampData(32);
        std::vector<Word> idx(data.size());
        for (Word &x : idx)
            x = static_cast<Word>(rng.below(table.size()));
        std::vector<Word> want;
        for (Word x : idx)
            want.push_back(table[x]);
        EXPECT_GT(runLookupProgram(m, idx, table, &out), 0u);
        EXPECT_EQ(out, want);
        EXPECT_EQ(m.srf().idxInLaneWords(), idx.size());

        // Global record indices over a table striped across every
        // lane, so lookups cross lanes through the index network.
        std::vector<Word> wide = rampData(2 * cfg.srf.seqAccessWords());
        want.clear();
        for (Word &x : idx) {
            x = static_cast<Word>(rng.below(wide.size()));
            want.push_back(wide[x]);
        }
        EXPECT_GT(runLookupProgram(m, idx, wide, &out, true), 0u);
        EXPECT_EQ(out, want);
        EXPECT_EQ(m.srf().idxCrossWords(), idx.size());
    }
}

} // namespace
} // namespace isrf
