/**
 * @file
 * StreamProgram runtime tests: dependency inference, out-of-order
 * issue, load->kernel->store pipelines, and memory/compute overlap.
 */
#include <gtest/gtest.h>

#include "core/stream_program.h"
#include "test_helpers.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind = MachineKind::Base)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 18;
    return cfg;
}

TEST(StreamProgram, LoadKernelStoreRoundtrip)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> input(512);
    for (size_t i = 0; i < input.size(); i++)
        input[i] = static_cast<Word>(i * 11 + 1);
    m.mem().dram().fill(0, input);

    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 512);
    SlotId out = prog.addStream("out", 512);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, input));
    prog.store(out, 4096);
    uint64_t cycles = prog.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(m.mem().dram().dump(4096, 512), input);
    // Load + store cross the pins exactly once each.
    EXPECT_EQ(m.mem().dram().wordsTransferred(), 1024u);
}

TEST(StreamProgram, DependenciesSerializeRawWarWaw)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> a(256, 1), b(256, 2);
    m.mem().dram().fill(0, a);
    m.mem().dram().fill(1000, b);

    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 256);
    // WAW: two loads into the same slot; the second must win.
    prog.load(s, 0);
    prog.load(s, 1000);
    prog.store(s, 2000);
    prog.run();
    EXPECT_EQ(m.mem().dram().dump(2000, 256), b);
}

TEST(StreamProgram, ExplicitDependency)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> a(64, 7);
    m.mem().dram().fill(0, a);
    StreamProgram prog(m);
    SlotId x = prog.addStream("x", 64);
    SlotId y = prog.addStream("y", 64);
    ProgOpId l1 = prog.load(x, 0);
    // y's load would otherwise run concurrently; force it after l1.
    ProgOpId l2 = prog.load(y, 0);
    prog.dependsOn(l2, l1);
    prog.run();
    EXPECT_EQ(prog.dumpStream(y), a);
}

TEST(StreamProgram, MemoryOverlapsKernels)
{
    // Two independent chains: load A -> kernel A while load B proceeds.
    // Total time must be well below the serial sum.
    Machine m;
    m.init(smallConfig());
    std::vector<Word> data(2048);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i);
    m.mem().dram().fill(0, data);

    KernelGraph g = test::makeCopyKernel();

    StreamProgram prog(m);
    SlotId inA = prog.addStream("inA", 2048);
    SlotId outA = prog.addStream("outA", 2048);
    SlotId inB = prog.addStream("inB", 2048);
    SlotId outB = prog.addStream("outB", 2048);
    prog.load(inA, 0);
    prog.kernel(test::makeCopyInvocation(m, &g, inA, outA, data));
    prog.store(outA, 8192);
    prog.load(inB, 0);
    prog.kernel(test::makeCopyInvocation(m, &g, inB, outB, data));
    prog.store(outB, 16384);
    uint64_t cycles = prog.run();

    // Serial lower bound for the memory ops alone: 4 x 2048 words at
    // ~2.285 words/cycle = ~3585 cycles. With overlap, the whole thing
    // should be well under load+kernel+store fully serialized.
    Machine m2;
    m2.init(smallConfig());
    m2.mem().dram().fill(0, data);
    StreamProgram serial(m2);
    SlotId sIn = serial.addStream("in", 2048);
    SlotId sOut = serial.addStream("out", 2048);
    serial.load(sIn, 0);
    serial.kernel(test::makeCopyInvocation(m2, &g, sIn, sOut, data));
    uint64_t serialOne = serial.run();
    EXPECT_LT(cycles, 2 * serialOne + 2 * 2048);

    EXPECT_EQ(m.mem().dram().dump(8192, 2048), data);
    EXPECT_EQ(m.mem().dram().dump(16384, 2048), data);
}

TEST(StreamProgram, MemStallAccountedWhenKernelWaitsOnLoad)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> data(4096, 5);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 4096);
    SlotId out = prog.addStream("out", 4096);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();
    // The kernel cannot start until the load finishes: those cycles are
    // memory stalls.
    EXPECT_GT(m.breakdown().memStall, 1000u);
}

TEST(StreamProgram, GatherFeedsKernel)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> table(1024);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i ^ 0xff);
    m.mem().dram().fill(0, table);

    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 128);
    SlotId out = prog.addStream("out", 128);
    std::vector<uint32_t> idx(128);
    Rng rng(17);
    std::vector<Word> gathered(128);
    for (size_t i = 0; i < idx.size(); i++) {
        idx[i] = static_cast<uint32_t>(rng.below(1024));
        gathered[i] = table[idx[i]];
    }
    prog.gather(in, 0, idx);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, gathered));
    prog.run();
    EXPECT_EQ(prog.dumpStream(out), gathered);
}

TEST(StreamProgram, AllocatorExhaustionIsFatal)
{
    Machine m;
    m.init(smallConfig());
    StreamProgram prog(m);
    // 8 lanes x 4096 words = 32K words total; ask for too much.
    prog.addStream("big", 30000);
    EXPECT_DEATH(prog.addStream("huge", 30000), "allocation failed");
}

TEST(StreamProgram, SlotsReleasedOnDestruction)
{
    Machine m;
    m.init(smallConfig());
    for (int round = 0; round < 3; round++) {
        StreamProgram prog(m);
        for (int i = 0; i < 20; i++) {
            prog.addStream("s" + std::to_string(i), 64);
        }
        m.allocator().reset();
    }
    SUCCEED();  // would die on slot exhaustion if slots leaked
}

/**
 * Copy `data` from DRAM address 0 to `dst` through the SRF with one
 * program. @return the SRF base word of the program's input stream.
 */
uint32_t
copyThroughSrf(Machine &m, const std::vector<Word> &data, uint64_t dst)
{
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", data.size());
    SlotId out = prog.addStream("out", data.size());
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.store(out, dst);
    prog.run();
    return m.srf().slotConfig(in).base;
}

TEST(StreamProgram, ProgramsRunBackToBackOnOneMachine)
{
    Machine m;
    m.init(smallConfig());
    // Each program's two streams fill 3/4 of the 32K-word SRF: the
    // second fits only if the first returned its words.
    std::vector<Word> a(12288), b(12288);
    for (size_t i = 0; i < a.size(); i++) {
        a[i] = static_cast<Word>(i * 7 + 3);
        b[i] = static_cast<Word>(i * 5 + 1);
    }
    EXPECT_EQ(copyThroughSrf(m, a, 1 << 15), 0u);
    EXPECT_EQ(m.allocator().usedWords(), 0u);
    EXPECT_EQ(copyThroughSrf(m, b, 1 << 16), 0u);
    EXPECT_EQ(m.mem().dram().dump(1 << 15, a.size()), a);
    EXPECT_EQ(m.mem().dram().dump(1 << 16, b.size()), b);
}

TEST(StreamProgramDeathTest, OutOfOrderDestructionPanics)
{
    Machine m;
    m.init(smallConfig());
    auto first = std::make_unique<StreamProgram>(m);
    auto second = std::make_unique<StreamProgram>(m);
    first->addStream("a", 64);
    second->addStream("b", 64);
    EXPECT_DEATH(first.reset(), "destroyed out of order");
    second.reset();
    first.reset();
    EXPECT_EQ(m.allocator().usedWords(), 0u);
}

/** Records, at every engine tick, what the driver has issued so far. */
class IssueProbe : public Ticked
{
  public:
    struct Sample
    {
        Cycle cycle;
        uint64_t memSubmitted;
        uint64_t memCompleted;
        bool kernelActive;
    };

    explicit IssueProbe(Machine &m) : m_(m) { m.engine().add(this); }

    void
    tick(Cycle now) override
    {
        samples.push_back({now,
                           m_.mem().stats().counterValue("ops_submitted"),
                           m_.mem().stats().counterValue("ops_completed"),
                           m_.kernelActive()});
    }
    std::string tickedName() const override { return "issue_probe"; }

    /** Cycles at which a kernel started (inactive -> active). */
    std::vector<Cycle>
    kernelStarts() const
    {
        std::vector<Cycle> starts;
        bool was = false;
        for (const Sample &s : samples) {
            if (s.kernelActive && !was)
                starts.push_back(s.cycle);
            was = s.kernelActive;
        }
        return starts;
    }

    std::vector<Sample> samples;

  private:
    Machine &m_;
};

std::vector<Word>
iota(size_t n, Word from)
{
    std::vector<Word> v(n);
    for (size_t i = 0; i < n; i++)
        v[i] = from + static_cast<Word>(i);
    return v;
}

TEST(StreamProgram, LaterMemOpIssuesWhileReadyKernelWaits)
{
    // K1 and K2 are ready at once; K2 must wait for K1, but the load
    // after K2 in program order is independent and issues on cycle 0.
    Machine m;
    m.init(smallConfig());
    m.mem().dram().fill(0, iota(64, 5));
    KernelGraph g = test::makeCopyKernel();
    std::vector<Word> c = iota(4096, 100), e = iota(1024, 9000);

    StreamProgram prog(m);
    SlotId cs = prog.addStream("c", c.size());
    SlotId ds = prog.addStream("d", c.size());
    SlotId es = prog.addStream("e", e.size());
    SlotId fs = prog.addStream("f", e.size());
    SlotId gs = prog.addStream("g", 64);
    prog.fillStream(cs, c);
    prog.fillStream(es, e);
    prog.kernel(test::makeCopyInvocation(m, &g, cs, ds, c));
    prog.kernel(test::makeCopyInvocation(m, &g, es, fs, e));
    prog.load(gs, 0);
    IssueProbe probe(m);
    prog.run();

    ASSERT_FALSE(probe.samples.empty());
    EXPECT_EQ(probe.samples[0].cycle, 0u);
    EXPECT_EQ(probe.samples[0].memSubmitted, 1u);
    EXPECT_TRUE(probe.samples[0].kernelActive);
    // The load finishes while K1 still runs; K2 starts only after it.
    auto starts = probe.kernelStarts();
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], 0u);
    for (const auto &s : probe.samples)
        if (s.memCompleted == 1) {
            EXPECT_LT(s.cycle, starts[1]);
            break;
        }
    EXPECT_EQ(prog.dumpStream(ds), c);
    EXPECT_EQ(prog.dumpStream(fs), e);
    EXPECT_EQ(prog.dumpStream(gs), iota(64, 5));
}

/** load -> kernel -> store, optionally with duplicated dep edges. */
uint64_t
runLoadKernelStore(int duplicateEdges, std::vector<Cycle> *kernelStarts,
                   Cycle *loadDone)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> data = iota(1024, 3);
    m.mem().dram().fill(0, data);
    KernelGraph g = test::makeCopyKernel();
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", data.size());
    SlotId out = prog.addStream("out", data.size());
    ProgOpId ld = prog.load(in, 0);
    ProgOpId k = prog.kernel(test::makeCopyInvocation(m, &g, in, out,
                                                      data));
    ProgOpId st = prog.store(out, 8192);
    for (int i = 0; i < duplicateEdges; i++) {
        prog.dependsOn(k, ld);   // repeats the inferred RAW edge
        prog.dependsOn(st, k);
    }
    IssueProbe probe(m);
    uint64_t cycles = prog.run(1u << 20);
    EXPECT_EQ(m.mem().dram().dump(8192, data.size()), data);
    *kernelStarts = probe.kernelStarts();
    *loadDone = kNoEvent;
    for (const auto &s : probe.samples)
        if (s.memCompleted == 1) {
            *loadDone = s.cycle;
            break;
        }
    return cycles;
}

TEST(StreamProgram, DuplicatedDependencyEdgeNeitherDeadlocksNorReleasesEarly)
{
    std::vector<Cycle> plainStarts, dupStarts;
    Cycle plainLoad = 0, dupLoad = 0;
    uint64_t plain = runLoadKernelStore(0, &plainStarts, &plainLoad);
    for (int dups : {1, 2}) {
        SCOPED_TRACE("duplicates=" + std::to_string(dups));
        uint64_t dup = runLoadKernelStore(dups, &dupStarts, &dupLoad);
        EXPECT_EQ(dup, plain);
        EXPECT_EQ(dupStarts, plainStarts);
        ASSERT_EQ(dupStarts.size(), 1u);
        // The kernel waits for the load: it cannot start on the tick
        // the load completes, only after the driver sees it.
        EXPECT_GT(dupStarts[0], dupLoad);
    }
}

/** Independent loads plus a dependent kernel chain. */
uint64_t
runLoadsAndKernelChain(MachineKind kind)
{
    MachineConfig cfg = smallConfig(kind);
    Machine m;
    m.init(cfg);
    constexpr size_t kWords = 512;
    constexpr int kLoads = 6;
    constexpr int kChain = 4;
    for (int i = 0; i < kLoads; i++)
        m.mem().dram().fill(static_cast<uint64_t>(i) * kWords,
                            iota(kWords, static_cast<Word>(i) << 16));
    KernelGraph g = test::makeCopyKernel();
    StreamProgram prog(m);
    std::vector<SlotId> loaded;
    for (int i = 0; i < kLoads; i++) {
        loaded.push_back(prog.addStream("l" + std::to_string(i), kWords));
        prog.load(loaded.back(), static_cast<uint64_t>(i) * kWords);
    }
    std::vector<Word> data = iota(kWords, 0);
    SlotId prev = loaded[0];
    for (int k = 0; k < kChain; k++) {
        SlotId next = prog.addStream("t" + std::to_string(k), kWords);
        prog.kernel(test::makeCopyInvocation(m, &g, prev, next, data));
        prev = next;
    }
    prog.store(prev, 1 << 16);
    uint64_t cycles = prog.run();
    EXPECT_EQ(m.mem().dram().dump(1 << 16, kWords), data);
    for (int i = 1; i < kLoads; i++)
        EXPECT_EQ(prog.dumpStream(loaded[i]),
                  iota(kWords, static_cast<Word>(i) << 16));
    return cycles;
}

TEST(StreamProgram, LoadsPlusKernelChainRunsCorrectly)
{
    for (MachineKind kind : {MachineKind::Base, MachineKind::ISRF4,
                             MachineKind::Cache}) {
        SCOPED_TRACE(machineKindName(kind));
        EXPECT_GT(runLoadsAndKernelChain(kind), 0u);
    }
}

} // namespace
} // namespace isrf

namespace isrf {
namespace {

TEST(StreamProgram, AliasSharesStorageWithIndependentBuffers)
{
    Machine m;
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    StreamProgram prog(m);
    SlotId a = prog.addStream("orig", 256, StreamLayout::Striped,
                              StreamDir::In, true);
    SlotId b = prog.addStreamAlias("view", a);
    EXPECT_NE(a, b);
    // Same storage region...
    EXPECT_EQ(m.srf().slotConfig(a).base, m.srf().slotConfig(b).base);
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i + 9);
    prog.fillStream(a, data);
    EXPECT_EQ(prog.dumpStream(b), data);
    // ...but independent buffer state: reading via the alias does not
    // disturb the original's cursors.
    m.srf().configureSlotBinding(b, StreamDir::In, true, false);
    Cycle now = 0;
    m.srf().beginCycle(now);
    ASSERT_TRUE(m.srf().idxIssueRead(0, b, 1));
    m.srf().endCycle(now);
    EXPECT_EQ(m.srf().idxOutstanding(0, a), 0u);
    // The request sits in the alias's FIFO and data buffer.
    EXPECT_EQ(m.srf().idxOutstanding(0, b), 2u);
}

TEST(MachineConfigValidate, RejectsInconsistentCombos)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.mem.cacheEnabled = true;  // cache on a non-Cache machine
    EXPECT_DEATH(cfg.validate(), "cache enabled");

    MachineConfig c2 = MachineConfig::cacheCfg();
    c2.mem.cacheEnabled = false;
    EXPECT_DEATH(c2.validate(), "without cache");

    MachineConfig c3 = MachineConfig::isrf4();
    c3.srf.laneWords = 4097;  // not a multiple of seqWidth
    EXPECT_DEATH(c3.validate(), "multiple of seqWidth");

    MachineConfig c4 = MachineConfig::base();
    c4.srfMode = SrfMode::Indexed4;  // mode/kind mismatch
    EXPECT_DEATH(c4.validate(), "inconsistent");
}

} // namespace
} // namespace isrf
