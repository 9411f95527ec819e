/**
 * @file
 * Tests for the machine report module and its energy-count harvesting.
 */
#include <gtest/gtest.h>

#include "core/report.h"
#include "core/stream_program.h"
#include "test_helpers.h"
#include "util/json.h"

namespace isrf {
namespace {

/** Run a small copy program on a machine built from cfg. */
void
runCopyProgram(Machine &m, MachineConfig cfg)
{
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::vector<Word> data(256, 3);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    SlotId out = prog.addStream("out", 256);
    prog.load(in, 0);
    static KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();
}

TEST(Report, ContainsAllSections)
{
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    Machine m;
    m.init(cfg);
    std::vector<Word> data(256, 3);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    SlotId out = prog.addStream("out", 256);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();

    std::string rep = machineReport(m);
    EXPECT_NE(rep.find("Machine: ISRF4"), std::string::npos);
    EXPECT_NE(rep.find("lane-cycles"), std::string::npos);
    EXPECT_NE(rep.find("dram: words="), std::string::npos);
    EXPECT_NE(rep.find("copy"), std::string::npos) << "kernel table";
    EXPECT_NE(rep.find("energy: total="), std::string::npos);
}

TEST(Report, SectionsCanBeDisabled)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    ReportOptions opts;
    opts.includeEnergy = false;
    opts.includeKernels = false;
    std::string rep = machineReport(m, opts);
    EXPECT_EQ(rep.find("energy:"), std::string::npos);
}

TEST(Report, EnergyCountsMatchMachineCounters)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    EnergyCounts c = energyCounts(m);
    EXPECT_EQ(c.seqSrfWords, 0u);
    EXPECT_EQ(c.dramWords, 0u);
}

TEST(Report, CacheSectionOnlyOnCacheMachine)
{
    Machine m;
    MachineConfig cfg = MachineConfig::cacheCfg();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::string rep = machineReport(m);
    EXPECT_NE(rep.find("cache: hits="), std::string::npos);

    Machine b;
    MachineConfig bc = MachineConfig::base();
    bc.dram.capacityWords = 1 << 16;
    b.init(bc);
    EXPECT_EQ(machineReport(b).find("cache: hits="), std::string::npos);
}

TEST(ReportJson, IsValidAndMatchesTextCounters)
{
    Machine m;
    runCopyProgram(m, MachineConfig::isrf4());

    std::string text = machineReport(m);
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json)) << json;

    // The JSON report draws from the same machine counters as the text
    // report: spot-check that the headline values agree.
    EXPECT_NE(json.find("\"machine\":\"ISRF4\""), std::string::npos);
    auto expectField = [&](const std::string &key, uint64_t v) {
        std::string needle =
            "\"" + key + "\":" + std::to_string(v);
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    };
    expectField("cycles", m.now());
    expectField("seq_words", m.srf().seqWordsAccessed());
    expectField("in_lane_idx_words", m.srf().idxInLaneWords());
    expectField("words", m.mem().dram().wordsTransferred());
    expectField("loop_body", m.breakdown().loopBody);
    // And the text report shows the same dram word count.
    EXPECT_NE(text.find("dram: words=" +
                  std::to_string(m.mem().dram().wordsTransferred())),
              std::string::npos);
    // Kernel table appears in both.
    EXPECT_NE(json.find("\"name\":\"copy\""), std::string::npos);
    EXPECT_NE(text.find("copy"), std::string::npos);
}

TEST(ReportJson, SectionsCanBeDisabled)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    ReportOptions opts;
    opts.includeEnergy = false;
    opts.includeKernels = false;
    std::string json = machineReportJson(m, opts);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_EQ(json.find("\"energy\""), std::string::npos);
    EXPECT_EQ(json.find("\"kernels\""), std::string::npos);
}

TEST(ReportJson, CacheSectionOnlyOnCacheMachine)
{
    Machine m;
    MachineConfig cfg = MachineConfig::cacheCfg();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"cache\""), std::string::npos);

    Machine b;
    MachineConfig bc = MachineConfig::base();
    bc.dram.capacityWords = 1 << 16;
    b.init(bc);
    EXPECT_EQ(machineReportJson(b).find("\"cache\""), std::string::npos);
}

TEST(ReportJson, ConflictHistogramPresentOnIndexedRun)
{
    Machine m;
    runCopyProgram(m, MachineConfig::isrf4());
    // The conflict-degree histogram registers at machine init even if
    // this program never issues indexed reads.
    EXPECT_TRUE(m.srf().stats().hasHistogram("idx_conflict_degree"));
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"idx_conflict_degree\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

} // namespace
} // namespace isrf
