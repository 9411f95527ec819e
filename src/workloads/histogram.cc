#include "workloads/histogram.h"

#include <algorithm>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

namespace {

constexpr uint32_t kSamples = 32768;
constexpr uint32_t kStripWords = 8192;
constexpr uint32_t kBins = 256;
constexpr uint32_t kHotKeys = 16;
constexpr double kHotFrac = 0.3;

uint32_t
binOf(Word key)
{
    // Knuth multiplicative hash, top 8 bits of the 32-bit product.
    return (static_cast<uint32_t>(key) * 2654435761u) >> 24;
}

/** Indexed kernel: in-place bump of the SRF-resident bin table. */
KernelGraph
histIdxGraph()
{
    KernelBuilder b("hist");
    auto keys = b.seqIn("keys");
    auto table = b.idxlRw("bins");

    auto k = b.read(keys);
    auto h = b.ishr(b.imul(k, b.constInt(
        static_cast<int32_t>(2654435761u))), b.constInt(24));
    h = b.iand(h, b.constInt(static_cast<int32_t>(kBins - 1)));
    auto v = b.readIdx(table, h);
    b.writeIdx(table, h, b.iadd(v, b.constInt(1)));
    return b.build();
}

/** Base/Cache kernel: bins live in the cluster scratchpad. */
KernelGraph
histSpGraph()
{
    KernelBuilder b("hist");
    auto keys = b.seqIn("keys");

    auto k = b.read(keys);
    auto h = b.ishr(b.imul(k, b.constInt(
        static_cast<int32_t>(2654435761u))), b.constInt(24));
    h = b.iand(h, b.constInt(static_cast<int32_t>(kBins - 1)));
    auto v = b.spRead(h);
    b.spWrite(h, b.iadd(v, b.constInt(1)));
    return b.build();
}

/** Flush kernel: stream the scratchpad bins out sequentially. */
KernelGraph
histFlushGraph()
{
    KernelBuilder b("hist_flush");
    auto out = b.seqOut("bins_out");
    auto it = b.iterIdx();
    b.write(out, b.spRead(it));
    return b.build();
}

} // namespace

WorkloadResult
runHistogram(const MachineConfig &machineCfg, const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);

    WorkloadResult res;
    res.workload = "Histogram";

    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;
    const uint32_t strips = kSamples / kStripWords;

    // Keys: mostly uniform, with a hot set so bin conflicts are
    // non-uniform (the scatter-reduce stress case).
    Rng rng(opts.seed ^ 0x415ull);
    std::vector<Word> hot(kHotKeys);
    for (auto &h : hot)
        h = static_cast<Word>(rng.below(1u << 20));
    std::vector<Word> keys(kSamples);
    for (auto &k : keys)
        k = rng.chance(kHotFrac) ? hot[rng.below(kHotKeys)]
                                 : static_cast<Word>(rng.below(1u << 20));

    std::vector<uint64_t> refHist(kBins, 0);
    for (Word k : keys)
        refHist[binOf(k)]++;

    const uint64_t keysAddr = 0;
    m.mem().dram().fill(keysAddr, keys);

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    graphs.push_back(std::make_unique<KernelGraph>(
        indexed ? histIdxGraph() : histSpGraph()));
    const KernelGraph *kg = graphs[0].get();
    const KernelGraph *flushKg = nullptr;
    if (!indexed) {
        graphs.push_back(std::make_unique<KernelGraph>(histFlushGraph()));
        flushKg = graphs[1].get();
    }

    StreamProgram prog(m);
    SlotId keysA = prog.addStream("keysA", kStripWords,
        StreamLayout::Striped);
    SlotId keysB = prog.addStream("keysB", kStripWords,
        StreamLayout::Striped);
    SlotId bins = -1, binsOut = -1;
    if (indexed) {
        // Lane-private bin tables: an in-lane read-write indexed
        // stream resident in the SRF for the whole run.
        bins = prog.addStream("bins", kBins, StreamLayout::PerLane,
                              StreamDir::In, true, false, 1, {}, true);
        prog.fillStream(bins, std::vector<Word>(
            static_cast<size_t>(kBins) * g.lanes, 0));
    } else {
        binsOut = prog.addStream("binsOut", kBins,
                                 StreamLayout::PerLane, StreamDir::Out);
    }

    // Running per-lane histograms: the idxWrites trace carries the
    // running count so the SRF table ends at the final value.
    std::vector<std::vector<Word>> laneHist(
        g.lanes, std::vector<Word>(kBins, 0));
    ProgOpId lastKernel = -1;
    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        SlotId sCur = keysA, sNxt = keysB;
        for (uint32_t s = 0; s < strips; s++) {
            prog.load(sCur, keysAddr +
                static_cast<uint64_t>(s) * kStripWords, cached);
            auto inv = newInvocation(m, kg,
                indexed ? std::vector<SlotId>{sCur, bins}
                        : std::vector<SlotId>{sCur});
            for (uint32_t l = 0; l < g.lanes; l++)
                inv->laneTraces[l].iterations = 0;
            for (uint32_t i = 0; i < kStripWords; i++) {
                uint32_t idx = s * kStripWords + i;
                uint32_t lane = (i / g.seqWidth) % g.lanes;
                auto &tr = inv->laneTraces[lane];
                tr.iterations++;
                uint32_t bin = binOf(keys[idx]);
                laneHist[lane][bin]++;
                if (indexed) {
                    tr.idxReads[1].push_back(bin);
                    IdxWriteTraceEntry w;
                    w.recordIndex = bin;
                    w.data[0] = laneHist[lane][bin];
                    tr.idxWrites[1].push_back(w);
                }
            }
            inv->finalize();
            ProgOpId kid = prog.kernel(inv);
            lastKernel = kid;
            std::swap(sCur, sNxt);
        }
    }
    if (!indexed) {
        // Drain the scratchpad bins with a final flush kernel; its
        // trace carries each lane's final table.
        auto inv = newInvocation(m, flushKg, {binsOut});
        for (uint32_t l = 0; l < g.lanes; l++) {
            auto &tr = inv->laneTraces[l];
            tr.iterations = kBins;
            tr.seqWrites[0] = laneHist[l];
        }
        inv->finalize();
        ProgOpId fid = prog.kernel(inv);
        if (lastKernel >= 0)
            prog.dependsOn(fid, lastKernel);  // scratchpad carry-over
    }

    uint64_t cycles = prog.run();
    harvestResult(res, m, cycles);

    // The lane tables (PerLane dump = lane-major) must sum to exactly
    // repeats x the reference histogram.
    std::vector<Word> table =
        prog.dumpStream(indexed ? bins : binsOut);
    bool ok = table.size() == static_cast<size_t>(kBins) * g.lanes;
    for (uint32_t b = 0; b < kBins && ok; b++) {
        uint64_t total = 0;
        for (uint32_t l = 0; l < g.lanes; l++)
            total += table[static_cast<size_t>(l) * kBins + b];
        if (total != refHist[b] * opts.repeats)
            ok = false;
    }
    res.correct = ok;
    res.extra["samples"] = kSamples;
    res.extra["bins"] = kBins;
    res.extra["hot_frac"] = kHotFrac;
    res.extra["kernel_ii"] = m.scheduleKernel(*kg).ii;
    return res;
}

} // namespace isrf
