#include "workloads/igraph.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

const std::vector<IgDataset> &
igDatasets()
{
    static const std::vector<IgDataset> ds = {
        // name, fpOps, degree, nodes, strip budget (SRF words)
        // Graphs are sized well beyond the 128 KB on-chip capacity
        // ("the graph is assumed to be much larger than the available
        // SRF space"), so caches capture only partial inter-strip
        // overlap.
        {"IG_SML", 16, 4, 16384, 7000},
        {"IG_SCL", 51, 4, 16384, 7000},
        {"IG_DMS", 16, 16, 8192, 1200},
        {"IG_DCS", 51, 16, 8192, 1200},
    };
    return ds;
}

const IgDataset &
igDataset(const std::string &name)
{
    for (const auto &d : igDatasets())
        if (d.name == name)
            return d;
    fatal("igDataset: unknown dataset '%s'", name.c_str());
}

uint64_t
IgGraph::edges() const
{
    uint64_t n = 0;
    for (const auto &a : adj)
        n += a.size();
    return n;
}

IgGraph
igGenerate(const IgDataset &ds, uint64_t seed)
{
    IgGraph g;
    g.nodes = ds.nodes;
    g.adj.resize(ds.nodes);
    Rng rng(seed ^ 0x16a5);
    // Locality window sized so most neighbors land inside a strip.
    IgStripSizes strips = igStripSizes(ds);
    uint32_t window = std::max<uint32_t>(
        8, strips.indexedNeighbors / ds.avgDegree / 4);
    for (uint32_t i = 0; i < ds.nodes; i++) {
        uint32_t lo = ds.avgDegree - ds.avgDegree / 4;
        uint32_t hi = ds.avgDegree + ds.avgDegree / 4;
        auto deg = static_cast<uint32_t>(rng.range(lo, hi));
        for (uint32_t k = 0; k < deg; k++) {
            uint32_t nb;
            if (rng.chance(0.96)) {
                int64_t off = rng.range(-static_cast<int64_t>(window),
                                        static_cast<int64_t>(window));
                int64_t cand = static_cast<int64_t>(i) + off;
                cand = std::clamp<int64_t>(cand, 0, ds.nodes - 1);
                nb = static_cast<uint32_t>(cand);
            } else {
                nb = static_cast<uint32_t>(rng.below(ds.nodes));
            }
            if (nb == i)
                nb = (nb + 1) % ds.nodes;
            g.adj[i].push_back(nb);
        }
    }
    return g;
}

IgStripSizes
igStripSizes(const IgDataset &ds)
{
    // SRF words per neighbor record processed:
    //  Base: a full replicated record per edge + node in/out records.
    //  ISRF: one index word per edge + node records + gathered
    //        out-of-strip records (~10% of edges).
    double d = ds.avgDegree;
    double costBase = kIgRecordWords + 2.0 * kIgRecordWords / d;
    double costIdx = 1.0 + 2.0 * kIgRecordWords / d +
        0.10 * kIgRecordWords;
    IgStripSizes s;
    s.baseNeighbors = static_cast<uint32_t>(ds.stripBudgetWords /
                                            costBase);
    s.indexedNeighbors = static_cast<uint32_t>(ds.stripBudgetWords /
                                               costIdx);
    return s;
}

std::vector<float>
igReferenceUpdate(const IgGraph &g, const std::vector<float> &values)
{
    std::vector<float> out(g.nodes);
    for (uint32_t i = 0; i < g.nodes; i++) {
        float acc = 0;
        for (uint32_t nb : g.adj[i])
            acc += 0.5f * values[nb] + 0.25f * (values[nb] * 0.5f);
        out[i] = 0.3f * values[i] + 0.7f * acc;
    }
    return out;
}

KernelGraph
igIdxKernelGraph(uint32_t fpOps)
{
    KernelBuilder b(fpOps > 30 ? "igraph2" : "igraph1");
    auto edges = b.seqIn("edges");      // neighbor pointer stream
    auto nodes = b.idxIn("nodes");      // condensed array, cross-lane
    auto out = b.seqOut("updated");

    auto ptr = b.read(edges);
    auto rec = b.readIdx(nodes, ptr);   // 4-word record

    // Per-neighbor compute: fpOps floating-point operations. The
    // compute-heavy variant includes two unpipelined divides (e.g.
    // 1/r and 1/r^2 terms), which dominate its loop length.
    Value acc = b.fmul(rec, b.constFloat(0.5f));
    uint32_t emitted = 1;
    if (fpOps > 30) {
        acc = b.fdiv(acc, b.constFloat(1.5f));
        Value d2 = b.fdiv(rec, b.constFloat(2.5f));
        acc = b.fadd(acc, d2);
        emitted += 3;
    }
    Value x = rec;
    while (emitted < fpOps) {
        x = b.fmul(x, b.constFloat(1.01f));
        acc = b.fadd(acc, x);
        emitted += 2;
    }
    b.write(out, acc);
    return b.build();
}

KernelGraph
igBaseKernelGraph(uint32_t fpOps)
{
    KernelBuilder b(fpOps > 30 ? "igraph2" : "igraph1");
    auto nbs = b.seqIn("neighbors");    // replicated records
    auto own = b.seqIn("nodes_in");
    auto out = b.seqOut("updated");

    // A full record streams past per neighbor.
    auto r0 = b.read(nbs);
    auto r1 = b.read(nbs);
    auto r2 = b.read(nbs);
    auto r3 = b.read(nbs);
    auto self = b.read(own);
    Value acc = b.fmul(r0, b.constFloat(0.5f));
    acc = b.fadd(acc, b.fmul(r1, b.constFloat(0.25f)));
    uint32_t emitted = 3;
    if (fpOps > 30) {
        acc = b.fdiv(acc, b.constFloat(1.5f));
        Value d2 = b.fdiv(r2, b.constFloat(2.5f));
        acc = b.fadd(acc, d2);
        emitted += 3;
    }
    Value x = b.fadd(r2, r3);
    emitted++;
    while (emitted < fpOps) {
        x = b.fmul(x, b.constFloat(1.01f));
        acc = b.fadd(acc, x);
        emitted += 2;
    }
    b.write(out, b.fadd(acc, self));
    return b.build();
}

namespace {

/** Node record words: {val, aux=val/2, 0, 0}. */
std::vector<Word>
nodeRecords(const std::vector<float> &vals, uint32_t from, uint32_t to)
{
    std::vector<Word> w;
    w.reserve(static_cast<size_t>(to - from) * kIgRecordWords);
    for (uint32_t i = from; i < to; i++) {
        w.push_back(floatToWord(vals[i]));
        w.push_back(floatToWord(vals[i] * 0.5f));
        w.push_back(0);
        w.push_back(0);
    }
    return w;
}

} // namespace

WorkloadResult
runIgraph(const std::string &dataset, const MachineConfig &machineCfg,
          const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride) {
        cfg.inLaneSeparation = opts.separationOverride;
        cfg.crossLaneSeparation = opts.separationOverride;
    }
    Machine m;
    m.init(cfg);

    WorkloadResult res;
    const IgDataset &ds = igDataset(dataset);
    res.workload = ds.name;

    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;

    IgGraph graph = igGenerate(ds, opts.seed);
    Rng rng(opts.seed ^ 0x77);
    std::vector<float> vals(ds.nodes);
    for (auto &v : vals)
        v = rng.uniformf(0.1f, 1.0f);
    std::vector<float> ref = igReferenceUpdate(graph, vals);

    IgStripSizes strips = igStripSizes(ds);
    uint32_t stripNeighbors = indexed ? strips.indexedNeighbors
                                      : strips.baseNeighbors;
    // Whole multiples of the lane count keep the node->lane mapping
    // aligned with the striped record layout across strips.
    uint32_t stripNodes = std::max<uint32_t>(
        g.lanes,
        stripNeighbors / ds.avgDegree / g.lanes * g.lanes);
    res.extra["strip_neighbors"] = stripNeighbors;
    res.extra["strip_nodes"] = stripNodes;

    // --- DRAM layout ---
    const uint64_t nodeAddr = 0;
    const uint64_t outAddr = nodeAddr +
        static_cast<uint64_t>(ds.nodes) * kIgRecordWords;
    const uint64_t replAddr = outAddr +
        static_cast<uint64_t>(ds.nodes) * kIgRecordWords;
    // Pre-replicated per-edge neighbor records (Base, Figure 5a) and
    // the pointer streams (ISRF) share the tail region.
    m.mem().dram().fill(nodeAddr, nodeRecords(vals, 0, ds.nodes));

    // Strip partitioning.
    struct Strip
    {
        uint32_t startNode, endNode;
        std::vector<std::vector<uint32_t>> laneEdges;  // nb ids per lane
        std::vector<uint32_t> extIds;                  // out-of-strip
        std::unordered_map<uint32_t, uint32_t> extIndex;
    };
    std::vector<Strip> stripList;
    for (uint32_t start = 0; start < ds.nodes; start += stripNodes) {
        Strip s;
        s.startNode = start;
        s.endNode = std::min(ds.nodes, start + stripNodes);
        s.laneEdges.resize(g.lanes);
        for (uint32_t i = s.startNode; i < s.endNode; i++) {
            uint32_t lane = i % g.lanes;
            for (uint32_t nb : graph.adj[i]) {
                s.laneEdges[lane].push_back(nb);
                if ((nb < s.startNode || nb >= s.endNode) &&
                        !s.extIndex.count(nb)) {
                    s.extIndex[nb] =
                        static_cast<uint32_t>(s.extIds.size());
                    s.extIds.push_back(nb);
                }
            }
        }
        stripList.push_back(std::move(s));
    }
    uint32_t maxExt = 0;
    uint64_t maxStripEdges = 0;
    for (const auto &s : stripList) {
        maxExt = std::max(maxExt,
                          static_cast<uint32_t>(s.extIds.size()));
        uint64_t e = 0;
        for (const auto &le : s.laneEdges)
            e += le.size();
        maxStripEdges = std::max(maxStripEdges, e);
    }

    // Pre-replicated record array for Base: per strip, lane-major edge
    // order. Also the ISRF pointer streams. Functional contents only
    // matter for the Base replicated records (consumed as stream data).
    uint64_t cursor = replAddr;
    std::vector<uint64_t> stripStreamAddr(stripList.size());
    for (size_t si = 0; si < stripList.size(); si++) {
        stripStreamAddr[si] = cursor;
        std::vector<Word> data;
        for (const auto &laneList : stripList[si].laneEdges) {
            for (uint32_t nb : laneList) {
                if (indexed) {
                    data.push_back(nb);
                } else {
                    data.push_back(floatToWord(vals[nb]));
                    data.push_back(floatToWord(vals[nb] * 0.5f));
                    data.push_back(0);
                    data.push_back(0);
                }
            }
        }
        m.mem().dram().fill(cursor, data);
        cursor += data.size();
    }

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    graphs.push_back(std::make_unique<KernelGraph>(
        indexed ? igIdxKernelGraph(ds.fpOpsPerNeighbor)
                : igBaseKernelGraph(ds.fpOpsPerNeighbor)));
    const KernelGraph *kg = graphs[0].get();

    StreamProgram prog(m);
    uint64_t nodeSlotWords =
        (static_cast<uint64_t>(stripNodes) + maxExt) * kIgRecordWords;
    // Cross-lane reads fetch the 2-word (value, aux) head of each
    // 4-word record: record index = 2 * node record index.
    SlotId nodesInA = prog.addStream("nodesInA", nodeSlotWords,
        StreamLayout::Striped, StreamDir::In, indexed, indexed, 2);
    SlotId nodesInB = prog.addStream("nodesInB", nodeSlotWords,
        StreamLayout::Striped, StreamDir::In, indexed, indexed, 2);
    SlotId outA = prog.addStream("nodesOutA",
        static_cast<uint64_t>(stripNodes) * kIgRecordWords);
    SlotId outB = prog.addStream("nodesOutB",
        static_cast<uint64_t>(stripNodes) * kIgRecordWords);
    uint64_t edgeSlotWords = maxStripEdges *
        (indexed ? 1 : kIgRecordWords);
    SlotId edgesA = prog.addStream("edgesA", edgeSlotWords / g.lanes + 8,
                                   StreamLayout::PerLane);
    SlotId edgesB = prog.addStream("edgesB", edgeSlotWords / g.lanes + 8,
                                   StreamLayout::PerLane);

    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        SlotId nCur = nodesInA, nNxt = nodesInB;
        SlotId oCur = outA, oNxt = outB;
        SlotId eCur = edgesA, eNxt = edgesB;
        for (size_t si = 0; si < stripList.size(); si++) {
            const Strip &s = stripList[si];
            uint32_t nNodes = s.endNode - s.startNode;
            uint64_t stripEdges = 0;
            for (const auto &le : s.laneEdges)
                stripEdges += le.size();

            // Node records for this strip.
            prog.load(nCur,
                      nodeAddr + static_cast<uint64_t>(s.startNode) *
                          kIgRecordWords,
                      cached,
                      static_cast<uint64_t>(nNodes) * kIgRecordWords);
            if (indexed && !s.extIds.empty()) {
                // Condense out-of-strip neighbors behind the strip.
                prog.gather(nCur, nodeAddr, s.extIds, kIgRecordWords,
                            cached,
                            static_cast<uint64_t>(nNodes) *
                                kIgRecordWords);
            }
            // Edge pointer stream (ISRF) or replicated records
            // (Base). The Cache machine gathers the records through
            // the cache, which captures intra- AND inter-strip reuse.
            if (!indexed && cached) {
                std::vector<uint32_t> nbIdx;
                for (const auto &laneList : s.laneEdges)
                    for (uint32_t nb : laneList)
                        nbIdx.push_back(nb);
                prog.gather(eCur, nodeAddr, std::move(nbIdx),
                            kIgRecordWords, true);
            } else {
                prog.load(eCur, stripStreamAddr[si], false,
                          stripEdges * (indexed ? 1 : kIgRecordWords));
            }

            auto inv = newInvocation(m, kg,
                indexed ? std::vector<SlotId>{eCur, nCur, oCur}
                        : std::vector<SlotId>{eCur, nCur, oCur});
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &tr = inv->laneTraces[l];
                uint64_t laneNodes = 0;
                std::vector<Word> outWords;
                for (uint32_t i = s.startNode + l; i < s.endNode;
                        i += g.lanes) {
                    laneNodes++;
                    float acc = 0;
                    for (uint32_t nb : graph.adj[i]) {
                        acc += 0.5f * vals[nb] +
                            0.25f * (vals[nb] * 0.5f);
                        if (indexed) {
                            uint32_t recIdx;
                            if (nb >= s.startNode && nb < s.endNode)
                                recIdx = nb - s.startNode;
                            else
                                recIdx = nNodes + s.extIndex.at(nb);
                            tr.idxReads[1].push_back(recIdx * 2);
                        }
                    }
                    float newVal = 0.3f * vals[i] + 0.7f * acc;
                    outWords.push_back(floatToWord(newVal));
                    outWords.push_back(floatToWord(acc));
                    outWords.push_back(static_cast<Word>(
                        graph.adj[i].size()));
                    outWords.push_back(0);
                }
                tr.iterations = std::max<uint64_t>(
                    s.laneEdges[l].size(),
                    laneNodes * kIgRecordWords);
                tr.seqWrites[2] = std::move(outWords);
            }
            inv->finalize();
            prog.kernel(inv);
            prog.store(oCur,
                       outAddr + static_cast<uint64_t>(s.startNode) *
                           kIgRecordWords,
                       false,
                       static_cast<uint64_t>(nNodes) * kIgRecordWords);
            std::swap(nCur, nNxt);
            std::swap(oCur, oNxt);
            std::swap(eCur, eNxt);
        }
    }

    uint64_t cycles = prog.run();
    harvestResult(res, m, cycles);

    // --- validation: updated node values vs reference ---
    bool ok = true;
    std::vector<Word> got = m.mem().dram().dump(
        outAddr, static_cast<uint64_t>(ds.nodes) * kIgRecordWords);
    for (uint32_t i = 0; i < ds.nodes && ok; i++) {
        float v = wordToFloat(got[static_cast<size_t>(i) *
                                  kIgRecordWords]);
        if (std::abs(v - ref[i]) > 1e-3f * (std::abs(ref[i]) + 1))
            ok = false;
    }
    res.correct = ok;
    res.extra["kernel_ii"] = m.scheduleKernel(*kg).ii;
    res.extra["strips"] = static_cast<double>(stripList.size());
    return res;
}

} // namespace isrf
