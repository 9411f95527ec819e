#include "replay.h"

#include <array>
#include <complex>
#include <fstream>
#include <memory>
#include <unistd.h>

#include "core/machine.h"
#include "util/random.h"
#include "workloads/fft.h"
#include "workloads/filter.h"
#include "workloads/igraph.h"
#include "workloads/rijndael.h"
#include "workloads/sort.h"
#include "workloads/sparse.h"

namespace perfbench {

using namespace isrf;

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Rebuild the job's inputs and call the workload's public generation
 * and reference functions on them. Each branch mirrors the Rng stream
 * of the matching runner in src/workloads/. Returns a value derived
 * from the outputs so the calls cannot be dropped.
 */
uint64_t
runSetup(const std::string &workload, const MachineConfig &cfg,
         uint64_t seed)
{
    if (startsWith(workload, "IG_")) {
        const IgDataset &ds = igDataset(workload);
        IgGraph graph = igGenerate(ds, seed);
        Rng rng(seed ^ 0x77);
        std::vector<float> vals(ds.nodes);
        for (auto &v : vals)
            v = rng.uniformf(0.1f, 1.0f);
        return graph.edges() + igReferenceUpdate(graph, vals).size();
    }
    if (startsWith(workload, "SpMV ")) {
        CsrMatrix csr = spmvDatasetMatrix(workload, seed);
        Rng rng(seed ^ 0x5bull);
        std::vector<float> x(csr.cols);
        for (auto &v : x)
            v = rng.uniformf(0.1f, 1.0f);
        return csr.nnz() + spmvReference(csr, x).size();
    }
    if (workload == "FFT 2D") {
        const uint32_t n = 64;  // runFft2d's array size
        Rng rng(seed);
        std::vector<Cplx> input(n * n);
        for (auto &c : input)
            c = Cplx(rng.uniformf(-1, 1), rng.uniformf(-1, 1));
        return fft2dReference(input, n).size();
    }
    if (workload == "Filter") {
        const uint32_t n = FilterParams().size;
        Rng rng(seed);
        std::vector<float> img(static_cast<size_t>(n) * n);
        for (auto &p : img)
            p = rng.uniformf(0, 1);
        return conv5x5Reference(img, n).size();
    }
    if (workload == "Rijndael") {
        const uint32_t blocks = RijndaelParams().blocksPerLane;
        Rng rng(seed);
        std::array<uint8_t, 16> key{};
        for (auto &k : key)
            k = static_cast<uint8_t>(rng.below(256));
        uint64_t out = 0;
        std::vector<std::vector<std::array<uint8_t, 16>>> plain(
            cfg.srf.lanes);
        for (auto &lane : plain) {
            for (uint32_t b = 0; b < blocks; b++) {
                std::array<uint8_t, 16> p{};
                for (auto &x : p)
                    x = static_cast<uint8_t>(rng.below(256));
                lane.push_back(p);
            }
        }
        for (uint32_t l = 0; l < cfg.srf.lanes; l++) {
            std::array<uint8_t, 16> iv{};
            for (int i = 0; i < 16; i++)
                iv[i] = static_cast<uint8_t>(l * 16 + i);
            out += aesCbcEncrypt128(key, iv, plain[l]).size();
        }
        return out;
    }
    return 0;  // Sort, Stencil *, Histogram: no public set-up functions
}

/** The workload's public kernel graphs for this machine. */
std::vector<KernelGraph>
publicGraphs(const std::string &workload, const MachineConfig &cfg)
{
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    std::vector<KernelGraph> graphs;
    if (startsWith(workload, "IG_")) {
        uint32_t fpOps = igDataset(workload).fpOpsPerNeighbor;
        graphs.push_back(indexed ? igIdxKernelGraph(fpOps)
                                 : igBaseKernelGraph(fpOps));
    } else if (workload == "FFT 2D") {
        graphs.push_back(fftStageSeqGraph());
        graphs.push_back(fftStageIdxGraph());
    } else if (workload == "Filter") {
        graphs.push_back(indexed ? filterIdxGraph() : filterSpGraph());
    } else if (workload == "Rijndael") {
        if (indexed) {
            graphs.push_back(rijndaelRoundIdxGraph());
        } else {
            graphs.push_back(rijndaelRoundBaseGraph(true, false));
            graphs.push_back(rijndaelRoundBaseGraph(false, false));
            graphs.push_back(rijndaelRoundBaseGraph(false, true));
        }
    } else if (workload == "Sort") {
        if (indexed) {
            graphs.push_back(sortLocalIdxGraph());
            graphs.push_back(sortGlobalIdxGraph());
        } else {
            graphs.push_back(sortCondStreamGraph("sort1"));
            graphs.push_back(sortCondStreamGraph("sort2"));
        }
    }
    return graphs;
}

LayerSpan
timed(const char *name, const auto &fn)
{
    LayerSpan s{name, Clock::now(), {}};
    fn();
    s.end = Clock::now();
    return s;
}

/** Resident set of this process in bytes (/proc/self/statm). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

} // namespace

Replay
replayJob(const std::string &workload, const MachineConfig &cfg,
          uint64_t seed, const WorkloadResult &res)
{
    Replay r;
    // A runner builds its Machine and then calls init(); the default
    // constructor already allocates and zero-fills DRAM, so both count.
    std::unique_ptr<Machine> m;
    r.init = timed("core.init", [&] {
        m = std::make_unique<Machine>();
        m->init(cfg);
    });

    volatile uint64_t sink = 0;
    r.setup = timed("workloads.setup",
                    [&] { sink = runSetup(workload, cfg, seed); });

    std::vector<KernelGraph> graphs = publicGraphs(workload, cfg);
    r.schedule = timed("kernel.schedule", [&] {
        for (const KernelGraph &g : graphs) {
            auto it = res.kernelBw.find(g.name());
            if (it == res.kernelBw.end())
                continue;  // built by the runner but never launched
            for (uint64_t i = 0; i < it->second.invocations; i++)
                sink = sink + m->scheduleKernel(g).ii;
            r.graphs++;
        }
    });
    return r;
}

double
initRssMb(const MachineConfig &cfg)
{
    uint64_t before = residentBytes();
    auto m = std::make_unique<Machine>();
    m->init(cfg);
    uint64_t after = residentBytes();
    return after > before
        ? static_cast<double>(after - before) / (1024.0 * 1024.0)
        : 0.0;
}

} // namespace perfbench
