#include "workloads/fft.h"

#include <cmath>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

uint32_t
bitReverse(uint32_t v, uint32_t bits)
{
    uint32_t r = 0;
    for (uint32_t i = 0; i < bits; i++)
        r |= ((v >> i) & 1u) << (bits - 1 - i);
    return r;
}

std::vector<Cplx>
fftDifStageRows(const std::vector<Cplx> &a, uint32_t n, uint32_t stage)
{
    std::vector<Cplx> out = a;
    uint32_t rows = static_cast<uint32_t>(a.size()) / n;
    uint32_t blockSize = n >> stage;
    uint32_t half = blockSize / 2;
    for (uint32_t r = 0; r < rows; r++) {
        for (uint32_t b = 0; b < n; b += blockSize) {
            for (uint32_t i = 0; i < half; i++) {
                Cplx u = a[r * n + b + i];
                Cplx v = a[r * n + b + i + half];
                float ang = -2.0f * static_cast<float>(M_PI) *
                    static_cast<float>(i) / static_cast<float>(blockSize);
                Cplx w(std::cos(ang), std::sin(ang));
                out[r * n + b + i] = u + v;
                out[r * n + b + i + half] = (u - v) * w;
            }
        }
    }
    return out;
}

std::vector<Cplx>
fft1d(std::vector<Cplx> a)
{
    uint32_t n = static_cast<uint32_t>(a.size());
    uint32_t bits = 0;
    while ((1u << bits) < n)
        bits++;
    if ((1u << bits) != n)
        panic("fft1d: size %u not a power of two", n);
    for (uint32_t s = 0; s < bits; s++)
        a = fftDifStageRows(a, n, s);
    std::vector<Cplx> out(n);
    for (uint32_t j = 0; j < n; j++)
        out[j] = a[bitReverse(j, bits)];
    return out;
}

std::vector<Cplx>
dft1dReference(const std::vector<Cplx> &a)
{
    size_t n = a.size();
    std::vector<Cplx> out(n);
    for (size_t k = 0; k < n; k++) {
        Cplx acc(0, 0);
        for (size_t j = 0; j < n; j++) {
            double ang = -2.0 * M_PI * static_cast<double>(k * j) /
                static_cast<double>(n);
            acc += a[j] * Cplx(static_cast<float>(std::cos(ang)),
                               static_cast<float>(std::sin(ang)));
        }
        out[k] = acc;
    }
    return out;
}

std::vector<Cplx>
fft2dReference(const std::vector<Cplx> &a, uint32_t n)
{
    // Rows ...
    std::vector<Cplx> m(a.size());
    for (uint32_t r = 0; r < n; r++) {
        std::vector<Cplx> row(a.begin() + r * n, a.begin() + (r + 1) * n);
        std::vector<Cplx> f = fft1d(std::move(row));
        for (uint32_t v = 0; v < n; v++)
            m[r * n + v] = f[v];
    }
    // ... then columns.
    std::vector<Cplx> out(a.size());
    for (uint32_t v = 0; v < n; v++) {
        std::vector<Cplx> col(n);
        for (uint32_t r = 0; r < n; r++)
            col[r] = m[r * n + v];
        std::vector<Cplx> f = fft1d(std::move(col));
        for (uint32_t u = 0; u < n; u++)
            out[u * n + v] = f[u];
    }
    return out;
}

KernelGraph
fftStageSeqGraph()
{
    KernelBuilder b("fft2d");
    auto in = b.seqIn("in");
    auto out = b.seqOut("out");
    auto ar = b.read(in);
    auto ai = b.read(in);
    auto br = b.read(in);
    auto bi = b.read(in);
    auto ur = b.fadd(ar, br);
    auto ui = b.fadd(ai, bi);
    auto tr = b.fsub(ar, br);
    auto ti = b.fsub(ai, bi);
    // Twiddles live in local register files (kernel locality, §2).
    auto wr = b.constFloat(0.92388f);
    auto wi = b.constFloat(-0.38268f);
    auto vr = b.fsub(b.fmul(tr, wr), b.fmul(ti, wi));
    auto vi = b.fadd(b.fmul(tr, wi), b.fmul(ti, wr));
    b.write(out, ur);
    b.write(out, ui);
    b.write(out, vr);
    b.write(out, vi);
    return b.build();
}

KernelGraph
fftStageIdxGraph()
{
    KernelBuilder b("fft2d");
    auto in = b.idxlIn("in");
    auto out = b.seqOut("out");
    // Column-walk index computation from the iteration counter.
    auto it = b.iterIdx();
    auto rowIdx = b.ishr(it, b.constInt(5));
    auto i1 = b.iadd(b.ishl(rowIdx, b.constInt(3)), it);
    auto i2 = b.iadd(i1, b.constInt(8 * 32));
    auto p1 = b.readIdx(in, i1);  // record: (re, im)
    auto p2 = b.readIdx(in, i2);
    // Butterfly on the two complex records. The record read yields one
    // dataflow handle; both words of the record ride the same transfer
    // (the address FIFO's head counter expands it, §4.4).
    auto ur = b.fadd(p1, p2);
    auto ui = b.fadd(p1, p2);
    auto tr = b.fsub(p1, p2);
    auto ti = b.fsub(p1, p2);
    auto wr = b.constFloat(0.92388f);
    auto wi = b.constFloat(-0.38268f);
    auto vr = b.fsub(b.fmul(tr, wr), b.fmul(ti, wi));
    auto vi = b.fadd(b.fmul(tr, wi), b.fmul(ti, wr));
    b.write(out, ur);
    b.write(out, ui);
    b.write(out, vr);
    b.write(out, vi);
    return b.build();
}

namespace {

std::vector<Word>
cplxToWords(const std::vector<Cplx> &c)
{
    std::vector<Word> w(c.size() * 2);
    for (size_t i = 0; i < c.size(); i++) {
        w[2 * i] = floatToWord(c[i].real());
        w[2 * i + 1] = floatToWord(c[i].imag());
    }
    return w;
}

std::vector<Cplx>
wordsToCplx(const std::vector<Word> &w)
{
    std::vector<Cplx> c(w.size() / 2);
    for (size_t i = 0; i < c.size(); i++)
        c[i] = Cplx(wordToFloat(w[2 * i]), wordToFloat(w[2 * i + 1]));
    return c;
}

/** Source columns owned by a lane under m-word striping. */
std::vector<uint32_t>
laneColumns(uint32_t lane, uint32_t n, const SrfGeometry &g)
{
    std::vector<uint32_t> cols;
    uint32_t pairsPerBlock = g.seqWidth / 2;  // complex per m-word block
    for (uint32_t j = 0; j < n; j++) {
        if ((j / pairsPerBlock) % g.lanes == lane)
            cols.push_back(j);
    }
    return cols;
}

/** DIF stage applied to one column vector. */
std::vector<Cplx>
difStageVec(const std::vector<Cplx> &col, uint32_t stage)
{
    return fftDifStageRows(col, static_cast<uint32_t>(col.size()), stage);
}

} // namespace

WorkloadResult
runFft2d(const MachineConfig &cfg, const WorkloadOptions &opts)
{
    return runFft2dSized(cfg, opts, 64);  // the paper's 64x64 array
}

WorkloadResult
runFft2dSized(const MachineConfig &machineCfg, const WorkloadOptions &opts,
              uint32_t n)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);

    WorkloadResult res;
    res.workload = "FFT 2D";

    uint32_t bits = 0;
    while ((1u << bits) < n)
        bits++;
    if ((1u << bits) != n)
        fatal("runFft2d: n=%u is not a power of two", n);
    if ((2 * n) % (cfg.srf.lanes * cfg.srf.seqWidth) != 0)
        fatal("runFft2d: rows of %u complex values do not tile the "
              "lane stripe", n);
    if (static_cast<uint64_t>(n) * n * 4 + 2048 > cfg.srf.totalWords())
        fatal("runFft2d: a %ux%u array needs two full SRF buffers; the "
              "benchmark (like the paper's) is not strip-mined", n, n);
    const uint32_t words = n * n * 2;
    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const bool cached = cfg.mem.cacheEnabled;

    // --- input + functional stage-by-stage evaluation ---
    Rng rng(opts.seed);
    std::vector<Cplx> input(n * n);
    for (auto &c : input)
        c = Cplx(rng.uniformf(-1, 1), rng.uniformf(-1, 1));

    std::vector<std::vector<Word>> rowStageOut;  // striped full arrays
    std::vector<Cplx> s = input;
    for (uint32_t st = 0; st < bits; st++) {
        s = fftDifStageRows(s, n, st);
        rowStageOut.push_back(cplxToWords(s));
    }
    // rowFinal[r*n + j] = FFT of row r at frequency bitrev(j).
    const std::vector<Cplx> rowFinal = s;

    const uint64_t inAddr = 0, tmpAddr = words, outAddr = 2 * words;
    m.mem().dram().fill(inAddr, cplxToWords(input));

    KernelGraph seqG = fftStageSeqGraph();
    KernelGraph idxG = fftStageIdxGraph();

    StreamProgram prog(m);
    SlotId A = prog.addStream("arrA", words, StreamLayout::Striped,
                              StreamDir::In, indexed, false, 2);
    SlotId B = prog.addStream("arrB", words, StreamLayout::Striped,
                              StreamDir::In, false, false, 2);
    SlotId C1 = kNoSlot, C2 = kNoSlot;
    if (indexed) {
        C1 = prog.addStream("colA", words / g.lanes,
                            StreamLayout::PerLane, StreamDir::In, false,
                            false, 2);
        C2 = prog.addStream("colB", words / g.lanes,
                            StreamLayout::PerLane, StreamDir::In, false,
                            false, 2);
    }

    // Row-stage invocation builder: in/out striped slots.
    auto rowStage = [&](SlotId in, SlotId out, uint32_t st) {
        auto inv = newInvocation(m, &seqG, {in, out});
        auto laneWords = splitStriped(g, rowStageOut[st]);
        for (uint32_t l = 0; l < g.lanes; l++) {
            inv->laneTraces[l].iterations = laneWords[l].size() / 4;
            inv->laneTraces[l].seqWrites[1] = std::move(laneWords[l]);
        }
        inv->finalize();
        return inv;
    };

    // ---- ISRF column-pass functional data ----
    std::vector<std::vector<std::vector<Cplx>>> laneCols(g.lanes);
    std::vector<std::vector<uint32_t>> laneColIds(g.lanes);
    if (indexed) {
        for (uint32_t l = 0; l < g.lanes; l++) {
            laneColIds[l] = laneColumns(l, n, g);
            for (uint32_t j : laneColIds[l]) {
                std::vector<Cplx> col(n);
                for (uint32_t r = 0; r < n; r++)
                    col[r] = rowFinal[r * n + j];
                laneCols[l].push_back(std::move(col));
            }
        }
    }

    // Record index of element (r, j) within its lane (recordWords=2).
    uint32_t pairsPerBlock = g.seqWidth / 2;
    uint32_t pairsPerLaneRow =
        n / (pairsPerBlock * g.lanes) * pairsPerBlock;
    auto laneRecordOf = [&](uint32_t r, uint32_t j) {
        uint32_t q = (j / pairsPerBlock) / g.lanes;  // lane-local block
        return r * pairsPerLaneRow + q * pairsPerBlock +
            (j % pairsPerBlock);
    };

    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        prog.load(A, inAddr);
        SlotId cur = A, nxt = B;
        for (uint32_t st = 0; st < bits; st++) {
            prog.kernel(rowStage(cur, nxt, st));
            std::swap(cur, nxt);
        }
        // Row-pass result is now in `cur`.

        if (!indexed) {
            // Rotate through memory: store + column-major gather with
            // the bit-reversal folded into the gather indices.
            prog.store(cur, tmpAddr, cached);
            std::vector<uint32_t> gidx(n * n);
            for (uint32_t v = 0; v < n; v++)
                for (uint32_t r = 0; r < n; r++)
                    gidx[v * n + r] = r * n + bitReverse(v, bits);
            prog.gather(nxt, tmpAddr, gidx, 2, cached);

            // Column pass: P's rows (length n) through all stages.
            std::vector<Cplx> p(n * n);
            for (uint32_t v = 0; v < n; v++)
                for (uint32_t r = 0; r < n; r++)
                    p[v * n + r] = rowFinal[r * n + bitReverse(v, bits)];
            SlotId c = nxt, x = cur;
            for (uint32_t st = 0; st < bits; st++) {
                p = fftDifStageRows(p, n, st);
                auto inv = newInvocation(m, &seqG, {c, x});
                auto laneWords = splitStriped(g, cplxToWords(p));
                for (uint32_t l = 0; l < g.lanes; l++) {
                    inv->laneTraces[l].iterations =
                        laneWords[l].size() / 4;
                    inv->laneTraces[l].seqWrites[1] =
                        std::move(laneWords[l]);
                }
                inv->finalize();
                prog.kernel(inv);
                std::swap(c, x);
            }
            // Final data in `c`; scatter to natural (u, v) order.
            std::vector<uint32_t> sidx(n * n);
            for (uint32_t v = 0; v < n; v++)
                for (uint32_t t = 0; t < n; t++)
                    sidx[v * n + t] = bitReverse(t, bits) * n + v;
            prog.scatter(c, outAddr, sidx, 2, false);
        } else {
            // First column stage: in-lane indexed reads of `cur`.
            auto inv1 = newInvocation(m, &idxG, {cur, C1});
            std::vector<std::vector<std::vector<Cplx>>> stageCols =
                laneCols;
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &t = inv1->laneTraces[l];
                std::vector<Word> outWords;
                for (size_t ci = 0; ci < stageCols[l].size(); ci++) {
                    uint32_t j = laneColIds[l][ci];
                    auto after = difStageVec(stageCols[l][ci], 0);
                    uint32_t half = n / 2;
                    for (uint32_t i = 0; i < half; i++) {
                        t.iterations++;
                        t.idxReads[0].push_back(laneRecordOf(i, j));
                        t.idxReads[0].push_back(
                            laneRecordOf(i + half, j));
                    }
                    stageCols[l][ci] = after;
                    auto w = cplxToWords(stageCols[l][ci]);
                    outWords.insert(outWords.end(), w.begin(), w.end());
                }
                t.seqWrites[1] = std::move(outWords);
            }
            inv1->finalize();
            prog.kernel(inv1);

            // Remaining stages: per-lane sequential streams C1 <-> C2.
            SlotId c = C1, x = C2;
            for (uint32_t st = 1; st < bits; st++) {
                auto inv = newInvocation(m, &seqG, {c, x});
                for (uint32_t l = 0; l < g.lanes; l++) {
                    auto &t = inv->laneTraces[l];
                    std::vector<Word> outWords;
                    for (auto &col : stageCols[l]) {
                        col = difStageVec(col, st);
                        auto w = cplxToWords(col);
                        outWords.insert(outWords.end(), w.begin(),
                                        w.end());
                    }
                    t.iterations = outWords.size() / 4;
                    t.seqWrites[1] = std::move(outWords);
                }
                inv->finalize();
                prog.kernel(inv);
                std::swap(c, x);
            }
            // Final data in `c` (PerLane); scatter to natural order.
            std::vector<uint32_t> sidx(n * n);
            uint32_t rec = 0;
            for (uint32_t l = 0; l < g.lanes; l++) {
                for (size_t ci = 0; ci < laneColIds[l].size(); ci++) {
                    uint32_t v = bitReverse(laneColIds[l][ci], bits);
                    for (uint32_t t2 = 0; t2 < n; t2++)
                        sidx[rec++] = bitReverse(t2, bits) * n + v;
                }
            }
            prog.scatter(c, outAddr, sidx, 2, false);
        }
    }

    uint64_t cycles = prog.run();
    harvestResult(res, m, cycles);

    // --- validation against the independent reference ---
    std::vector<Cplx> got =
        wordsToCplx(m.mem().dram().dump(outAddr, words));
    std::vector<Cplx> ref = fft2dReference(input, n);
    bool ok = true;
    for (size_t i = 0; i < ref.size() && ok; i++) {
        float err = std::abs(got[i] - ref[i]);
        float mag = std::abs(ref[i]) + 1.0f;
        if (err > 2e-3f * mag)
            ok = false;
    }
    res.correct = ok;
    res.extra["stage_ii_seq"] = m.scheduleKernel(seqG).ii;
    if (indexed)
        res.extra["stage_ii_idx"] = m.scheduleKernel(idxG).ii;
    return res;
}

} // namespace isrf
