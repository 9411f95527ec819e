/**
 * @file
 * Shared helpers for machine-level tests: small kernels and invocation
 * builders.
 */
#ifndef ISRF_TESTS_TEST_HELPERS_H
#define ISRF_TESTS_TEST_HELPERS_H

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "kernel/builder.h"

namespace isrf {
namespace test {

/** copy: out[i] = in[i] * 1 (one ALU op to keep the loop non-trivial). */
inline KernelGraph
makeCopyKernel()
{
    KernelBuilder b("copy");
    auto in = b.seqIn("in");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    b.write(out, b.iadd(x, b.constInt(0)));
    return b.build();
}

/** lookup: out[i] = table[in[i] & mask] (in-lane indexed). */
inline KernelGraph
makeLookupKernel()
{
    KernelBuilder b("lookup");
    auto in = b.seqIn("in");
    auto lut = b.idxlIn("lut");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    auto v = b.readIdx(lut, x);
    b.write(out, v);
    return b.build();
}

/** crossLookup: out[i] = table[in[i]] over a cross-lane table. */
inline KernelGraph
makeCrossLookupKernel()
{
    KernelBuilder b("crossLookup");
    auto in = b.seqIn("in");
    auto lut = b.idxIn("lut");
    auto out = b.seqOut("out");
    b.write(out, b.readIdx(lut, b.read(in)));
    return b.build();
}

/**
 * Build a copy-kernel invocation: input slot striped data is echoed to
 * the output slot. The functional trace (per-lane output words) is the
 * lane's share of the input.
 */
inline std::shared_ptr<KernelInvocation>
makeCopyInvocation(Machine &m, const KernelGraph *graph, SlotId in,
                   SlotId out, const std::vector<Word> &inputData)
{
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = graph;
    inv->sched = m.scheduleKernel(*graph);
    inv->slots = {in, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &g = m.config().srf;
    for (size_t e = 0; e < inputData.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / g.seqWidth) % g.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.seqWrites.resize(2);
        t.seqWrites[1].push_back(inputData[e]);
    }
    for (auto &t : inv->laneTraces)
        t.seqWrites.resize(2);
    inv->finalize();
    return inv;
}

} // namespace test
} // namespace isrf

#endif // ISRF_TESTS_TEST_HELPERS_H
