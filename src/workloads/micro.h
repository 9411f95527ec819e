/**
 * @file
 * Microbenchmarks for the parameter studies of §5.4 (Figures 17/18).
 *
 * Figure 17: sustained *in-lane* indexed throughput as a function of
 * the number of sub-arrays per bank and the address-FIFO size, driven
 * by 4 random single-word reads per cycle per cluster (issued as a
 * bundle across 4 indexed streams, as a VLIW cluster would).
 *
 * Figure 18: sustained *cross-lane* indexed throughput as a function
 * of the SRF-side network ports per bank and the fraction of cycles
 * occupied by unrelated statically scheduled inter-cluster traffic,
 * driven by 1 random cross-lane read + 3 sequential stream accesses
 * per cycle per cluster.
 */
#ifndef ISRF_WORKLOADS_MICRO_H
#define ISRF_WORKLOADS_MICRO_H

#include <cstdint>

#include "net/crossbar.h"

namespace isrf {

/** Figure 17 driver parameters. */
struct InLaneMicroParams
{
    uint32_t subArrays = 4;
    uint32_t fifoSize = 8;
    uint32_t streams = 4;     ///< random reads issued per cycle
    uint32_t cycles = 20000;
    uint64_t seed = 1;
};

/** Sustained in-lane indexed throughput (words/cycle/lane). */
double inLaneRandomThroughput(const InLaneMicroParams &p);

/** Figure 18 driver parameters. */
struct CrossLaneMicroParams
{
    uint32_t netPortsPerBank = 1;
    double commOccupancy = 0.0;  ///< fraction of cycles, 0..0.8
    uint32_t seqStreams = 3;     ///< sequential accesses per cycle
    uint32_t cycles = 20000;
    uint64_t seed = 1;
    /** Network topology (§7 sparse-interconnect ablation). */
    NetTopology topology = NetTopology::Crossbar;
};

/** Sustained cross-lane indexed throughput (words/cycle/lane). */
double crossLaneRandomThroughput(const CrossLaneMicroParams &p);

} // namespace isrf

#endif // ISRF_WORKLOADS_MICRO_H
