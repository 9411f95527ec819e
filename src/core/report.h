/**
 * @file
 * Human-readable machine reports: configuration, execution-time
 * breakdown, SRF/memory statistics, per-kernel bandwidths and an
 * access-energy estimate, rendered as text for logs and tools.
 */
#ifndef ISRF_CORE_REPORT_H
#define ISRF_CORE_REPORT_H

#include <string>

#include "area/energy.h"
#include "core/machine.h"

namespace isrf {

/** Options controlling report contents. */
struct ReportOptions
{
    bool includeConfig = true;
    bool includeBreakdown = true;
    bool includeSrf = true;
    bool includeMemory = true;
    bool includeKernels = true;
    bool includeEnergy = true;
};

/** Render a full post-run report for a machine. */
std::string machineReport(Machine &m, const ReportOptions &opts = {});

/**
 * The same report as machineReport(), as a JSON object (RFC 8259):
 *   { "machine": ..., "cycles": ..., "breakdown": {...}, "srf": {...},
 *     "dram": {...}, "cache": {...}?, "kernels": [...], "energy": {...},
 *     "profile": {...}? }
 * Counter values match the text report exactly; "profile" appears only
 * when the machine was profiled.
 */
std::string machineReportJson(Machine &m, const ReportOptions &opts = {});

/** Collect the machine's access counts for the energy model. */
EnergyCounts energyCounts(Machine &m);

} // namespace isrf

#endif // ISRF_CORE_REPORT_H
