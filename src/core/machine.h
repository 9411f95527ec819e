/**
 * @file
 * The stream processor: assembles SRF, clusters, networks and the
 * memory system, orchestrates their per-cycle protocol, manages kernel
 * invocations, and classifies every lane-cycle into the Figure 12
 * execution-time categories.
 */
#ifndef ISRF_CORE_MACHINE_H
#define ISRF_CORE_MACHINE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/breakdown.h"
#include "core/config.h"
#include "core/stream.h"
#include "mem/memory_system.h"
#include "sim/engine.h"
#include "sim/profiler.h"
#include "sim/trace.h"
#include "util/random.h"

namespace isrf {

/** Sustained SRF bandwidth accounting for one kernel (Figure 13). */
struct KernelBwRecord
{
    uint64_t laneCycles = 0;
    uint64_t seqWords = 0;
    uint64_t inLaneWords = 0;
    uint64_t crossWords = 0;
    uint64_t invocations = 0;

    double
    seqPerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(seqWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
    double
    inLanePerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(inLaneWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
    double
    crossPerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(crossWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
};

/**
 * A complete simulated stream processor (one Table 2 configuration).
 */
class Machine : public Ticked
{
  public:
    Machine() = default;
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    void init(const MachineConfig &cfg);

    const MachineConfig &config() const { return cfg_; }
    Srf &srf() { return srf_; }
    MemorySystem &mem() { return mem_; }
    Crossbar &dataNet() { return dataNet_; }
    SrfAllocator &allocator() { return alloc_; }
    ModuloScheduler &scheduler() { return scheduler_; }
    Engine &engine() { return engine_; }
    Cycle now() const { return engine_.now(); }
    uint32_t lanes() const { return cfg_.srf.lanes; }

    /**
     * This machine's private event tracer. Every component of this
     * machine records here (never into the global Tracer::instance()),
     * so concurrent machines in one process stay fully isolated.
     * Configured from cfg.traceSpec / cfg.traceCapacity at init.
     */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * This machine's private host-time profiler (same isolation rule
     * as the tracer: nothing in this machine touches the global
     * Profiler::instance()). Configured from cfg.profileEnabled /
     * cfg.profileStride at init; merged into the global aggregate at
     * workload harvest.
     */
    Profiler &profiler() { return profiler_; }
    const Profiler &profiler() const { return profiler_; }

    /**
     * Schedule a kernel with this machine's separation settings
     * (cross-lane separation if the kernel has a cross-lane stream).
     */
    KernelSchedule scheduleKernel(const KernelGraph &graph);

    /**
     * Launch a kernel invocation across all lanes. The machine rewinds
     * all bound slots, binds every cluster, flushes output slots after
     * the last lane finishes, and clears the active state once flushes
     * and indexed writes have drained. One kernel runs at a time.
     */
    void launchKernel(std::shared_ptr<KernelInvocation> inv);

    bool kernelActive() const { return active_ != nullptr; }

    /** Advance one machine cycle (also registered with the engine). */
    void tick(Cycle now) override;
    std::string tickedName() const override { return "machine"; }

    /** Step the engine n cycles. */
    void step(uint64_t n = 1) { engine_.steps(n); }

    /** Step until pred() or the cycle limit; never panics. */
    RunResult
    runUntil(const std::function<bool()> &pred,
             uint64_t limit = 1ull << 30)
    {
        RunResult r = engine_.runUntil(pred, limit);
        noteRunStatus(r.status);
        return r;
    }

    /**
     * How the most recent drive loop over this machine ended (set by
     * runUntil() and StreamProgram::run); surfaces in machineReport /
     * machineReportJson when not Done. Done before any run.
     */
    RunStatus lastRunStatus() const { return lastRunStatus_; }
    void noteRunStatus(RunStatus s) { lastRunStatus_ = s; }

    const TimeBreakdown &breakdown() const { return breakdown_; }
    const std::map<std::string, KernelBwRecord> &kernelBw() const
    {
        return kernelBw_;
    }

    /** Zero breakdown/bandwidth/DRAM statistics (not machine state). */
    void resetStats();

  private:
    void finishKernelIfDone(Cycle now);

    MachineConfig cfg_;
    Tracer tracer_;
    Profiler profiler_;
    Engine engine_;
    Crossbar dataNet_;
    Srf srf_;
    MemorySystem mem_;
    std::vector<Cluster> clusters_;
    SrfAllocator alloc_;
    ModuloScheduler scheduler_;
    Rng rng_;

    RunStatus lastRunStatus_ = RunStatus::Done;

    std::shared_ptr<KernelInvocation> active_;
    std::vector<SlotId> activeOutputs_;
    std::vector<SlotId> activeIdxWriteSlots_;
    bool flushing_ = false;
    Cycle kernelStart_ = 0;
    uint64_t bwSeq0_ = 0, bwIn0_ = 0, bwCross0_ = 0;
    uint16_t traceCh_ = 0;
    const char *activeKernelName_ = nullptr;  ///< interned, for spans

    TimeBreakdown breakdown_;
    std::map<std::string, KernelBwRecord> kernelBw_;
};

} // namespace isrf

#endif // ISRF_CORE_MACHINE_H
