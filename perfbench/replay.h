/**
 * @file
 * Replays of the layers a simulation job runs before its drive loop,
 * timed from outside the simulator.
 *
 * The simulator attributes host time only to the phases its Profiler
 * knows (Run, MachineTick and the component ticks). Machine set-up,
 * workload data generation and modulo scheduling happen inside each
 * workload runner, where the benchmark cannot reach without new
 * instrumentation under src/. Instead the benchmark calls the same
 * public functions again on the job's own inputs and times each call:
 *
 *  - core.init:       building a Machine and Machine::init(cfg), once
 *                     per job config;
 *  - workloads.setup: the public data-generation and reference
 *                     functions (igGenerate, igReferenceUpdate,
 *                     spmvDatasetMatrix, spmvReference, fft2dReference,
 *                     conv5x5Reference, aesCbcEncrypt128);
 *  - kernel.schedule: Machine::scheduleKernel on the workload's public
 *                     kernel graphs, as often as the job invoked each.
 *
 * The inputs are rebuilt with the same Rng streams the workloads use,
 * so a replay does the same work as the job it stands for.
 */
#ifndef ISRF_PERFBENCH_REPLAY_H
#define ISRF_PERFBENCH_REPLAY_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One timed replay call. */
struct LayerSpan
{
    const char *name;  ///< "core.init", "workloads.setup", ...
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

/** What replaying one finished job measured. */
struct Replay
{
    LayerSpan init;
    LayerSpan setup;
    LayerSpan schedule;
    /** Public kernel graphs scheduled (0 for workloads with none). */
    uint64_t graphs = 0;
};

/**
 * Replay the set-up layers of a finished job: `workload` run on `cfg`
 * with input seed `seed`, whose result was `res` (its per-kernel
 * invocation counts size the scheduling replay).
 */
Replay replayJob(const std::string &workload, const isrf::MachineConfig &cfg,
                 uint64_t seed, const isrf::WorkloadResult &res);

/**
 * Resident-set growth in MB from building one Machine and calling
 * init(cfg), measured on the calling thread. Only meaningful while no
 * other thread allocates.
 */
double initRssMb(const isrf::MachineConfig &cfg);

} // namespace perfbench

#endif // ISRF_PERFBENCH_REPLAY_H
