/**
 * @file
 * Synchronous tick engine driving all machine components.
 */
#ifndef ISRF_SIM_ENGINE_H
#define ISRF_SIM_ENGINE_H

#include <functional>
#include <string>
#include <vector>

#include "sim/ticked.h"

namespace isrf {

class Tracer;

/** How a runUntil() loop ended. */
enum class RunStatus : uint8_t {
    Done,       ///< the predicate was satisfied
    Limit,      ///< the cycle limit was hit (likely a model deadlock)
    Failed,     ///< job-level only: the workload threw (never from Engine)
};

const char *runStatusName(RunStatus status);

/**
 * Inverse of runStatusName(). @return false (out untouched) when
 * `name` is not a known status.
 */
bool runStatusFromName(const std::string &name, RunStatus &out);

/** Outcome of a runUntil() call. */
struct RunResult
{
    RunStatus status = RunStatus::Done;
    /** Cycles executed by this call. */
    uint64_t cycles = 0;

    bool done() const { return status == RunStatus::Done; }
};

/**
 * Fixed-order synchronous simulation engine.
 *
 * Components are registered once at machine construction; each call to
 * step() advances the machine one cycle by invoking tick() on every
 * component in order, then postTick() on every component in order.
 * runUntil() steps until a predicate is satisfied or a cycle limit is
 * hit (the limit guards against deadlocked models).
 */
class Engine
{
  public:
    Engine() = default;

    /** Register a component. Not owned; must outlive the engine. */
    void add(Ticked *component);

    /**
     * Unregister every component and reset the clock to zero. The one
     * sanctioned way to rebuild a machine on the same engine:
     * Machine::init calls it before registering itself again, so a
     * re-initialized machine is ticked once per cycle and starts at
     * cycle 0, like a fresh one.
     */
    void clear();

    /**
     * Tracer to dump diagnostics from (the owning machine's), plus a
     * label (machine/config name) tagging those dumps. Without one,
     * runUntil falls back to the process-global Tracer::instance() —
     * the standalone-engine path.
     */
    void
    setTracer(Tracer *tracer, std::string label)
    {
        tracer_ = tracer;
        label_ = std::move(label);
    }
    Tracer *tracer() const { return tracer_; }
    const std::string &label() const { return label_; }

    /** Advance one cycle: tick all, postTick all, now_++. */
    void step();

    /** Advance exactly n cycles. */
    void steps(uint64_t n);

    /**
     * Step until done() returns true or `limit` cycles have run.
     *
     * On hitting the limit the engine dumps the last trace-buffer
     * events to stderr (see sim/trace.h) and returns RunStatus::Limit
     * so callers can assert on deadlock behavior; it never panics.
     *
     * @param done Predicate checked after each cycle.
     * @param limit Max cycles to run (deadlock guard).
     * @return Status and the number of cycles executed by this call.
     */
    RunResult runUntil(const std::function<bool()> &done,
                       uint64_t limit = 1ull << 32);

    /** Trace events dumped to stderr when runUntil hits its limit. */
    static constexpr size_t kDeadlockDumpEvents = 48;

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    // resetClock() was removed: it reset now_ without resetting the
    // components, silently desynchronizing anything that latches
    // absolute cycle numbers (a kernel's start cycle, trace
    // timestamps). Use clear() and re-register instead.

    size_t componentCount() const { return components_.size(); }

  private:
    std::vector<Ticked *> components_;
    /** Subset of components_ whose hasPostTick() is true. */
    std::vector<Ticked *> postTickers_;
    Cycle now_ = 0;
    Tracer *tracer_ = nullptr;
    std::string label_;
};

} // namespace isrf

#endif // ISRF_SIM_ENGINE_H
