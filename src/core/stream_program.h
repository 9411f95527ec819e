/**
 * @file
 * Stream-level programs: the software side of the stream programming
 * model (§2). A StreamProgram is a partially ordered set of stream
 * operations — memory loads/stores/gathers/scatters and kernel
 * invocations — over SRF-resident streams. The runtime issues
 * operations out of order as their stream dependencies resolve, which
 * yields the software-pipelined strip-mined execution the paper assumes
 * (memory transfers for strip i+1 overlap kernels on strip i).
 */
#ifndef ISRF_CORE_STREAM_PROGRAM_H
#define ISRF_CORE_STREAM_PROGRAM_H

#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"

namespace isrf {

/** Identifies an operation within a StreamProgram. */
using ProgOpId = int32_t;

/**
 * Builds and executes one stream program on a Machine.
 *
 * Typical use:
 * @code
 *   StreamProgram prog(machine);
 *   SlotId in = prog.addStream("in", n, StreamLayout::Striped);
 *   SlotId out = prog.addStream("out", n, StreamLayout::Striped);
 *   prog.load(in, memAddr);
 *   prog.kernel(buildInvocation(...));
 *   prog.store(out, memAddr2);
 *   prog.run();
 * @endcode
 *
 * Dependencies are inferred from stream usage (RAW, WAR, WAW on SRF
 * slots); explicit extra edges can be added with dependsOn().
 *
 * The destructor closes the program's slots and frees its SRF words,
 * so programs may run one after another on one Machine. Programs that
 * share a Machine must be destroyed in reverse order of construction.
 */
class StreamProgram
{
  public:
    explicit StreamProgram(Machine &m);
    ~StreamProgram();

    StreamProgram(const StreamProgram &) = delete;
    StreamProgram &operator=(const StreamProgram &) = delete;

    // ------------------------------------------------------------------
    // Stream declaration
    // ------------------------------------------------------------------

    /**
     * Allocate SRF space and open a slot for a stream.
     *
     * @param totalWords Total stream words (Striped) or per-lane words
     *        (PerLane).
     * @param indexed Opens the slot for indexed access.
     * @param crossLane Cross-lane indexed access (implies indexed).
     * @param dir Direction as seen by kernels.
     * @param readWrite In-lane indexed read-write slot (histogram-style
     *        in-place update; implies indexed, in-lane only).
     */
    SlotId addStream(const std::string &name, uint64_t totalWords,
                     StreamLayout layout = StreamLayout::Striped,
                     StreamDir dir = StreamDir::In, bool indexed = false,
                     bool crossLane = false, uint32_t recordWords = 1,
                     std::vector<uint32_t> perLaneLen = {},
                     bool readWrite = false);

    /**
     * Open an additional slot over the SAME SRF region as `orig`
     * (independent stream buffers / address FIFOs, shared storage).
     * Used when a kernel needs several indexed streams into one data
     * structure. Dependency inference treats the alias as a separate
     * stream: add explicit dependsOn() edges against the original's
     * producers/consumers.
     */
    SlotId addStreamAlias(const std::string &name, SlotId orig);

    /**
     * Like addStreamAlias, but overriding the cross-lane property of
     * the view. Lets one SRF region be read both through the in-lane
     * indexed ports (lane-local indices) and the cross-lane switch
     * (global record indices) — the SpMV x-window split.
     */
    SlotId addStreamAlias(const std::string &name, SlotId orig,
                          bool crossLane);

    /** Functionally pre-load a stream's SRF region (tables, tests). */
    void fillStream(SlotId slot, const std::vector<Word> &data);

    /** Functionally read back a stream's SRF region. */
    std::vector<Word> dumpStream(SlotId slot) const;

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    ProgOpId load(SlotId dst, uint64_t memBase, bool cached = false,
                  uint64_t lengthWords = 0);
    ProgOpId store(SlotId src, uint64_t memBase, bool cached = false,
                   uint64_t lengthWords = 0);
    ProgOpId gather(SlotId dst, uint64_t memBase,
                    std::vector<uint32_t> indices, uint32_t recordWords = 1,
                    bool cached = false, uint64_t dstOffsetWords = 0);
    ProgOpId scatter(SlotId src, uint64_t memBase,
                     std::vector<uint32_t> indices,
                     uint32_t recordWords = 1, bool cached = false);
    ProgOpId kernel(std::shared_ptr<KernelInvocation> inv);

    /** Add an explicit ordering edge: `after` waits for `before`. */
    void dependsOn(ProgOpId after, ProgOpId before);

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /**
     * Run to completion (all ops done, memory system idle), or until
     * the engine's CancelToken (see Engine::setCancel) requests
     * cancellation / expires its deadline.
     * How the run ended is reported by lastStatus(); non-Done runs
     * leave the machine at a consistent cycle boundary.
     * @return total machine cycles elapsed during this call.
     */
    uint64_t run(uint64_t maxCycles = 1ull << 30);

    /**
     * How the most recent run() ended: Done, TimedOut (deadline) or
     * Cancelled. Done before any run().
     */
    RunStatus lastStatus() const { return status_; }

    /** Number of operations recorded. */
    size_t opCount() const { return ops_.size(); }

    Machine &machine() { return machine_; }

  private:
    struct Op
    {
        enum class Kind { Mem, Kernel } kind;
        MemOp mem;
        std::shared_ptr<KernelInvocation> inv;
        std::vector<SlotId> readsSlots;
        std::vector<SlotId> writesSlots;
        std::vector<ProgOpId> deps;
        // runtime state
        bool issued = false;
        bool completed = false;
        MemOpId memId = 0;
    };

    ProgOpId addMemOp(MemOp op, std::vector<SlotId> reads,
                      std::vector<SlotId> writes);
    void inferDeps(Op &op);

    /**
     * Derive the scoreboard below from `deps` and the issued/completed
     * flags: dependency counters, the dependents table, the ready and
     * in-flight lists. Runs at run() start.
     */
    void buildScoreboard();
    /** Mark an op completed and release its dependents. */
    void complete(ProgOpId id);
    /** Retire every in-flight mem op the memory system reports done. */
    void pollMemOps();
    /** Retire the active kernel; poll mem ops if one has completed. */
    void updateCompletion();
    /** True when a pass over the ready list could issue something. */
    bool issueDue() const;
    /** Issue ready ops in index order (one kernel at a time). */
    void tryIssue();

    Machine &machine_;
    /** SrfAllocator scope holding this program's streams. */
    size_t allocScope_;
    std::vector<Op> ops_;
    /** Per-slot last writer / readers since last write (dep inference). */
    std::vector<ProgOpId> lastWriter_;
    std::vector<std::vector<ProgOpId>> readersSinceWrite_;
    std::vector<SlotId> openedSlots_;
    ProgOpId activeKernelOp_ = -1;
    RunStatus status_ = RunStatus::Done;

    // Issue scoreboard (DESIGN.md §2, row 9), rebuilt by
    // buildScoreboard().
    /** Per op: deps not yet completed (counted per edge). */
    std::vector<uint32_t> pendingDeps_;
    /** Op d's dependents are dependents_[dependentsBegin_[d] ..
     *  dependentsBegin_[d + 1]). */
    std::vector<uint32_t> dependentsBegin_;
    std::vector<ProgOpId> dependents_;
    /** Unissued ops with every dep completed; sorted up to
     *  readySorted_, newly released ops appended after it. */
    std::vector<ProgOpId> ready_;
    size_t readySorted_ = 0;
    /** Issued, not yet completed mem ops. */
    std::vector<ProgOpId> inFlightMem_;
    size_t completedOps_ = 0;
    /** MemorySystem::lastCompletion() at the last in-flight poll. */
    Cycle memCompletionSeen_ = kNoEvent;
};

} // namespace isrf

#endif // ISRF_CORE_STREAM_PROGRAM_H
