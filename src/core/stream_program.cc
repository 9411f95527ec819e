#include "core/stream_program.h"

#include <algorithm>

#include "util/log.h"

namespace isrf {

StreamProgram::StreamProgram(Machine &m)
    : machine_(m), allocScope_(m.allocator().openScope())
{
    uint32_t n = m.config().srf.maxStreamSlots;
    lastWriter_.assign(n, -1);
    readersSinceWrite_.assign(n, {});
}

StreamProgram::~StreamProgram()
{
    for (SlotId id : openedSlots_)
        machine_.srf().closeSlot(id);
    if (!machine_.allocator().closeScope(allocScope_))
        panic("StreamProgram destroyed out of order: programs on one "
              "Machine must be destroyed in reverse order of "
              "construction, and before the Machine is re-initialised");
}

SlotId
StreamProgram::addStream(const std::string &name, uint64_t totalWords,
                         StreamLayout layout, StreamDir dir, bool indexed,
                         bool crossLane, uint32_t recordWords,
                         std::vector<uint32_t> perLaneLen, bool readWrite)
{
    uint32_t base = machine_.allocator().alloc(totalWords, layout);
    if (base == SrfAllocator::kAllocFail)
        fatal("StreamProgram: SRF allocation failed for stream '%s' "
              "(%llu words, %llu free per lane)", name.c_str(),
              static_cast<unsigned long long>(totalWords),
              static_cast<unsigned long long>(
                  machine_.allocator().freeWords()));
    SlotConfig cfg;
    cfg.dir = dir;
    // Binding properties are retargeted per kernel launch; what is
    // declared here only matters for direct Srf-level use.
    cfg.indexed = (indexed || readWrite) && machine_.config().srfMode !=
        SrfMode::SequentialOnly;
    cfg.crossLane = crossLane && cfg.indexed && !readWrite;
    cfg.readWrite = readWrite && cfg.indexed;
    cfg.layout = layout;
    cfg.base = base;
    cfg.lengthWords = static_cast<uint32_t>(totalWords);
    cfg.perLaneLen = std::move(perLaneLen);
    cfg.recordWords = recordWords;
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

SlotId
StreamProgram::addStreamAlias(const std::string &name, SlotId orig)
{
    (void)name;
    SlotConfig cfg = machine_.srf().slotConfig(orig);
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

SlotId
StreamProgram::addStreamAlias(const std::string &name, SlotId orig,
                              bool crossLane)
{
    (void)name;
    SlotConfig cfg = machine_.srf().slotConfig(orig);
    cfg.crossLane = crossLane && cfg.indexed;
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

void
StreamProgram::fillStream(SlotId slot, const std::vector<Word> &data)
{
    machine_.srf().fillSlot(slot, data);
}

std::vector<Word>
StreamProgram::dumpStream(SlotId slot) const
{
    return machine_.srf().dumpSlot(slot);
}

ProgOpId
StreamProgram::addMemOp(MemOp op, std::vector<SlotId> reads,
                        std::vector<SlotId> writes)
{
    Op o;
    o.kind = Op::Kind::Mem;
    o.mem = std::move(op);
    o.readsSlots = std::move(reads);
    o.writesSlots = std::move(writes);
    inferDeps(o);
    ops_.push_back(std::move(o));
    return static_cast<ProgOpId>(ops_.size() - 1);
}

ProgOpId
StreamProgram::load(SlotId dst, uint64_t memBase, bool cached,
                    uint64_t lengthWords)
{
    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = memBase;
    op.srfSlot = dst;
    op.lengthWords = lengthWords;
    op.cached = cached;
    return addMemOp(std::move(op), {}, {dst});
}

ProgOpId
StreamProgram::store(SlotId src, uint64_t memBase, bool cached,
                     uint64_t lengthWords)
{
    MemOp op;
    op.kind = MemOpKind::Store;
    op.memBase = memBase;
    op.srfSlot = src;
    op.lengthWords = lengthWords;
    op.cached = cached;
    return addMemOp(std::move(op), {src}, {});
}

ProgOpId
StreamProgram::gather(SlotId dst, uint64_t memBase,
                      std::vector<uint32_t> indices, uint32_t recordWords,
                      bool cached, uint64_t dstOffsetWords)
{
    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = memBase;
    op.srfSlot = dst;
    op.indices = std::move(indices);
    op.recordWords = recordWords;
    op.cached = cached;
    op.dstOffsetWords = dstOffsetWords;
    return addMemOp(std::move(op), {}, {dst});
}

ProgOpId
StreamProgram::scatter(SlotId src, uint64_t memBase,
                       std::vector<uint32_t> indices, uint32_t recordWords,
                       bool cached)
{
    MemOp op;
    op.kind = MemOpKind::Scatter;
    op.memBase = memBase;
    op.srfSlot = src;
    op.indices = std::move(indices);
    op.recordWords = recordWords;
    op.cached = cached;
    return addMemOp(std::move(op), {src}, {});
}

ProgOpId
StreamProgram::kernel(std::shared_ptr<KernelInvocation> inv)
{
    if (!inv || !inv->graph)
        panic("StreamProgram::kernel: empty invocation");
    Op o;
    o.kind = Op::Kind::Kernel;
    o.inv = std::move(inv);
    const auto &slots = o.inv->graph->streamSlots();
    for (size_t s = 0; s < slots.size(); s++) {
        if (slots[s].isOutput)
            o.writesSlots.push_back(o.inv->slots[s]);
        else
            o.readsSlots.push_back(o.inv->slots[s]);
    }
    inferDeps(o);
    ops_.push_back(std::move(o));
    return static_cast<ProgOpId>(ops_.size() - 1);
}

void
StreamProgram::dependsOn(ProgOpId after, ProgOpId before)
{
    if (after < 0 || before < 0 ||
            static_cast<size_t>(after) >= ops_.size() ||
            static_cast<size_t>(before) >= ops_.size())
        panic("StreamProgram::dependsOn: bad op ids %d, %d", after, before);
    ops_[after].deps.push_back(before);
}

void
StreamProgram::inferDeps(Op &op)
{
    auto id = static_cast<ProgOpId>(ops_.size());
    auto addDep = [&](ProgOpId d) {
        if (d >= 0 && std::find(op.deps.begin(), op.deps.end(), d) ==
                op.deps.end()) {
            op.deps.push_back(d);
        }
    };
    for (SlotId r : op.readsSlots)
        addDep(lastWriter_[r]);  // RAW
    for (SlotId w : op.writesSlots) {
        addDep(lastWriter_[w]);  // WAW
        for (ProgOpId r : readersSinceWrite_[w])
            addDep(r);           // WAR
    }
    for (SlotId w : op.writesSlots) {
        lastWriter_[w] = id;
        readersSinceWrite_[w].clear();
    }
    for (SlotId r : op.readsSlots)
        readersSinceWrite_[r].push_back(id);
}

void
StreamProgram::buildScoreboard()
{
    // Every edge of an unissued op on an uncompleted dep counts once
    // in the op's counter and once in the dep's dependents row, so a
    // duplicated edge (dependsOn() over an inferred dep) is released
    // exactly when its dep completes.
    const size_t n = ops_.size();
    pendingDeps_.assign(n, 0);
    dependentsBegin_.assign(n + 1, 0);
    for (const Op &op : ops_)
        if (!op.issued)
            for (ProgOpId d : op.deps)
                if (!ops_[d].completed)
                    dependentsBegin_[d]++;
    for (size_t i = 1; i <= n; i++)
        dependentsBegin_[i] += dependentsBegin_[i - 1];
    dependents_.resize(dependentsBegin_[n]);
    // Fill each row back to front; its cursor ends at the row start.
    for (size_t i = 0; i < n; i++) {
        if (ops_[i].issued)
            continue;
        for (ProgOpId d : ops_[i].deps) {
            if (!ops_[d].completed) {
                dependents_[--dependentsBegin_[d]] =
                    static_cast<ProgOpId>(i);
                pendingDeps_[i]++;
            }
        }
    }

    ready_.clear();
    readySorted_ = 0;
    inFlightMem_.clear();
    completedOps_ = 0;
    for (size_t i = 0; i < n; i++) {
        const Op &op = ops_[i];
        auto id = static_cast<ProgOpId>(i);
        if (op.completed)
            completedOps_++;
        else if (!op.issued && pendingDeps_[i] == 0)
            ready_.push_back(id);
        else if (op.issued && op.kind == Op::Kind::Mem)
            inFlightMem_.push_back(id);
    }
    // A program run() again after a stop may hold mem ops that
    // finished since it last ran.
    memCompletionSeen_ = machine_.mem().lastCompletion();
    pollMemOps();
}

void
StreamProgram::complete(ProgOpId id)
{
    ops_[id].completed = true;
    completedOps_++;
    for (uint32_t e = dependentsBegin_[id]; e < dependentsBegin_[id + 1];
         e++) {
        ProgOpId d = dependents_[e];
        if (--pendingDeps_[d] == 0)
            ready_.push_back(d);
    }
}

void
StreamProgram::pollMemOps()
{
    size_t kept = 0;
    for (ProgOpId id : inFlightMem_) {
        if (machine_.mem().done(ops_[id].memId))
            complete(id);
        else
            inFlightMem_[kept++] = id;
    }
    inFlightMem_.resize(kept);
}

void
StreamProgram::updateCompletion()
{
    if (activeKernelOp_ >= 0 && !machine_.kernelActive()) {
        complete(activeKernelOp_);
        activeKernelOp_ = -1;
    }
    // A mem op only finishes on a memory-system completion.
    Cycle seen = machine_.mem().lastCompletion();
    if (seen != memCompletionSeen_) {
        memCompletionSeen_ = seen;
        pollMemOps();
    }
}

bool
StreamProgram::issueDue() const
{
    // After a pass the ready list holds only kernel ops blocked by the
    // active kernel, so another pass can only issue something once an
    // op was released or the kernel slot freed.
    return ready_.size() > readySorted_ ||
        (!ready_.empty() && !machine_.kernelActive() &&
         activeKernelOp_ < 0);
}

void
StreamProgram::tryIssue()
{
    // Walking the ready ops in index order issues exactly what a scan
    // of the whole program would: every ready mem op, and the first
    // ready kernel op when no kernel is active.
    std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(readySorted_),
              ready_.end());
    std::inplace_merge(ready_.begin(),
                       ready_.begin() +
                           static_cast<std::ptrdiff_t>(readySorted_),
                       ready_.end());
    size_t kept = 0;
    for (ProgOpId id : ready_) {
        Op &op = ops_[id];
        if (op.kind == Op::Kind::Mem) {
            op.memId = machine_.mem().submit(op.mem);
            op.issued = true;
            inFlightMem_.push_back(id);
        } else if (machine_.kernelActive() || activeKernelOp_ >= 0) {
            ready_[kept++] = id;
        } else {
            machine_.launchKernel(op.inv);
            activeKernelOp_ = id;
            op.issued = true;
        }
    }
    ready_.resize(kept);
    readySorted_ = kept;
}

uint64_t
StreamProgram::run(uint64_t maxCycles)
{
    const Cycle start = machine_.now();
    uint64_t cycles = 0;
    Profiler::Scope prof(machine_.profiler(), Profiler::Run);
    buildScoreboard();
    while (true) {
        updateCompletion();
        if (completedOps_ == ops_.size() && machine_.mem().idle() &&
                !machine_.kernelActive())
            break;
        if (issueDue())
            tryIssue();
        machine_.engine().step();
        cycles = machine_.now() - start;
        if (cycles > maxCycles)
            panic("StreamProgram::run: exceeded %llu cycles (deadlock?)",
                  static_cast<unsigned long long>(maxCycles));
    }
    machine_.noteRunStatus(RunStatus::Done);
    return cycles;
}

} // namespace isrf
