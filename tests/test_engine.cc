/**
 * @file
 * Tests for the tick engine (stepping, clear(), cooperative
 * cancellation and deadlines), breakdown arithmetic and trace
 * utilities.
 */
#include <gtest/gtest.h>

#include "core/breakdown.h"
#include "sim/engine.h"
#include "workloads/trace_util.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

struct CountingComponent : Ticked
{
    uint64_t ticks = 0;
    uint64_t posts = 0;
    Cycle lastNow = 0;
    void
    tick(Cycle now) override
    {
        ticks++;
        lastNow = now;
    }
    void postTick(Cycle) override { posts++; }
    bool hasPostTick() const override { return true; }
    std::string tickedName() const override { return "counter"; }
};

TEST(Engine, StepInvokesTickAndPostTickInOrder)
{
    Engine e;
    CountingComponent a, b;
    e.add(&a);
    e.add(&b);
    e.step();
    EXPECT_EQ(a.ticks, 1u);
    EXPECT_EQ(b.ticks, 1u);
    EXPECT_EQ(a.posts, 1u);
    EXPECT_EQ(e.now(), 1u);
    e.steps(9);
    EXPECT_EQ(a.ticks, 10u);
    EXPECT_EQ(a.lastNow, 9u);
}

TEST(Engine, RunUntilStopsOnPredicate)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    RunResult r = e.runUntil([&]() { return a.ticks >= 42; });
    EXPECT_EQ(r.status, RunStatus::Done);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.cycles, 42u);
    EXPECT_EQ(e.now(), 42u);
}

TEST(Engine, RunUntilLimitReturnsStatus)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    RunResult r = e.runUntil([]() { return false; }, 100);
    EXPECT_EQ(r.status, RunStatus::Limit);
    EXPECT_FALSE(r.done());
    EXPECT_EQ(r.cycles, 100u);
    // The engine keeps running normally after a limit return.
    EXPECT_EQ(e.now(), 100u);
    RunResult r2 = e.runUntil([&]() { return a.ticks >= 150; }, 1000);
    EXPECT_EQ(r2.status, RunStatus::Done);
}

TEST(Engine, RunStatusNames)
{
    EXPECT_STREQ(runStatusName(RunStatus::Done), "done");
    EXPECT_STREQ(runStatusName(RunStatus::Limit), "limit");
    EXPECT_STREQ(runStatusName(RunStatus::Stalled), "stalled");
}

TEST(Engine, NullComponentPanics)
{
    Engine e;
    EXPECT_DEATH(e.add(nullptr), "null component");
}

TEST(EngineClear, UnregistersComponentsAndRewindsClock)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    e.steps(5);
    EXPECT_EQ(e.now(), 5u);
    EXPECT_EQ(a.ticks, 5u);
    e.clear();
    EXPECT_EQ(e.now(), 0u);
    e.steps(3);
    EXPECT_EQ(a.ticks, 5u) << "cleared components must not be ticked";
}

// ----------------------------------------------------------------------
// Cooperative cancellation / deadline
// ----------------------------------------------------------------------

TEST(EngineCancel, PreCancelledTokenStopsBeforeTheFirstStep)
{
    // Cancellation is observed at cycle boundaries only; a token that
    // is already tripped must stop the run at cycle 0.
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::Cancelled);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(c.ticks, 0u);
    EXPECT_EQ(e.now(), 0u);
}

TEST(EngineCancel, ExpiredDeadlineReportsTimedOut)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.setTimeout(1e-9);  // expires immediately
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_EQ(r.cycles, 0u);
}

/** Arms an already-due deadline on `token` when it ticks cycle `at`. */
struct DeadlineArmer : Ticked
{
    CancelToken *token = nullptr;
    Cycle at = 0;
    void
    tick(Cycle now) override
    {
        if (now == at)
            token->setTimeout(1e-9);
    }
    std::string tickedName() const override { return "armer"; }
};

TEST(EngineCancel, DeadlineExpiringMidRunIsSeenAtTheNextCheck)
{
    // The wall clock is read once per kDeadlineCheckCycles, so a
    // deadline that expires mid-run stops the run at the next check.
    Engine e;
    CancelToken token;
    DeadlineArmer armer;
    armer.token = &token;
    armer.at = 100;
    e.add(&armer);
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return false; },
                             4 * Engine::kDeadlineCheckCycles);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_EQ(r.cycles, Engine::kDeadlineCheckCycles);
}

TEST(EngineCancel, CancellationWinsOverDeadline)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    token.setTimeout(1e-9);
    e.setCancel(&token);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, FinishedRunIsNeverReportedCancelled)
{
    // The predicate is checked before the token: a run that is already
    // done must return Done even under a tripped token.
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return true; }, 1000);
    EXPECT_EQ(r.status, RunStatus::Done);
}

TEST(EngineCancel, UntrippedTokenDoesNotPerturbResults)
{
    // A workload run under a generous (never-expiring) deadline must
    // be byte-identical to one run with no token at all — the
    // resilience layer is invisible to healthy runs.
    WorkloadOptions plain;
    plain.repeats = 1;
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    WorkloadResult bare = runWorkload("Sort", cfg, plain);

    CancelToken token;
    token.setTimeout(3600.0);
    WorkloadOptions guarded = plain;
    guarded.cancel = &token;
    WorkloadResult watched = runWorkload("Sort", cfg, guarded);

    EXPECT_TRUE(watched.correct);
    EXPECT_EQ(resultJson(bare), resultJson(watched));
}

TEST(EngineCancel, ChainedTokenPropagatesParentCancel)
{
    CancelToken parent, child;
    child.chainTo(&parent);
    EXPECT_FALSE(child.cancelRequested());
    parent.cancel();
    EXPECT_TRUE(child.cancelRequested());

    Engine e;
    CountingComponent c;
    e.add(&c);
    e.setCancel(&child);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, DetachingTheTokenRestoresPlainRuns)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
    e.setCancel(nullptr);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Limit);
    EXPECT_EQ(c.ticks, 10u);
}

TEST(Breakdown, TotalsAndAccumulate)
{
    TimeBreakdown a;
    a.loopBody = 10;
    a.memStall = 5;
    TimeBreakdown b;
    b.srfStall = 3;
    b.overhead = 2;
    a += b;
    EXPECT_EQ(a.total(), 20u);
    EXPECT_DOUBLE_EQ(a.frac(a.loopBody, a.total()), 0.5);
    a.reset();
    EXPECT_EQ(a.total(), 0u);
    EXPECT_EQ(a.summary(), "(empty breakdown)");
}

TEST(TraceUtil, SplitMergeRoundtrip)
{
    SrfGeometry g;
    std::vector<Word> data(1000);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 3);
    auto lanes = splitStriped(g, data);
    EXPECT_EQ(lanes.size(), g.lanes);
    EXPECT_EQ(mergeStriped(g, lanes), data);
    // Lane 0 holds words 0..3, 32..35, ...
    EXPECT_EQ(lanes[0][0], 0u);
    EXPECT_EQ(lanes[0][4], 32u * 3);
    EXPECT_EQ(lanes[1][0], 4u * 3);
}

TEST(TraceUtil, FloatWordConversionRoundtrip)
{
    std::vector<float> f = {0.0f, -1.5f, 3.14159f, 1e-20f, 1e20f};
    EXPECT_EQ(wordsToFloats(floatsToWords(f)), f);
}

TEST(TraceUtil, StripeLaneMatchesSrfMapping)
{
    SrfGeometry g;
    Srf srf;
    srf.init(g, SrfMode::SequentialOnly, nullptr);
    for (uint64_t w : {0ull, 5ull, 31ull, 32ull, 100ull, 8191ull}) {
        EXPECT_EQ(stripeLane(g, w), srf.stripedLocation(0, w).first)
            << w;
    }
}

} // namespace
} // namespace isrf
