/**
 * @file
 * Tests for the parallel sweep driver and the global-state hazards it
 * depends on being fixed:
 *
 *  - thread-count invariance: a sweep's results serialize
 *    bit-identically whether run on 1 thread or N
 *  - per-machine isolation: two Machines in one process with different
 *    trace/profile configurations don't leak state into each other
 *  - explicit env snapshotting: MachineConfig::make() never reads the
 *    environment; only fromEnv() does, and invalid values are
 *    diagnosed and defaulted instead of silently misparsed
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.h"
#include "driver/sweep_runner.h"
#include "util/env.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "workloads/external.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** setenv/unsetenv with automatic restore. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

std::string
sweepJson(const std::vector<SweepOutcome> &outcomes)
{
    std::string all;
    for (const auto &o : outcomes) {
        all += o.workload;
        all += '/';
        all += machineKindName(o.kind);
        all += '=';
        all += resultJson(o.result);
        all += '\n';
    }
    return all;
}

TEST(SweepRunner, ResultsInvariantUnderThreadCount)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort", "Filter"}, {MachineKind::Base, MachineKind::ISRF4},
        opts);
    ASSERT_EQ(jobs.size(), 4u);

    SweepRunner serial(1);
    auto a = serial.run(jobs);
    SweepRunner pool(4);
    auto b = pool.run(jobs);

    ASSERT_EQ(a.size(), b.size());
    // Submission order is preserved regardless of completion order.
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].workload, jobs[i].workload);
        EXPECT_EQ(b[i].workload, jobs[i].workload);
        EXPECT_EQ(a[i].kind, jobs[i].cfg.kind);
    }
    // The serialized results are byte-identical: simulation outcomes
    // depend only on (workload, config, options), never on threading.
    EXPECT_EQ(sweepJson(a), sweepJson(b));
    for (const auto &o : a)
        EXPECT_TRUE(o.result.correct) << o.workload;
}

TEST(SweepRunner, TimingAccountsForEveryJob)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({"Sort"}, {MachineKind::Base},
                                    opts);
    SweepRunner runner(2);
    size_t started = 0, finished = 0;
    auto out = runner.run(jobs,
        [&](const SweepJob &, bool fin, size_t, size_t total) {
            EXPECT_EQ(total, 1u);
            (fin ? finished : started)++;
        });
    EXPECT_EQ(started, 1u);
    EXPECT_EQ(finished, 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0].wallSeconds, 0.0);
    // One job: pool clamps to one worker; wall >= the job itself.
    EXPECT_EQ(runner.timing().threads, 1u);
    EXPECT_GE(runner.timing().wallSeconds,
              runner.timing().sumJobSeconds * 0.5);
}

TEST(MachineIsolation, TraceAndProfileConfigsDoNotLeak)
{
    // Machine A: tracing + host profiling. Machine B: neither. Both
    // live in the same process at the same time; A's configuration
    // must not bleed into B.
    MachineConfig cfgA = MachineConfig::make(MachineKind::ISRF4);
    cfgA.traceSpec = "all";
    cfgA.profileEnabled = true;
    MachineConfig cfgB = MachineConfig::make(MachineKind::ISRF4);

    Machine a, b;
    a.init(cfgA);
    b.init(cfgB);

    EXPECT_TRUE(a.profiler().enabled());
    EXPECT_FALSE(b.profiler().enabled())
        << "B must not inherit A's profile config";
    EXPECT_TRUE(a.tracer().on());
    EXPECT_FALSE(b.tracer().on())
        << "B must not inherit A's trace config";

    // Both knobs are observability only: the results match.
    WorkloadOptions opts{.repeats = 1};
    EXPECT_EQ(resultJson(runWorkload("Sort", cfgA, opts)),
              resultJson(runWorkload("Sort", cfgB, opts)));
    Machine m1, m2;
    m1.init(cfgA);
    m2.init(cfgB);
    EXPECT_TRUE(m1.tracer().on());
    EXPECT_TRUE(m1.profiler().enabled());
    EXPECT_EQ(m2.tracer().size(), 0u);
    EXPECT_FALSE(m2.profiler().enabled());
}

TEST(MachineIsolation, ConcurrentTracedMachinesStayPrivate)
{
    // Two fully traced runs in parallel: each machine records into its
    // own ring, so event counts are reproducible, not interleaved.
    WorkloadOptions opts;
    opts.repeats = 1;
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF1);
    cfg.traceSpec = "all";
    cfg.traceCapacity = 1 << 12;

    std::vector<SweepJob> jobs(2);
    jobs[0] = {"Sort", cfg, opts, {}};
    jobs[1] = {"Sort", cfg, opts, {}};
    SweepRunner runner(2);
    auto out = runner.run(jobs);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(resultJson(out[0].result), resultJson(out[1].result))
        << "identical traced jobs must produce identical results";
}

TEST(EnvSnapshot, MakeNeverReadsEnvironment)
{
    ScopedEnv profile("ISRF_PROFILE", "on:32");
    ScopedEnv trace("ISRF_TRACE", "srf,dram");

    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    EXPECT_FALSE(cfg.profileEnabled);
    EXPECT_TRUE(cfg.traceSpec.empty());

    // A Machine built from an env-free config ignores the environment.
    Machine m;
    m.init(cfg);
    EXPECT_FALSE(m.profiler().enabled());
    EXPECT_FALSE(m.tracer().on());

    // fromEnv() is the one explicit snapshot point.
    cfg.fromEnv();
    EXPECT_TRUE(cfg.profileEnabled);
    EXPECT_EQ(cfg.profileStride, 32u);
    EXPECT_EQ(cfg.traceSpec, "srf,dram");
}

TEST(EnvSnapshot, InvalidValuesWarnAndDefault)
{
    ScopedEnv profile("ISRF_PROFILE", "on:10 cycles");
    ScopedEnv cap("ISRF_TRACE_CAPACITY", "99999999999999999999999");
    ScopedEnv trace("ISRF_TRACE", nullptr);

    MachineConfig cfg = MachineConfig::make(MachineKind::Base).fromEnv();
    EXPECT_FALSE(cfg.profileEnabled)
        << "unparseable ISRF_PROFILE must fall back to the default";
    EXPECT_EQ(cfg.profileStride, 64u);
    EXPECT_EQ(cfg.traceCapacity, uint64_t{1} << 16)
        << "overflowing ISRF_TRACE_CAPACITY must fall back";
}

TEST(EnvSnapshot, UnreadVariableIsNamedAndIgnored)
{
    // ISRF_SAMPLE set the interval of a stat sampler that no longer
    // exists. fromEnv() must say so instead of ignoring it silently.
    ScopedEnv sample("ISRF_SAMPLE", "64");
    ScopedEnv profile("ISRF_PROFILE", nullptr);
    ScopedEnv cap("ISRF_TRACE_CAPACITY", nullptr);
    ScopedEnv trace("ISRF_TRACE", nullptr);

    const SweepJob plain{"Sort", MachineConfig::make(MachineKind::ISRF4),
                         {}, {}};
    SweepJob job = plain;
    ::testing::internal::CaptureStderr();
    job.cfg.fromEnv();
    std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(err.find("ignoring "), err.rfind("ignoring "))
        << "one warning expected: " << err;
    size_t at = err.find("ISRF_SAMPLE is not a known setting");
    EXPECT_NE(at, std::string::npos) << err;
    EXPECT_EQ(at, err.rfind("ISRF_SAMPLE")) << err;

    EXPECT_EQ(SweepRunner::canonicalJobText(job),
              SweepRunner::canonicalJobText(plain));
    EXPECT_TRUE(job.cfg.traceSpec.empty());
    EXPECT_EQ(job.cfg.traceCapacity, plain.cfg.traceCapacity);
    EXPECT_FALSE(job.cfg.profileEnabled);
    EXPECT_EQ(job.cfg.profileStride, plain.cfg.profileStride);
}

// ----------------------------------------------------------------------
// Sweep journaling and resume (DESIGN.md §12)
// ----------------------------------------------------------------------

/** Temp journal path removed on scope exit. */
class TempJournal
{
  public:
    explicit TempJournal(const char *tag)
    {
        path_ = ::testing::TempDir() + "isrf_sweep_" + tag + "_" +
            std::to_string(::getpid()) + ".jsonl";
        std::remove(path_.c_str());
    }
    ~TempJournal() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(SweepResilience, ThrowingJobBecomesFailedAndPoolKeepsDraining)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    std::vector<SweepJob> jobs;
    SweepJob bad;
    bad.workload = "Thrower";
    bad.cfg = MachineConfig::make(MachineKind::Base);
    bad.runner = [](const MachineConfig &,
                    const WorkloadOptions &) -> WorkloadResult {
        throw std::runtime_error("synthetic workload failure");
    };
    jobs.push_back(bad);
    // Real workloads queued after the thrower must still complete.
    auto rest = SweepRunner::matrix(
        {"Sort"}, {MachineKind::Base, MachineKind::ISRF4}, opts);
    jobs.insert(jobs.end(), rest.begin(), rest.end());

    SweepRunner runner(2);
    auto out = runner.run(jobs, SweepPolicy());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].result.status, RunStatus::Failed);
    EXPECT_EQ(out[0].result.error, "synthetic workload failure");
    for (size_t i = 1; i < out.size(); i++) {
        EXPECT_EQ(out[i].status, RunStatus::Done) << i;
        EXPECT_TRUE(out[i].result.correct) << i;
    }
}

TEST(SweepResilience, ResumeReplaysJournaledJobsWithoutReExecution)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort", "Filter"}, {MachineKind::Base, MachineKind::ISRF1},
        opts);

    TempJournal journal("resume");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(2);
    auto first = runner.run(jobs, policy);
    ASSERT_EQ(first.size(), 4u);
    for (const auto &o : first) {
        EXPECT_EQ(o.status, RunStatus::Done);
        EXPECT_FALSE(o.fromJournal);
    }

    policy.resume = true;
    auto second = runner.run(jobs, policy);
    ASSERT_EQ(second.size(), 4u);
    EXPECT_EQ(runner.timing().replayed, 4u);
    EXPECT_EQ(runner.timing().sumJobSeconds, 0.0)
        << "replayed jobs must not be re-simulated";
    for (size_t i = 0; i < 4; i++) {
        EXPECT_TRUE(second[i].fromJournal) << i;
        EXPECT_EQ(second[i].resultText, first[i].resultText)
            << "replayed result bytes must be identical";
        // The decoded result drives the sweep tables.
        EXPECT_EQ(second[i].result.cycles, first[i].result.cycles);
        EXPECT_EQ(second[i].result.correct, first[i].result.correct);
        EXPECT_EQ(second[i].result.dramWords, first[i].result.dramWords);
    }
}

TEST(SweepResilience, PartialJournalRunsOnlyTheMissingJobs)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort"}, {MachineKind::Base, MachineKind::ISRF4}, opts);

    // Journal only the first job, with the true sweep fingerprint.
    TempJournal journal("partial");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto full = runner.run(jobs, policy);

    // Rewrite the journal holding header + first job's record only —
    // as if the sweep was killed after one completion.
    JsonlReadResult rec = readJsonl(journal.path());
    ASSERT_TRUE(rec.ok());
    ASSERT_GE(rec.records.size(), 3u);
    {
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append(rec.records[0]));
        ASSERT_TRUE(w.append(rec.records[1]));
    }

    policy.resume = true;
    auto out = runner.run(jobs, policy);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].fromJournal);
    EXPECT_FALSE(out[1].fromJournal);
    EXPECT_EQ(runner.timing().replayed, 1u);
    for (size_t i = 0; i < 2; i++) {
        EXPECT_EQ(out[i].status, RunStatus::Done) << i;
        EXPECT_EQ(out[i].resultText, full[i].resultText)
            << "resumed sweep must serialize byte-identically";
    }

    // After the resumed run the journal holds all jobs again: a third
    // run replays everything.
    runner.run(jobs, policy);
    EXPECT_EQ(runner.timing().replayed, 2u);
}

/** A journal record as older builds wrote it, attempt counter and all. */
std::string
oldJobRecord(const SweepJob &job, uint32_t attempt, const char *status,
             const std::string &resultText)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", std::string("attempt"));
    w.field("job", SweepRunner::fingerprint(job));
    w.field("workload", job.workload);
    w.field("machine", std::string(machineKindName(job.cfg.kind)));
    w.field("attempt", static_cast<uint64_t>(attempt));
    w.field("status", std::string(status));
    w.field("wall_s", 0.5);
    w.field("error", std::string());
    w.key("result").raw(resultText);
    w.endObject();
    return w.str();
}

TEST(SweepResilience, RetiredStatusesInAnOldJournalReRun)
{
    // A journal from a build with deadlines, retries and Ctrl-C
    // cancellation: records carry an attempt counter and may end
    // cancelled, timed_out or stalled. Resume must replay the done
    // jobs and re-run exactly the others.
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort", "Filter"}, {MachineKind::Base, MachineKind::ISRF1},
        opts);
    SweepRunner runner(2);
    auto ref = runner.run(jobs);
    ASSERT_EQ(ref.size(), 4u);

    // An unfinished job's record holds whatever its run had harvested.
    auto partial = [&](size_t i) {
        WorkloadResult r;
        r.workload = jobs[i].workload;
        r.kind = jobs[i].cfg.kind;
        return resultJson(r);
    };

    TempJournal journal("retired");
    {
        JsonWriter head;
        head.beginObject();
        head.field("type", std::string("header"));
        head.field("version", static_cast<uint64_t>(1));
        head.field("sweep", SweepRunner::sweepFingerprint(jobs));
        head.field("jobs", static_cast<uint64_t>(jobs.size()));
        head.endObject();
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append(head.str()));
        ASSERT_TRUE(w.append(
            oldJobRecord(jobs[0], 1, "done", ref[0].resultText)));
        ASSERT_TRUE(
            w.append(oldJobRecord(jobs[1], 1, "cancelled", partial(1))));
        ASSERT_TRUE(
            w.append(oldJobRecord(jobs[2], 1, "stalled", partial(2))));
        ASSERT_TRUE(w.append(
            oldJobRecord(jobs[2], 2, "done", ref[2].resultText)));
        ASSERT_TRUE(
            w.append(oldJobRecord(jobs[3], 1, "timed_out", partial(3))));
    }

    SweepPolicy policy;
    policy.journalPath = journal.path();
    policy.resume = true;
    auto out = runner.run(jobs, policy);
    ASSERT_EQ(out.size(), 4u);
    const bool replayed[] = {true, false, true, false};
    for (size_t i = 0; i < 4; i++) {
        EXPECT_EQ(out[i].fromJournal, replayed[i]) << i;
        EXPECT_EQ(out[i].status, RunStatus::Done) << i;
        EXPECT_EQ(out[i].resultText, ref[i].resultText)
            << "resumed sweep must serialize like an uninterrupted one";
    }
    EXPECT_EQ(runner.timing().replayed, 2u);

    // The re-run jobs were journaled as done: a second resume replays
    // all four.
    runner.run(jobs, policy);
    EXPECT_EQ(runner.timing().replayed, 4u);
}

TEST(SweepResilienceDeathTest, StaleJournalIsRejectedNotMerged)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts);

    TempJournal journal("stale");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    runner.run(jobs, policy);

    // Drift the matrix: an options change is a different experiment.
    auto drifted = jobs;
    drifted[0].opts.seed ^= 1;
    policy.resume = true;
    EXPECT_EXIT(runner.run(drifted, policy),
                ::testing::ExitedWithCode(1), "stale");
}

// ----------------------------------------------------------------------
// External-dataset fingerprints (input-aware job identity)
// ----------------------------------------------------------------------

/**
 * Write a small valid .mtx whose diagonal value is `diag`, register it
 * as an external workload, and return the registered name. Re-writing
 * the same path with a different `diag` models a user editing their
 * input between sweeps.
 */
std::string
makeDatasetWorkload(const std::string &path, const char *diag)
{
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "8 8 8\n";
    for (int i = 1; i <= 8; i++)
        text += std::to_string(i) + " " + std::to_string(i) + " " +
            diag + "\n";
    EXPECT_TRUE(writeTextFile(path, text));
    std::string name;
    std::vector<std::string> errs;
    EXPECT_TRUE(registerExternalDataset(path, &name, &errs))
        << (errs.empty() ? "" : errs[0]);
    return name;
}

TEST(DatasetFingerprint, TracksFileContentNotJustName)
{
    TempJournal file("ds_fp");  // reused as a temp .mtx path
    std::string name = makeDatasetWorkload(file.path(), "4.0");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    const std::string canonical = SweepRunner::canonicalJobText(jobs[0]);
    EXPECT_NE(canonical.find("dataset.path"), std::string::npos);
    EXPECT_NE(canonical.find("dataset.bytes"), std::string::npos);
    EXPECT_NE(canonical.find("dataset.fnv1a"), std::string::npos);
    const uint64_t before = SweepRunner::fingerprint(jobs[0]);

    // Same workload name, same size, different bytes: the fingerprint
    // must move with the content hash.
    makeDatasetWorkload(file.path(), "5.0");
    const uint64_t after = SweepRunner::fingerprint(jobs[0]);
    EXPECT_NE(before, after);

    // Built-in workloads carry no dataset keys (their golden
    // fingerprints are pinned elsewhere in this suite).
    auto builtin =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts);
    EXPECT_EQ(SweepRunner::canonicalJobText(builtin[0])
                  .find("dataset."),
              std::string::npos);
}

TEST(DatasetFingerprint, UnchangedDatasetResumesCleanly)
{
    TempJournal file("ds_ok");
    std::string name = makeDatasetWorkload(file.path(), "4.0");
    TempJournal journal("ds_ok_journal");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto first = runner.run(jobs, policy);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status, RunStatus::Done);
    EXPECT_TRUE(first[0].result.correct);

    policy.resume = true;
    auto again = runner.run(jobs, policy);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].fromJournal);
    EXPECT_EQ(again[0].resultText, first[0].resultText);
}

TEST(SweepResilienceDeathTest, EditedDatasetMakesJournalStale)
{
    TempJournal file("ds_edit");
    std::string name = makeDatasetWorkload(file.path(), "4.0");
    TempJournal journal("ds_edit_journal");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    runner.run(jobs, policy);

    // The user edits the matrix mid-experiment: resuming must reject
    // the journal as stale (mentioning datasets), not splice results
    // computed from the old bytes into the new experiment.
    makeDatasetWorkload(file.path(), "6.5");
    policy.resume = true;
    EXPECT_EXIT(runner.run(jobs, policy),
                ::testing::ExitedWithCode(1), "stale.*datasets");
}

TEST(SweepResilience, FingerprintSeparatesExperiments)
{
    WorkloadOptions opts;
    auto base =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts)[0];
    EXPECT_EQ(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(base))
        << "fingerprints must be deterministic";

    SweepJob other = base;
    other.workload = "Filter";
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    other = base;
    other.cfg.seed++;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    other = base;
    other.opts.repeats++;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    // A custom runner cannot be attested by name: it must not collide
    // with the registry job of the same (workload, cfg, opts).
    other = base;
    other.runner = [](const MachineConfig &cfg,
                      const WorkloadOptions &o) {
        return runWorkload("Sort", cfg, o);
    };
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    // Observability-only knobs do NOT change the fingerprint: a
    // journal resumes traced or not, profiled or not.
    other = base;
    other.cfg.traceSpec = "all";
    other.cfg.traceCapacity = 4096;
    other.cfg.profileEnabled = true;
    other.cfg.profileStride = 8;
    EXPECT_EQ(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));
}

TEST(SweepResilience, CanonicalTextExcludesObservabilityKnobs)
{
    WorkloadOptions opts;
    auto job =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts)[0];
    std::string text = SweepRunner::canonicalJobText(job);

    // The centralized exclusion list and the canonical text must
    // agree: no excluded knob may appear as a key.
    for (const std::string &knob : SweepRunner::observabilityKnobs()) {
        EXPECT_EQ(text.find(knob + "="), std::string::npos)
            << "excluded knob '" << knob
            << "' leaked into canonical text: " << text;
    }

    // The removed interval sampler's key predates the exclusion list:
    // it stays in the text for journal compatibility, pinned to 0.
    EXPECT_NE(text.find("statSampleInterval=0;"), std::string::npos)
        << text;
}

TEST(SweepResilience, FingerprintsMatchGoldenSeedValues)
{
    // Golden fingerprints captured from the pre-profiler tree. If one
    // of these changes, every existing journal for that config is
    // invalidated — that is a breaking change and needs a deliberate
    // kJournalVersion bump, not a silent drift.
    struct Golden
    {
        MachineKind kind;
        uint64_t fp;
    };
    const Golden golden[] = {
        {MachineKind::Base, 0x46265b8e200cff92ull},
        {MachineKind::ISRF1, 0xecc57f3c2ac84cfbull},
        {MachineKind::ISRF4, 0x26d59cdb63d8a403ull},
        {MachineKind::Cache, 0x2ce009909ade9cecull},
    };
    WorkloadOptions opts;
    for (const auto &g : golden) {
        SweepJob job;
        job.workload = "FFT 2D";
        job.cfg = MachineConfig::make(g.kind);
        job.opts = opts;
        EXPECT_EQ(SweepRunner::fingerprint(job), g.fp)
            << machineKindName(g.kind) << " text:\n"
            << SweepRunner::canonicalJobText(job);
    }
}

TEST(SweepResilience, LoadJournalDiagnosesBadFiles)
{
    // Missing file.
    auto load =
        SweepRunner::loadJournal(::testing::TempDir() + "no.jsonl");
    EXPECT_FALSE(load.ok);

    // Valid JSONL but not a journal (no header).
    TempJournal journal("badhead");
    {
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append("{\"not\":\"a header\"}"));
    }
    load = SweepRunner::loadJournal(journal.path());
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("header"), std::string::npos)
        << load.error;
}

TEST(SweepResilience, JobRecordWithoutWorkloadOrMachineIsRejected)
{
    // Replay reads only a record's status and result, but a journal is
    // input from outside the program: a record missing its workload or
    // machine name is not one a sweep wrote.
    const std::string head =
        R"({"type":"header","version":1,"sweep":7,"jobs":1})";
    const std::string full = R"({"type":"attempt","job":9,)"
                             R"("workload":"Sort","machine":"Base",)"
                             R"("status":"done","result":{}})";
    auto loadWith = [&](const std::string &record) {
        TempJournal journal("fields");
        JsonlWriter w;
        EXPECT_TRUE(w.open(journal.path(), false));
        EXPECT_TRUE(w.append(head));
        EXPECT_TRUE(w.append(record));
        w.close();
        return SweepRunner::loadJournal(journal.path());
    };

    auto load = loadWith(full);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.latest.count(9), 1u);

    for (const char *field : {R"("workload":"Sort",)",
                              R"("machine":"Base",)"}) {
        std::string record = full;
        record.erase(record.find(field), std::string(field).size());
        load = loadWith(record);
        EXPECT_FALSE(load.ok) << record;
        EXPECT_NE(load.error.find("line 2 is not a journal job record"),
                  std::string::npos)
            << load.error;
    }
}

TEST(EnvSnapshot, ParseU64RejectsGarbage)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("  12", v));
    EXPECT_FALSE(parseU64("12x", v));
    EXPECT_FALSE(parseU64("-3", v));
    EXPECT_FALSE(parseU64("0x10", v));
    EXPECT_FALSE(parseU64("18446744073709551616", v));
}

} // namespace
} // namespace isrf
