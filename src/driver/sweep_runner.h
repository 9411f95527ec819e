/**
 * @file
 * Parallel experiment driver.
 *
 * The paper's evaluation is a (workload x machine-configuration)
 * matrix of fully independent simulations — classic embarrassingly
 * parallel throughput-simulation work. SweepRunner executes such a
 * matrix on a fixed-size thread pool, one isolated simulation context
 * per job, and returns results in deterministic submission order
 * regardless of completion order.
 *
 * Soundness rests on the de-globalized simulation core: every Machine
 * owns its Tracer and Profiler, and all ISRF_* environment reads
 * happen once, up front, in MachineConfig::fromEnv() — never from a
 * worker thread. A job therefore touches no mutable process-global
 * state except the (mutex-guarded) CLI trace shim and progress
 * printing.
 *
 * Determinism guarantee: each job's WorkloadResult depends only on
 * (workload, config, options), all captured at submission time, so a
 * sweep run with N threads is bit-identical to the same sweep run
 * serially — only wall time changes.
 */
#ifndef ISRF_DRIVER_SWEEP_RUNNER_H
#define ISRF_DRIVER_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/engine.h"
#include "workloads/workload.h"

namespace isrf {

/** One independent simulation to run: a fully resolved context. */
struct SweepJob
{
    std::string workload;  ///< name in workloadRegistry()
    MachineConfig cfg;     ///< resolved config (env already applied)
    WorkloadOptions opts;
    /**
     * Optional runner override (tests, synthetic jobs); when set it is
     * invoked instead of the registry lookup. Custom-runner jobs are
     * fingerprinted as such: the journal cannot attest arbitrary code,
     * so their records never silently replace a registry workload's.
     */
    WorkloadRunner runner;
};

/** One finished job, in submission order. */
struct SweepOutcome
{
    std::string workload;
    MachineKind kind = MachineKind::Base;
    WorkloadResult result;
    double wallSeconds = 0.0;  ///< this job's wall-clock time
    /**
     * Final job status: Done, or Failed when the workload threw
     * (message in result.error).
     */
    RunStatus status = RunStatus::Done;
    /** True when replayed from the journal instead of re-simulated. */
    bool fromJournal = false;
    /**
     * Canonical resultJson(result) bytes. For replayed jobs these are
     * the journaled bytes, so a resumed sweep's JSON export is
     * byte-identical to an uninterrupted run's.
     */
    std::string resultText;
};

/** Aggregate timing for a whole sweep. */
struct SweepTiming
{
    unsigned threads = 1;
    double wallSeconds = 0.0;     ///< sweep start to last completion
    double sumJobSeconds = 0.0;   ///< sum of executed job wall times
    size_t replayed = 0;          ///< jobs served from the journal
    /**
     * Journal-recovery loss accounting for --resume (0 on a clean
     * resume): torn final records dropped (0 or 1 — the fsync'd
     * journal can tear at most its last line), bytes discarded with
     * them, and blank lines skipped by the tolerant reader. Surfaced
     * in bench_sweep's summary and --timing-json so operators can
     * tell a clean resume from a lossy one.
     */
    size_t tornRecordsDropped = 0;
    size_t tornBytesDropped = 0;
    size_t journalLinesSkipped = 0;
    /** Aggregate parallel speedup: sum of job times / sweep wall. */
    double speedup() const
    {
        return wallSeconds > 0.0 ? sumJobSeconds / wallSeconds : 1.0;
    }
};

/**
 * Journaling policy for one sweep (see DESIGN.md §12). The
 * default-constructed policy reproduces the plain run() behavior: no
 * journal.
 */
struct SweepPolicy
{
    /** Journal path ("" = no journal). */
    std::string journalPath;
    /**
     * Replay journaled outcomes instead of re-simulating. Requires the
     * journal's sweep fingerprint to match the submitted matrix; a
     * mismatch (code/config drift) is a fatal stale-journal error,
     * never a silent merge. A missing journal file is treated as a
     * fresh start.
     */
    bool resume = false;
};

/** One journaled job record, decoded. */
struct SweepJournalRecord
{
    uint64_t job = 0;          ///< job fingerprint
    RunStatus status = RunStatus::Done;
    std::string resultText;    ///< raw resultJson bytes
};

/** Decoded journal: header + last record per job fingerprint. */
struct SweepJournalLoad
{
    bool ok = false;
    std::string error;             ///< why !ok (I/O, corrupt, header)
    uint64_t sweepFingerprint = 0; ///< from the header line
    size_t jobCount = 0;           ///< from the header line
    bool tornFinalLine = false;    ///< a torn final record was dropped
    size_t tornBytes = 0;          ///< bytes dropped with the torn line
    size_t blankLines = 0;         ///< blank lines the reader skipped
    /**
     * Latest record per job fingerprint (file order). A job whose
     * latest record carries a retired status (cancelled, timed_out,
     * stalled: written by older builds) has no entry, so it re-runs.
     */
    std::map<uint64_t, SweepJournalRecord> latest;
};

/** Fixed-size thread pool running SweepJobs (see file comment). */
class SweepRunner
{
  public:
    /**
     * Called (under an internal mutex) as each job starts and
     * finishes; `done` counts finished jobs so far.
     */
    using ProgressFn = std::function<void(const SweepJob &job,
                                          bool finished, size_t done,
                                          size_t total)>;

    /** @param threads worker count; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Run all jobs and return their outcomes in submission order.
     * With one thread (or one job) everything runs inline on the
     * calling thread. Results are bit-identical either way.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs,
                                  ProgressFn progress = nullptr);

    /**
     * Run all jobs once each, journaling every finished job and
     * replaying journaled jobs on resume (DESIGN.md §12). A stale
     * journal — one whose sweep fingerprint does not match the
     * submitted matrix — is a fatal() user error, never silently
     * merged.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs,
                                  const SweepPolicy &policy,
                                  ProgressFn progress = nullptr);

    /**
     * Deterministic fingerprint of one job: FNV-1a over
     * canonicalJobText() — a canonical dump of every
     * simulation-affecting field of (workload, config, options).
     * Observability-only knobs (see observabilityKnobs()) are
     * deliberately excluded so a journal resumes cleanly with
     * tracing, sampling or profiling toggled.
     */
    static uint64_t fingerprint(const SweepJob &job);

    /**
     * The canonical text fingerprint() hashes. Exposed so tests can
     * assert the exact exclusion policy (journal compatibility) rather
     * than just hash equality.
     */
    static std::string canonicalJobText(const SweepJob &job);

    /**
     * Names of the MachineConfig knobs excluded from fingerprints
     * because they cannot affect simulation results — the single
     * authoritative exclusion list (documented at canonicalJob() in
     * sweep_runner.cc, which enforces it).
     */
    static const std::vector<std::string> &observabilityKnobs();

    /** Fingerprint of a whole ordered matrix (hash of job hashes). */
    static uint64_t sweepFingerprint(const std::vector<SweepJob> &jobs);

    /**
     * Decode a journal file: header line + per-job records. !ok
     * covers unreadable files, corrupt interior lines, and malformed
     * headers; a torn final record is dropped and flagged, not an
     * error. Exposed for tests and tooling — run() applies the same
     * logic on --resume.
     */
    static SweepJournalLoad loadJournal(const std::string &path);

    /** Timing of the most recent run(). */
    const SweepTiming &timing() const { return timing_; }

    /**
     * Build the full benchmarks x machine-kinds job matrix in figure
     * order. Configs are resolved (make + fromEnv) here, on the
     * calling thread, so workers never consult the environment.
     */
    static std::vector<SweepJob>
    matrix(const std::vector<std::string> &workloads,
           const std::vector<MachineKind> &kinds,
           const WorkloadOptions &opts);

  private:
    unsigned threads_ = 1;
    SweepTiming timing_;
};

} // namespace isrf

#endif // ISRF_DRIVER_SWEEP_RUNNER_H
