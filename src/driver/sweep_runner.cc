#include "driver/sweep_runner.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "sim/profiler.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/log.h"
#include "workloads/external.h"

namespace isrf {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ----------------------------------------------------------------------
// Fingerprinting
// ----------------------------------------------------------------------

/** Journal format version; bump on any record-layout change. */
constexpr uint64_t kJournalVersion = 1;

/**
 * THE fingerprint exclusion list: MachineConfig knobs that observe a
 * simulation without affecting its results, and therefore must never
 * enter canonicalJob() below. Any knob listed here can change between
 * a journal being written and being resumed without invalidating it:
 *
 *   traceSpec           event tracing is side-effect-free
 *   traceCapacity       ring size only bounds what --trace exports
 *   profileEnabled      host-time profiling reads only the wall clock
 *   profileStride       ditto
 *
 * Keep this list, canonicalJob(), and the fromEnv() doc comment in
 * sync; tests assert canonical text is unchanged for non-observability
 * configs, so growing the list cannot silently invalidate journals.
 */
const std::vector<std::string> &
observabilityKnobList()
{
    static const std::vector<std::string> knobs = {
        "traceSpec", "traceCapacity", "profileEnabled", "profileStride",
    };
    return knobs;
}

/**
 * Canonical text dump of every simulation-affecting input of a job.
 * Adding a field here (when the simulator grows one) deliberately
 * invalidates old journals — that is the stale-detection working as
 * intended. Observability-only knobs (observabilityKnobList() above)
 * must NOT be added. Doubles print with %.17g so every distinct value
 * has a distinct canonical form.
 */
std::string
canonicalJob(const SweepJob &job)
{
    const MachineConfig &c = job.cfg;
    std::string s;
    auto add = [&](const char *k, const std::string &v) {
        s += k;
        s += '=';
        s += v;
        s += ';';
    };
    auto addU = [&](const char *k, uint64_t v) {
        add(k, std::to_string(v));
    };
    auto addD = [&](const char *k, double v) {
        add(k, strprintf("%.17g", v));
    };

    add("workload", job.workload);
    // The journal can attest registry workloads (name == code path)
    // but not arbitrary injected runners; mark the latter so their
    // records never alias a registry job's.
    add("runner", job.runner ? "custom" : "registry");
    add("kind", c.name());

    const SrfGeometry &g = c.srf;
    addU("srf.lanes", g.lanes);
    addU("srf.laneWords", g.laneWords);
    addU("srf.seqWidth", g.seqWidth);
    addU("srf.subArrays", g.subArrays);
    addU("srf.streamBufWords", g.streamBufWords);
    addU("srf.addrFifoSize", g.addrFifoSize);
    addU("srf.seqLatency", g.seqLatency);
    addU("srf.inLaneLatency", g.inLaneLatency);
    addU("srf.crossLaneLatency", g.crossLaneLatency);
    addU("srf.netPortsPerBank", g.netPortsPerBank);
    addU("srf.maxStreamSlots", g.maxStreamSlots);
    addU("srf.remoteQueueDepth", g.remoteQueueDepth);
    addU("srf.netTopology", static_cast<uint64_t>(g.netTopology));
    addU("srf.arbPolicy", static_cast<uint64_t>(g.arbPolicy));
    addU("srfMode", static_cast<uint64_t>(c.srfMode));

    const DramConfig &d = c.dram;
    addU("dram.capacityWords", d.capacityWords);
    addD("dram.wordsPerCycle", d.wordsPerCycle);
    addD("dram.randomCostFactor", d.randomCostFactor);
    addD("dram.smallFootprintCostFactor", d.smallFootprintCostFactor);
    addU("dram.accessLatency", d.accessLatency);
    addD("dram.burstTokens", d.burstTokens);
    addU("dram.rowBufferModel", d.rowBufferModel ? 1 : 0);
    addU("dram.rowWords", d.rowWords);
    addU("dram.banks", d.banks);
    addD("dram.rowHitCost", d.rowHitCost);
    addD("dram.rowMissCost", d.rowMissCost);

    const CacheConfig &ca = c.cache;
    addU("cache.capacityWords", ca.capacityWords);
    addU("cache.lineWords", ca.lineWords);
    addU("cache.ways", ca.ways);
    addU("cache.banks", ca.banks);
    addD("cache.wordsPerCycle", ca.wordsPerCycle);

    addU("mem.units", c.mem.units);
    addU("mem.stagingWords", c.mem.stagingWords);
    addU("mem.cacheEnabled", c.mem.cacheEnabled ? 1 : 0);

    const ClusterResources &cl = c.cluster;
    addU("cluster.aluSlots", cl.aluSlots);
    addU("cluster.divSlots", cl.divSlots);
    addU("cluster.commSlots", cl.commSlots);
    addU("cluster.sbufSlots", cl.sbufSlots);
    addU("cluster.spSlots", cl.spSlots);
    addU("cluster.idxIssuePerStream", cl.idxIssuePerStream);

    addU("inLaneSeparation", c.inLaneSeparation);
    addU("crossLaneSeparation", c.crossLaneSeparation);
    addU("kernelStartOverhead", c.kernelStartOverhead);
    addD("commOccupancy", c.commOccupancy);
    // The interval stat sampler was removed after journals containing
    // its statSampleInterval key already existed (it had by then been
    // excluded as an observability knob): the key stays, pinned to the
    // default 0 every such journal was written with, so fingerprints
    // are unchanged and those journals resume without a version bump.
    addU("statSampleInterval", 0);
    addU("seed", c.seed);

    // The fault model was removed after journals containing these
    // keys already existed: they stay, pinned to the values every
    // such journal was written with, so fingerprints are unchanged.
    addU("faults.enabled", 0);
    addU("faults.seed", 0);
    addU("faults.eccEnabled", 1);
    addU("faults.retryLimit", 4);
    addU("faults.retryBackoffBase", 4);
    addU("faults.opTimeoutCycles", 0);
    addU("faults.degradeThreshold", 8);
    addU("faults.watchdogInterval", 0);
    addU("faults.watchdogStallIntervals", 4);
    addU("faults.schedule.size", 0);

    addU("opts.repeats", job.opts.repeats);
    addU("opts.seed", job.opts.seed);
    addU("opts.separationOverride", job.opts.separationOverride);

    // External-dataset workloads depend on file content the workload
    // name cannot attest. Fold in the file's current size + FNV-1a so
    // a journal written against one version of the input is stale —
    // not silently spliced — when the file changes. Keys are appended
    // only for dataset-backed workloads, so built-in fingerprints
    // (including the golden values pinned in tests) are untouched.
    if (const ExternalDataset *ds = findExternalDataset(job.workload)) {
        uint64_t bytes = 0, fnv = 0;
        if (!fnv1aFile(ds->path, bytes, fnv))
            fatal("sweep fingerprint: dataset '%s' for workload '%s' "
                  "is unreadable; cannot attest job identity",
                  ds->path.c_str(), job.workload.c_str());
        add("dataset.path", ds->path);
        addU("dataset.bytes", bytes);
        add("dataset.fnv1a", strprintf("%016llx",
            static_cast<unsigned long long>(fnv)));
    }
    return s;
}

// ----------------------------------------------------------------------
// Journal records
// ----------------------------------------------------------------------

std::string
headerRecord(uint64_t sweepFp, size_t jobCount)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", std::string("header"));
    w.field("version", kJournalVersion);
    w.field("sweep", sweepFp);
    w.field("jobs", static_cast<uint64_t>(jobCount));
    w.endObject();
    return w.str();
}

/**
 * One finished job. The record type stays "attempt" and the layout
 * stays version 1: journals from builds that retried jobs (and wrote
 * an "attempt" counter) resume under this one and vice versa.
 */
std::string
jobRecord(uint64_t jobFp, const SweepOutcome &o)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", std::string("attempt"));
    w.field("job", jobFp);
    w.field("workload", o.workload);
    w.field("machine", std::string(machineKindName(o.kind)));
    w.field("status", std::string(runStatusName(o.status)));
    w.field("wall_s", o.wallSeconds);
    w.field("error", o.result.error);
    w.key("result").raw(o.resultText);
    w.endObject();
    return w.str();
}

/**
 * Rebuild the table-facing WorkloadResult fields from a journaled
 * result record. kernelBw is not reconstructed (its JSON form keeps
 * derived ratios, not the raw counters); the sweep tables and the JSON
 * export never need it — the export splices resultText verbatim.
 */
WorkloadResult
decodeResult(const SweepJournalRecord &rec, const SweepJob &job)
{
    WorkloadResult r;
    r.workload = job.workload;
    r.kind = job.cfg.kind;
    r.status = rec.status;
    JsonLineView v(rec.resultText);
    if (!v.valid())
        return r;
    v.getU64("cycles", r.cycles);
    v.getBool("correct", r.correct);
    v.getString("error", r.error);
    v.getU64("dram_words", r.dramWords);
    v.getU64("srf_seq_words", r.srfSeqWords);
    v.getU64("srf_idx_words", r.srfIdxWords);
    v.getU64("cache_words", r.cacheWords);
    std::string nested;
    if (v.getRaw("breakdown", nested)) {
        JsonLineView b(nested);
        b.getU64("loop_body", r.breakdown.loopBody);
        b.getU64("mem_stall", r.breakdown.memStall);
        b.getU64("srf_stall", r.breakdown.srfStall);
        b.getU64("overhead", r.breakdown.overhead);
    }
    if (v.getRaw("extra", nested)) {
        JsonLineView x(nested);
        // extra is a flat name->number map; recover it key by key.
        for (const auto &key : x.keys()) {
            double d = 0.0;
            if (x.getDouble(key, d))
                r.extra[key] = d;
        }
    }
    return r;
}

/** The outcome of a job whose workload threw `what`. */
WorkloadResult
failedResult(const SweepJob &job, const char *what)
{
    WorkloadResult r;
    r.workload = job.workload;
    r.kind = job.cfg.kind;
    r.status = RunStatus::Failed;
    r.error = what;
    return r;
}

} // namespace

// ----------------------------------------------------------------------
// Public static helpers
// ----------------------------------------------------------------------

uint64_t
SweepRunner::fingerprint(const SweepJob &job)
{
    return fnv1a(canonicalJob(job));
}

std::string
SweepRunner::canonicalJobText(const SweepJob &job)
{
    return canonicalJob(job);
}

const std::vector<std::string> &
SweepRunner::observabilityKnobs()
{
    return observabilityKnobList();
}

uint64_t
SweepRunner::sweepFingerprint(const std::vector<SweepJob> &jobs)
{
    uint64_t h = kFnvBasis;
    h = fnv1a(std::to_string(kJournalVersion), h);
    for (const SweepJob &j : jobs)
        h = fnv1a(std::to_string(fingerprint(j)), h);
    return h;
}

SweepJournalLoad
SweepRunner::loadJournal(const std::string &path)
{
    SweepJournalLoad load;
    JsonlReadResult raw = readJsonl(path);
    if (!raw.ok()) {
        load.error = raw.error;
        return load;
    }
    load.tornFinalLine = raw.tornFinalLine;
    load.tornBytes = raw.tornBytes;
    load.blankLines = raw.blankLines;
    if (raw.records.empty()) {
        load.error =
            strprintf("'%s' has no journal header", path.c_str());
        return load;
    }

    JsonLineView head(raw.records[0]);
    std::string type;
    uint64_t version = 0;
    uint64_t jobCount = 0;
    if (!head.valid() || !head.getString("type", type) ||
        type != "header" || !head.getU64("version", version) ||
        !head.getU64("sweep", load.sweepFingerprint) ||
        !head.getU64("jobs", jobCount)) {
        load.error = strprintf("'%s' line 1 is not a journal header",
                               path.c_str());
        return load;
    }
    if (version != kJournalVersion) {
        load.error = strprintf(
            "'%s' journal version %llu != supported %llu", path.c_str(),
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kJournalVersion));
        return load;
    }
    load.jobCount = static_cast<size_t>(jobCount);

    for (size_t i = 1; i < raw.records.size(); i++) {
        JsonLineView v(raw.records[i]);
        SweepJournalRecord rec;
        // Replay needs only the status and result, but a record that
        // lacks its workload or machine name is not one we wrote.
        std::string status, name;
        if (!v.valid() || !v.getString("type", type) ||
            type != "attempt" || !v.getU64("job", rec.job) ||
            !v.getString("workload", name) ||
            !v.getString("machine", name) ||
            !v.getString("status", status) ||
            !v.getRaw("result", rec.resultText)) {
            load.error = strprintf(
                "'%s' line %zu is not a journal job record",
                path.c_str(), i + 1);
            return load;
        }
        // Statuses of the retired deadline/retry/cancel layer: the
        // job never finished, so it re-runs.
        if (status == "cancelled" || status == "timed_out" ||
            status == "stalled") {
            load.latest.erase(rec.job);
            continue;
        }
        if (!runStatusFromName(status, rec.status)) {
            load.error =
                strprintf("'%s' line %zu has unknown status '%s'",
                          path.c_str(), i + 1, status.c_str());
            return load;
        }
        load.latest[rec.job] = std::move(rec);
    }
    load.ok = true;
    return load;
}

// ----------------------------------------------------------------------
// SweepRunner
// ----------------------------------------------------------------------

SweepRunner::SweepRunner(unsigned threads)
{
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? hw : 1;
    }
    threads_ = threads;
}

std::vector<SweepJob>
SweepRunner::matrix(const std::vector<std::string> &workloads,
                    const std::vector<MachineKind> &kinds,
                    const WorkloadOptions &opts)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * kinds.size());
    for (const auto &w : workloads) {
        for (MachineKind k : kinds) {
            SweepJob j;
            j.workload = w;
            j.cfg = MachineConfig::make(k).fromEnv();
            j.opts = opts;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs, ProgressFn progress)
{
    return run(jobs, SweepPolicy(), std::move(progress));
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 const SweepPolicy &policy, ProgressFn progress)
{
    // Force the lazy registries into existence before any worker
    // starts. Magic statics are thread-safe, but initializing them
    // here keeps worker wall times honest and the first jobs fast.
    workloadRegistry();
    Tracer::instance();
    Profiler::instance();

    std::vector<SweepOutcome> out(jobs.size());
    timing_ = SweepTiming();
    timing_.threads = std::max(1u,
        std::min<unsigned>(threads_, jobs.size() ? jobs.size() : 1));

    std::vector<uint64_t> fps(jobs.size());
    for (size_t i = 0; i < jobs.size(); i++)
        fps[i] = fingerprint(jobs[i]);
    const uint64_t sweepFp = sweepFingerprint(jobs);

    // --- journal: load for resume, then (re)open for appending ------
    JsonlWriter journal;
    std::mutex journalMu;
    if (!policy.journalPath.empty()) {
        struct stat st;
        const bool exists = ::stat(policy.journalPath.c_str(), &st) == 0;
        bool appendExisting = false;
        if (policy.resume && exists) {
            SweepJournalLoad load = loadJournal(policy.journalPath);
            if (!load.ok)
                fatal("--resume: cannot use journal %s: %s",
                      policy.journalPath.c_str(), load.error.c_str());
            if (load.sweepFingerprint != sweepFp ||
                load.jobCount != jobs.size())
                fatal("--resume: journal %s is stale: it records sweep "
                      "%016llx over %zu job(s), but the submitted "
                      "matrix is sweep %016llx over %zu job(s). The "
                      "workloads, configuration, input datasets, or "
                      "code have changed since it was written; delete "
                      "the journal (or drop --resume) to start fresh.",
                      policy.journalPath.c_str(),
                      static_cast<unsigned long long>(
                          load.sweepFingerprint),
                      load.jobCount,
                      static_cast<unsigned long long>(sweepFp),
                      jobs.size());
            if (load.tornFinalLine) {
                // Drop the torn bytes so the next append starts on a
                // fresh line instead of gluing onto the partial record
                // (which would corrupt the journal for later readers).
                // The torn line is the unterminated tail, so everything
                // up to the last '\n' is intact.
                off_t newSize = st.st_size -
                    static_cast<off_t>(load.tornBytes);
                if (::truncate(policy.journalPath.c_str(), newSize) != 0)
                    fatal("--resume: cannot trim torn record from %s: "
                          "%s", policy.journalPath.c_str(),
                          std::strerror(errno));
                ISRF_WARN("sweep journal %s: dropped torn final record "
                          "(%zu bytes)", policy.journalPath.c_str(),
                          load.tornBytes);
                timing_.tornRecordsDropped = 1;
                timing_.tornBytesDropped = load.tornBytes;
            }
            timing_.journalLinesSkipped = load.blankLines;
            for (size_t i = 0; i < jobs.size(); i++) {
                auto it = load.latest.find(fps[i]);
                if (it == load.latest.end())
                    continue;
                const SweepJournalRecord &rec = it->second;
                SweepOutcome &o = out[i];
                o.workload = jobs[i].workload;
                o.kind = jobs[i].cfg.kind;
                o.status = rec.status;
                o.fromJournal = true;
                o.resultText = rec.resultText;
                o.result = decodeResult(rec, jobs[i]);
                timing_.replayed++;
            }
            appendExisting = true;
        }
        if (!journal.open(policy.journalPath, appendExisting))
            fatal("cannot open sweep journal %s for writing",
                  policy.journalPath.c_str());
        if (!appendExisting && !journal.append(headerRecord(
                sweepFp, jobs.size())))
            fatal("cannot write header to sweep journal %s",
                  policy.journalPath.c_str());
    }

    std::mutex progressMu;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};

    auto note = [&](size_t idx, bool finished) {
        if (!progress)
            return;
        std::lock_guard<std::mutex> lock(progressMu);
        progress(jobs[idx], finished,
                 finished ? done.load() : done.load(), jobs.size());
    };

    // One job. Runs on a worker thread; all state it touches is the
    // job's own outcome slot plus the mutex-guarded journal.
    auto runJob = [&](size_t idx) {
        const SweepJob &job = jobs[idx];
        SweepOutcome &o = out[idx];
        o.workload = job.workload;
        o.kind = job.cfg.kind;

        auto t0 = std::chrono::steady_clock::now();
        try {
            o.result = job.runner ? job.runner(job.cfg, job.opts)
                                  : runWorkload(job.workload, job.cfg,
                                                job.opts);
        } catch (const std::exception &e) {
            // A throwing job must not take the pool down: record a
            // Failed outcome and keep draining the queue.
            o.result = failedResult(job, e.what());
            ISRF_WARN("sweep job '%s' on %s threw: %s",
                      job.workload.c_str(), job.cfg.name().c_str(),
                      e.what());
        } catch (...) {
            o.result = failedResult(job, "unknown exception");
            ISRF_WARN("sweep job '%s' on %s threw a non-std exception",
                      job.workload.c_str(), job.cfg.name().c_str());
        }
        o.wallSeconds = secondsSince(t0);
        o.status = o.result.status;
        {
            Profiler::Scope prof(Profiler::instance(), Profiler::Report);
            o.resultText = resultJson(o.result);
        }

        if (journal.isOpen()) {
            Profiler::Scope prof(Profiler::instance(), Profiler::Journal);
            std::lock_guard<std::mutex> lock(journalMu);
            journal.append(jobRecord(fps[idx], o));
        }
    };

    // Index-addressed result slots make submission-order output
    // trivial: worker i never races worker j on out[k].
    auto worker = [&]() {
        for (;;) {
            size_t idx = next.fetch_add(1);
            if (idx >= jobs.size())
                return;
            if (out[idx].fromJournal) {
                done.fetch_add(1);
                note(idx, true);
                continue;
            }
            note(idx, false);
            runJob(idx);
            done.fetch_add(1);
            note(idx, true);
        }
    };

    auto sweepStart = std::chrono::steady_clock::now();
    if (timing_.threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(timing_.threads);
        for (unsigned t = 0; t < timing_.threads; t++)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    timing_.wallSeconds = secondsSince(sweepStart);
    for (const auto &o : out)
        if (!o.fromJournal)
            timing_.sumJobSeconds += o.wallSeconds;
    return out;
}

} // namespace isrf
