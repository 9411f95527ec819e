/**
 * @file
 * isrf_perfbench: the host-speed benchmark's driver binary.
 *
 * Runs one list of (workload, machine) jobs through SweepRunner as a
 * closed batch: each worker takes its next job only when its previous
 * one finishes. Configs come from MachineConfig::make() with the dense
 * engine and never from fromEnv(), so no ISRF_* variable can change
 * what is measured. Every job is checked: its status must be Done, its
 * functional output correct, its resultJson identical in every batch
 * of the run and, at the golden seed, equal to the committed digest.
 *
 * Untraced mode (--trace 0) repeats the batch until --seconds is used
 * and reports medians over batches. Traced mode (--trace 1) runs pairs
 * of an untraced and a traced batch; the traced one enables the
 * simulator's Profiler at stride 1, records one span per job from a
 * wrapped SweepJob::runner, and replays each job's set-up layers
 * (replay.h). It writes a Chrome trace and a per-layer JSON file.
 *
 * perfbench/run.py builds this binary and is the benchmark's entry
 * point; it passes the job list for each named workload.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "driver/sweep_runner.h"
#include "replay.h"
#include "sim/profiler.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/log.h"

extern char **environ;

namespace {

using namespace isrf;
using perfbench::Clock;
using perfbench::LayerSpan;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
        "isrf_perfbench: %s\n"
        "usage: isrf_perfbench --job <workload>@<machine> [--job ...]\n"
        "         --threads N --seed N --seconds S --trace 0|1\n"
        "         [--golden FILE] [--trace-out PREFIX]\n"
        "         [--probe] [--write-golden FILE --reason TEXT]\n",
        msg.c_str());
    std::exit(2);
}

struct Options
{
    std::vector<std::string> jobSpecs;
    unsigned threads = 0;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool probe = false;
    std::string golden;
    std::string writeGolden;
    std::string reason;
    std::string traceOut;
};

uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0')
        usageError(flag + " needs a non-negative integer, got '" +
                   text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        if (a == "--job") {
            o.jobSpecs.push_back(next());
        } else if (a == "--threads") {
            o.threads = static_cast<unsigned>(parseU64(a, next()));
        } else if (a == "--seed") {
            o.seed = parseU64(a, next());
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseU64(a, next()));
            haveSeconds = true;
        } else if (a == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usageError("--trace needs 0 or 1, got '" + v + "'");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--golden") {
            o.golden = next();
        } else if (a == "--write-golden") {
            o.writeGolden = next();
        } else if (a == "--reason") {
            o.reason = next();
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else if (a == "--probe") {
            o.probe = true;
        } else {
            usageError("unknown argument '" + a + "'");
        }
    }
    if (o.jobSpecs.empty())
        usageError("no --job given");
    if (o.threads == 0)
        usageError("--threads must be at least 1");
    if (!haveSeed)
        usageError("--seed is required");
    if (!o.writeGolden.empty()) {
        if (o.reason.empty())
            usageError("--write-golden needs --reason");
        return o;
    }
    if (!haveSeconds || !haveTrace)
        usageError("--seconds and --trace are required");
    if (o.seconds < 1)
        usageError("--seconds must be at least 1");
    if (o.trace && o.traceOut.empty())
        usageError("--trace 1 needs --trace-out");
    return o;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Warn about and drop every ISRF_* variable before anything reads the
 * environment. Job configs never pass through fromEnv(); this also
 * keeps the lazily built global Tracer and Profiler from picking one
 * up.
 */
void
dropIsrfEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; e++) {
        std::string kv = *e;
        if (kv.rfind("ISRF_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const auto &n : names) {
        std::fprintf(stderr,
                     "isrf_perfbench: warning: %s is set and was ignored; "
                     "the benchmark always runs default configs\n",
                     n.c_str());
        ::unsetenv(n.c_str());
    }
}

std::string
jobKey(const std::string &workload, MachineKind kind)
{
    return workload + "/" + machineKindName(kind);
}

/** Parse "<workload>@<machine>" into a job at `seed`. */
SweepJob
makeJob(const std::string &spec, uint64_t seed)
{
    size_t at = spec.rfind('@');
    if (at == std::string::npos)
        usageError("--job '" + spec + "' is not <workload>@<machine>");
    SweepJob job;
    job.workload = spec.substr(0, at);
    std::string machine = spec.substr(at + 1);
    if (!workloadRegistry().count(job.workload))
        usageError("unknown workload '" + job.workload +
                   "'; registered: " + workloadNamesJoined());
    bool found = false;
    for (MachineKind k : {MachineKind::Base, MachineKind::ISRF1,
                          MachineKind::ISRF4, MachineKind::Cache}) {
        if (machine == machineKindName(k)) {
            job.cfg = MachineConfig::make(k);
            found = true;
        }
    }
    if (!found)
        usageError("unknown machine '" + machine +
                   "'; known: Base, ISRF1, ISRF4, Cache");
    job.cfg.engineMode = EngineMode::Dense;
    job.opts.seed = seed;
    return job;
}

// ---------------------------------------------------------------------
// Golden digests
// ---------------------------------------------------------------------

/** FNV-1a digests of one job's resultJson and of each top-level field. */
struct Digest
{
    uint64_t whole = 0;
    std::vector<std::pair<std::string, uint64_t>> fields;
};

Digest
digestOf(const std::string &resultText)
{
    Digest d;
    d.whole = fnv1a(resultText);
    JsonLineView v(resultText);
    for (const auto &k : v.keys()) {
        std::string raw;
        v.getRaw(k, raw);
        d.fields.emplace_back(k, fnv1a(raw));
    }
    return d;
}

std::string
hex(uint64_t v)
{
    return strprintf("%016llx", static_cast<unsigned long long>(v));
}

/**
 * The committed golden: "seed<TAB>N", then one line per job,
 * "<workload>/<machine><TAB><digest><TAB><field>=<digest> ...".
 * Lines starting with '#' are comments.
 */
struct Golden
{
    uint64_t seed = 0;
    std::map<std::string, Digest> jobs;
};

Golden
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read golden digests %s", path.c_str());
    Golden g;
    bool haveSeed = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cols;
        std::stringstream ss(line);
        std::string col;
        while (std::getline(ss, col, '\t'))
            cols.push_back(col);
        if (cols.size() == 2 && cols[0] == "seed") {
            g.seed = std::strtoull(cols[1].c_str(), nullptr, 10);
            haveSeed = true;
            continue;
        }
        if (cols.size() != 3)
            fatal("golden %s: malformed line '%s'", path.c_str(),
                  line.c_str());
        Digest d;
        d.whole = std::strtoull(cols[1].c_str(), nullptr, 16);
        std::stringstream fs(cols[2]);
        std::string kv;
        while (fs >> kv) {
            size_t eq = kv.find('=');
            if (eq == std::string::npos)
                fatal("golden %s: malformed field '%s'", path.c_str(),
                      kv.c_str());
            d.fields.emplace_back(kv.substr(0, eq),
                std::strtoull(kv.c_str() + eq + 1, nullptr, 16));
        }
        g.jobs[cols[0]] = std::move(d);
    }
    if (!haveSeed || g.jobs.empty())
        fatal("golden %s has no seed line or no jobs", path.c_str());
    return g;
}

/** First field whose digest differs from the golden's, by field name. */
std::string
firstDivergingField(const Digest &want, const Digest &got)
{
    std::map<std::string, uint64_t> gotFields(got.fields.begin(),
                                              got.fields.end());
    for (const auto &[name, digest] : want.fields) {
        auto it = gotFields.find(name);
        if (it == gotFields.end())
            return name + " (missing)";
        if (it->second != digest)
            return name;
        gotFields.erase(it);
    }
    return gotFields.empty() ? std::string("(whole result)")
                             : gotFields.begin()->first + " (new)";
}

// ---------------------------------------------------------------------
// Batches and checking
// ---------------------------------------------------------------------

/** One closed batch of the workload's jobs. */
struct Batch
{
    std::vector<SweepOutcome> out;
    Clock::time_point firstDispatch;
    Clock::time_point lastFinish;
    double sumJobS = 0;
    double longestJobS = 0;
    uint64_t cycles = 0;

    /** First dispatch to the last job's finish. */
    double wallS() const { return secondsBetween(firstDispatch, lastFinish); }
};

Batch
runBatch(const std::vector<SweepJob> &jobs, unsigned threads)
{
    Batch b;
    bool dispatched = false;
    SweepRunner runner(threads);
    // SweepRunner calls progress under its own mutex.
    b.out = runner.run(jobs, [&](const SweepJob &, bool finished, size_t,
                                 size_t) {
        Clock::time_point now = Clock::now();
        if (!finished && !dispatched) {
            dispatched = true;
            b.firstDispatch = now;
        }
        if (finished)
            b.lastFinish = now;
    });
    for (const auto &o : b.out) {
        b.sumJobS += o.wallSeconds;
        b.longestJobS = std::max(b.longestJobS, o.wallSeconds);
        b.cycles += o.result.cycles;
    }
    return b;
}

/** Counts failed jobs over every batch of the run. */
class Checker
{
  public:
    explicit Checker(const Golden *golden) : golden_(golden) {}

    void
    check(const std::vector<SweepJob> &jobs, const Batch &b)
    {
        if (first_.empty())
            for (const auto &o : b.out)
                first_.push_back(o.resultText);
        for (size_t i = 0; i < b.out.size(); i++) {
            const SweepOutcome &o = b.out[i];
            std::string key = jobKey(jobs[i].workload, o.kind);
            run_++;
            std::string why;
            if (o.status != RunStatus::Done)
                why = strprintf("status %s %s", runStatusName(o.status),
                                o.result.error.c_str());
            else if (!o.result.correct)
                why = "correct=false";
            else if (o.resultText != first_[i])
                why = "resultJson differs from the run's first batch";
            else if (golden_)
                why = goldenMismatch(key, o.resultText);
            if (why.empty())
                continue;
            if (failed_++ == 0)
                std::fprintf(stderr, "isrf_perfbench: FAILED job %s: %s\n",
                             key.c_str(), why.c_str());
        }
    }

    uint64_t run() const { return run_; }
    uint64_t failed() const { return failed_; }

  private:
    std::string
    goldenMismatch(const std::string &key, const std::string &text) const
    {
        auto it = golden_->jobs.find(key);
        if (it == golden_->jobs.end())
            return "no golden digest for this job";
        Digest got = digestOf(text);
        if (got.whole == it->second.whole)
            return "";
        return "resultJson digest " + hex(got.whole) + " != golden " +
            hex(it->second.whole) + "; first diverging field: " +
            firstDivergingField(it->second, got);
    }

    const Golden *golden_;
    std::vector<std::string> first_;
    uint64_t run_ = 0;
    uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
writeMetrics(JsonWriter &w, const std::vector<Metric> &metrics)
{
    w.key("metrics").beginObject();
    for (const auto &m : metrics) {
        w.key(m.name).beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

/**
 * Setup probe: the same prelude as a measured run, then a batch whose
 * runners return at once. Reports only the time to the first dispatch.
 */
int
probeMode(const Options &o, std::vector<SweepJob> jobs,
          Clock::time_point start)
{
    for (auto &j : jobs)
        j.runner = [](const MachineConfig &, const WorkloadOptions &) {
            return WorkloadResult();
        };
    Batch b = runBatch(jobs, o.threads);
    JsonWriter w;
    w.beginObject();
    w.field("setup_sample_s", secondsBetween(start, b.firstDispatch));
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
writeGoldenMode(const Options &o, const std::vector<SweepJob> &jobs)
{
    Batch b = runBatch(jobs, o.threads);
    std::string text = "# FNV-1a digests (util/hash.h) of each job's "
        "resultJson, then of each top-level field.\n"
        "# Regenerate only with run.py --regen-golden REASON and log the "
        "reason in CHANGES.md.\n"
        "# Last regenerated because: " + o.reason + "\n" +
        "seed\t" + std::to_string(o.seed) + "\n";
    for (size_t i = 0; i < b.out.size(); i++) {
        const SweepOutcome &out = b.out[i];
        std::string key = jobKey(jobs[i].workload, out.kind);
        if (out.status != RunStatus::Done || !out.result.correct)
            fatal("not writing a golden: job %s ended %s correct=%d",
                  key.c_str(), runStatusName(out.status),
                  out.result.correct ? 1 : 0);
        Digest d = digestOf(out.resultText);
        text += key + "\t" + hex(d.whole) + "\t";
        for (size_t f = 0; f < d.fields.size(); f++)
            text += (f ? " " : "") + d.fields[f].first + "=" +
                hex(d.fields[f].second);
        text += "\n";
    }
    if (!writeTextFile(o.writeGolden, text))
        fatal("cannot write %s", o.writeGolden.c_str());
    std::fprintf(stderr, "isrf_perfbench: wrote %zu golden digests to %s\n",
                 b.out.size(), o.writeGolden.c_str());
    return 0;
}

int
timedMode(const Options &o, const std::vector<SweepJob> &jobs,
          Checker &checker, Clock::time_point start)
{
    std::vector<double> walls, rates;
    double setupSample = 0;
    Clock::time_point runStart = Clock::now();
    for (;;) {
        Batch b = runBatch(jobs, o.threads);
        if (walls.empty())
            setupSample = secondsBetween(start, b.firstDispatch);
        checker.check(jobs, b);
        walls.push_back(b.wallS());
        rates.push_back(static_cast<double>(b.cycles) / b.sumJobS);
        std::fprintf(stderr, "batch %zu: wall %.3f s, job sum %.3f s, "
                     "%.4g cycles/s\n", walls.size(), b.wallS(), b.sumJobS,
                     rates.back());
        // Start another batch only if it should end within --seconds.
        double used = secondsBetween(runStart, Clock::now());
        if (used + secondsBetween(b.firstDispatch, Clock::now()) >
            o.seconds)
            break;
    }
    JsonWriter w;
    w.beginObject();
    w.field("correct", checker.failed() == 0);
    w.field("jobs_run", checker.run());
    w.field("jobs_failed", checker.failed());
    w.field("batches", static_cast<uint64_t>(walls.size()));
    w.field("setup_sample_s", setupSample);
    writeMetrics(w, {
        {"wall_s", median(walls), "s"},
        {"sim_cycles_per_s", median(rates), "cycles/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    });
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/** Spans recorded by the wrapped runners of one traced batch. */
struct JobTrace
{
    LayerSpan job{"job", {}, {}};
    perfbench::Replay replay;
    unsigned tid = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(size_t jobs) : jobs_(jobs) {}

    void
    record(size_t idx, const JobTrace &t)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, added] = tids_.emplace(std::this_thread::get_id(),
                                         static_cast<unsigned>(tids_.size()));
        jobs_[idx] = t;
        jobs_[idx].tid = it->second + 1;  // Chrome-trace tids from 1
    }

    const std::vector<JobTrace> &jobs() const { return jobs_; }

  private:
    std::mutex mu_;
    std::map<std::thread::id, unsigned> tids_;
    std::vector<JobTrace> jobs_;
};

/** Per-batch sums the traced run averages over its pairs. */
struct LayerSums
{
    double idleFrac = 0, longestJobS = 0, jobS = 0, untracedJobS = 0;
    double runS = 0, tickS = 0, clusterS = 0, srfS = 0, memS = 0;
    double reportS = 0, initS = 0, setupS = 0, scheduleS = 0;
    double graphs = 0;
};

void
writeChromeTrace(const std::string &path, Clock::time_point origin,
                 const std::vector<std::vector<JobTrace>> &pairs,
                 const std::vector<SweepJob> &jobs)
{
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    std::set<unsigned> tids;
    for (size_t p = 0; p < pairs.size(); p++) {
        for (size_t i = 0; i < pairs[p].size(); i++) {
            const JobTrace &t = pairs[p][i];
            tids.insert(t.tid);
            const std::string key = jobKey(jobs[i].workload, jobs[i].cfg.kind);
            const uint64_t id = p * jobs.size() + i;
            for (const LayerSpan *s : {&t.job, &t.replay.init,
                                       &t.replay.setup,
                                       &t.replay.schedule}) {
                w.beginObject();
                w.field("name", s->name);
                w.field("cat", s == &t.job ? "job" : "replay");
                w.field("ph", "X");
                w.field("ts", us(s->start));
                w.field("dur", us(s->end) - us(s->start));
                w.field("pid", 1);
                w.field("tid", t.tid);
                w.key("args").beginObject();
                w.field("id", id);
                w.field("job", key);
                w.field("parent", s == &t.job ? "" : "job");
                w.endObject();
                w.endObject();
            }
        }
    }
    for (unsigned tid : tids) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", 1);
        w.field("tid", tid);
        w.key("args").beginObject();
        w.field("name", strprintf("sweep worker %u", tid));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(path, w.str()))
        fatal("cannot write %s", path.c_str());
}

int
tracedMode(const Options &o, const std::vector<SweepJob> &jobs,
           Checker &checker)
{
    // RSS growth of one Machine build + init per machine kind, measured
    // while no worker runs.
    double initRss = 0;
    std::set<MachineKind> kinds;
    for (const auto &j : jobs)
        if (kinds.insert(j.cfg.kind).second)
            initRss = std::max(initRss, perfbench::initRssMb(j.cfg));

    const unsigned threads = std::min<unsigned>(o.threads, jobs.size());
    Profiler &prof = Profiler::instance();
    LayerSums sum;
    std::vector<std::vector<JobTrace>> pairs;
    std::vector<SweepOutcome> tracedOut;
    const Clock::time_point runStart = Clock::now();
    for (;;) {
        Batch ref = runBatch(jobs, o.threads);
        checker.check(jobs, ref);

        SpanLog log(jobs.size());
        std::vector<SweepJob> traced = jobs;
        for (size_t i = 0; i < traced.size(); i++) {
            SweepJob &j = traced[i];
            j.cfg.profileEnabled = true;
            j.cfg.profileStride = 1;
            j.runner = [&log, i, name = j.workload](
                           const MachineConfig &cfg,
                           const WorkloadOptions &opts) {
                JobTrace t;
                t.job.start = Clock::now();
                WorkloadResult r = runWorkload(name, cfg, opts);
                t.job.end = Clock::now();
                t.replay = perfbench::replayJob(name, cfg, opts.seed, r);
                log.record(i, t);
                return r;
            };
        }
        prof.configure(true, 1);
        prof.reset();
        Batch tr = runBatch(traced, o.threads);
        prof.configure(false);
        checker.check(jobs, tr);

        sum.idleFrac += 1.0 - ref.sumJobS / (threads * ref.wallS());
        sum.longestJobS += ref.longestJobS;
        sum.untracedJobS += ref.sumJobS;
        for (const JobTrace &t : log.jobs()) {
            sum.jobS += t.job.seconds();
            sum.initS += t.replay.init.seconds();
            sum.setupS += t.replay.setup.seconds();
            sum.scheduleS += t.replay.schedule.seconds();
            sum.graphs += static_cast<double>(t.replay.graphs);
        }
        auto est = [&](Profiler::Phase p) {
            return prof.phase(p).estNs() * 1e-9;
        };
        sum.runS += est(Profiler::Run);
        sum.tickS += est(Profiler::MachineTick);
        sum.clusterS += est(Profiler::ClusterTick);
        sum.srfS += est(Profiler::SrfCycle);
        sum.memS += est(Profiler::MemTick);
        sum.reportS += est(Profiler::Report);
        pairs.push_back(log.jobs());
        if (tracedOut.empty())
            tracedOut = tr.out;
        double used = secondsBetween(runStart, Clock::now());
        if (used * (pairs.size() + 1) / pairs.size() > o.seconds)
            break;
    }

    const double n = static_cast<double>(pairs.size());
    uint64_t cycles = 0, seq = 0, idx = 0, dram = 0, cache = 0;
    TimeBreakdown bd;
    for (const auto &out : tracedOut) {
        const WorkloadResult &r = out.result;
        cycles += r.cycles;
        seq += r.srfSeqWords;
        idx += r.srfIdxWords;
        dram += r.dramWords;
        cache += r.cacheWords;
        bd += r.breakdown;
    }
    const double jobS = sum.jobS / n;
    const double attributed =
        (sum.initS + sum.setupS + sum.scheduleS + sum.runS) / n;
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    std::vector<Metric> metrics = {
        {"driver.idle_frac", sum.idleFrac / n, "frac"},
        {"driver.longest_job_s", sum.longestJobS / n, "s"},
        {"core.driver_s", (sum.runS - sum.tickS) / n, "s"},
        {"core.run_s", sum.runS / n, "s"},
        {"core.init_s", sum.initS / n, "s"},
        {"core.init_rss_mb", initRss, "MB"},
        {"workloads.setup_s", sum.setupS / n, "s"},
        {"kernel.schedule_s", sum.scheduleS / n, "s"},
        {"kernel.graphs", sum.graphs / n, "count"},
        {"core.report_s", sum.reportS / n, "s"},
        {"sim.tick_s", sum.tickS / n, "s"},
        {"sim.tick_self_s",
         (sum.tickS - sum.clusterS - sum.srfS - sum.memS) / n, "s"},
        {"cluster.tick_s", sum.clusterS / n, "s"},
        {"srf.cycle_s", sum.srfS / n, "s"},
        {"mem.tick_s", sum.memS / n, "s"},
        {"sim.cycles", d(cycles), "cycles"},
        {"srf.seq_words", d(seq), "words"},
        {"srf.idx_words", d(idx), "words"},
        {"mem.dram_words", d(dram), "words"},
        {"mem.cache_words", d(cache), "words"},
        {"cluster.loop_body_cycles", d(bd.loopBody), "lane-cycles"},
        {"cluster.mem_stall_cycles", d(bd.memStall), "lane-cycles"},
        {"cluster.srf_stall_cycles", d(bd.srfStall), "lane-cycles"},
        {"cluster.overhead_cycles", d(bd.overhead), "lane-cycles"},
        {"job_s", jobS, "s"},
        {"unattributed_s", jobS - attributed, "s"},
        {"unattributed_frac", (jobS - attributed) / jobS, "frac"},
        {"trace_overhead_frac", sum.jobS / sum.untracedJobS - 1.0, "frac"},
    };

    writeChromeTrace(o.traceOut + ".trace.json", runStart, pairs, jobs);

    JsonWriter lw;
    lw.beginObject();
    lw.field("seed", o.seed);
    lw.field("threads", threads);
    lw.field("pairs", static_cast<uint64_t>(pairs.size()));
    writeMetrics(lw, metrics);
    lw.key("jobs").beginArray();
    for (size_t i = 0; i < jobs.size(); i++) {
        const JobTrace &t = pairs[0][i];
        lw.beginObject();
        lw.field("job", jobKey(jobs[i].workload, jobs[i].cfg.kind));
        lw.field("cycles", tracedOut[i].result.cycles);
        lw.field("job_s", t.job.seconds());
        lw.field("init_s", t.replay.init.seconds());
        lw.field("setup_s", t.replay.setup.seconds());
        lw.field("schedule_s", t.replay.schedule.seconds());
        lw.field("graphs", t.replay.graphs);
        lw.endObject();
    }
    lw.endArray();
    lw.endObject();
    if (!writeTextFile(o.traceOut + ".layers.json", lw.str()))
        fatal("cannot write %s.layers.json", o.traceOut.c_str());

    JsonWriter w;
    w.beginObject();
    w.field("correct", checker.failed() == 0);
    w.field("jobs_run", checker.run());
    w.field("jobs_failed", checker.failed());
    w.field("batches", static_cast<uint64_t>(2 * pairs.size()));
    writeMetrics(w, metrics);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point mainEntry = Clock::now();
    Options o = parseArgs(argc, argv);
    dropIsrfEnv();
    const unsigned cpus = onlineCpus();
    if (o.threads > cpus)
        usageError(strprintf("--threads %u exceeds the %u CPUs available "
                             "(nproc)", o.threads, cpus));
    std::vector<SweepJob> jobs;
    for (const auto &spec : o.jobSpecs)
        jobs.push_back(makeJob(spec, o.seed));

    if (o.probe)
        return probeMode(o, jobs, mainEntry);
    if (!o.writeGolden.empty())
        return writeGoldenMode(o, jobs);

    Golden golden;
    const Golden *check = nullptr;
    if (!o.golden.empty()) {
        golden = loadGolden(o.golden);
        if (golden.seed == o.seed)
            check = &golden;
    }
    Checker checker(check);
    if (o.trace)
        return tracedMode(o, jobs, checker);
    return timedMode(o, jobs, checker, mainEntry);
}
