/**
 * @file
 * Full-matrix parallel sweep: every paper benchmark on every machine
 * configuration (8 x 4 = 32 independent simulations) through the
 * SweepRunner thread pool. --suite sparse swaps in the sparse &
 * stencil family (SpMV/Stencil/Histogram), --suite all runs both, and
 * --dataset <file.mtx> appends an external SpMV workload to whichever
 * suite is selected.
 *
 * Prints per-job wall time, total wall time, and the aggregate
 * parallel speedup (sum of job times / sweep wall time). The --json
 * results report contains *only* simulation results — no timing — so
 * it is byte-identical for any --jobs value; timing goes to the
 * separate --timing-json report, and --bench-json writes the
 * isrf-perf-record-v1 perf record (git SHA, host metadata, per-job
 * wall times, sim-cycles/second, aggregated ISRF_PROFILE profile)
 * consumed by tools/perf_diff and CI's perf job (DESIGN.md §13).
 *
 * Journaling (DESIGN.md §12): with --journal each
 * finished job is durably appended to a JSONL journal; --resume
 * replays journaled jobs so a killed sweep continues where it stopped,
 * with a --json report byte-identical to an uninterrupted run's.
 * Each job runs once, to done or (if it throws) failed. Ctrl-C and
 * kill leave the default disposition: the journal is fsync'd per
 * record, so --resume drops at most a torn final line.
 */
#include <cstdlib>

#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

namespace {

void
writeTimingJson(const std::string &path, const SweepRunner &runner,
                const std::vector<SweepOutcome> &outcomes)
{
    const SweepTiming &t = runner.timing();
    JsonWriter w;
    w.beginObject();
    w.key("threads").value(static_cast<uint64_t>(t.threads));
    w.key("wall_seconds").value(t.wallSeconds);
    w.key("sum_job_seconds").value(t.sumJobSeconds);
    w.key("speedup").value(t.speedup());
    w.key("replayed").value(static_cast<uint64_t>(t.replayed));
    // Resume-loss accounting: all zero on a clean resume. Operators
    // (and CI) read these to tell a clean recovery from a lossy one.
    w.key("journal_torn_records")
        .value(static_cast<uint64_t>(t.tornRecordsDropped));
    w.key("journal_torn_bytes")
        .value(static_cast<uint64_t>(t.tornBytesDropped));
    w.key("journal_lines_skipped")
        .value(static_cast<uint64_t>(t.journalLinesSkipped));
    w.key("jobs").beginArray();
    for (const auto &o : outcomes) {
        w.beginObject();
        w.key("workload").value(o.workload);
        w.key("machine").value(machineKindName(o.kind));
        w.key("wall_seconds").value(o.wallSeconds);
        w.key("cycles").value(o.result.cycles);
        w.key("correct").value(o.result.correct);
        w.key("status").value(std::string(runStatusName(o.status)));
        w.key("from_journal").value(o.fromJournal);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote timing JSON to %s\n", path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     path.c_str());
}

/**
 * Write the sweep --json report by splicing each outcome's canonical
 * resultText. For executed jobs resultText is exactly resultJson(), so
 * this matches the historical writeBenchJson() output byte for byte;
 * for journal-replayed jobs it is the journaled bytes — which is what
 * makes a resumed run's report byte-identical to an uninterrupted
 * run's.
 */
void
writeSweepJson(const std::string &path,
               const std::vector<SweepOutcome> &outcomes)
{
    std::map<std::string, const SweepOutcome *> ordered;
    for (const auto &o : outcomes)
        ordered.emplace(o.workload + "/" + machineKindName(o.kind), &o);
    JsonWriter w;
    w.beginObject();
    w.key("results").beginObject();
    for (const auto &kv : ordered)
        w.key(kv.first).raw(kv.second->resultText.empty()
                                ? resultJson(kv.second->result)
                                : kv.second->resultText);
    w.endObject();
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote JSON results to %s\n",
                     path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Sweep-only flags, handled by the shared parser (BenchFlag hook).
    std::string timingPath;
    std::string benchJsonPath;
    std::string suite = "paper";
    BenchArgs args = parseBenchArgs(argc, argv, {
        {"--timing-json", true,
         [&](const std::string &v) { timingPath = v; }},
        {"--bench-json", true,
         [&](const std::string &v) { benchJsonPath = v; }},
        {"--suite", true,
         [&](const std::string &v) {
             if (v != "paper" && v != "sparse" && v != "all") {
                 std::fprintf(stderr, "--suite expects paper, sparse "
                              "or all, got '%s'\n", v.c_str());
                 std::exit(2);
             }
             suite = v;
         }},
    });

    // --suite paper is the default so the perf job's 32-job contract
    // (8 paper benchmarks x 4 machines) holds without flags; sparse
    // adds the irregular-access family, and --dataset workloads ride
    // along with whichever suite is selected.
    std::vector<std::string> names;
    if (suite == "paper" || suite == "all")
        names.insert(names.end(), benchmarkOrder().begin(),
                     benchmarkOrder().end());
    if (suite == "sparse" || suite == "all")
        names.insert(names.end(), sparseBenchmarkOrder().begin(),
                     sparseBenchmarkOrder().end());
    names.insert(names.end(), args.datasetWorkloads.begin(),
                 args.datasetWorkloads.end());

    heading("Parallel full-matrix sweep (benchmarks x 4 configs)",
            "driver for Figures 11-13 data; results are --jobs "
            "invariant");

    WorkloadOptions opts;
    opts.repeats = 2;
    auto jobs = SweepRunner::matrix(names, machineOrder(), opts);

    SweepPolicy policy;
    policy.journalPath = args.journalPath;
    policy.resume = args.resume;

    SweepRunner runner(args.jobs);
    std::printf("running %zu jobs on %u thread(s)...\n\n", jobs.size(),
                args.jobs);
    auto outcomes = runner.run(jobs, policy,
        [](const SweepJob &job, bool finished, size_t done,
           size_t total) {
            if (finished)
                progressf("  [%zu/%zu] %s on %s done\n", done, total,
                          job.workload.c_str(),
                          job.cfg.name().c_str());
        });

    Table t({"Benchmark", "Config", "Cycles", "Correct", "Status",
             "Wall (s)"});
    bool allGood = true;
    for (const auto &o : outcomes) {
        allGood = allGood &&
            o.status == RunStatus::Done && o.result.correct;
        t.addRow({o.workload, machineKindName(o.kind),
                  std::to_string(o.result.cycles),
                  o.result.correct ? "yes" : "NO",
                  o.fromJournal
                      ? std::string(runStatusName(o.status)) + "*"
                      : runStatusName(o.status),
                  fmtDouble(o.wallSeconds, 3)});
    }
    std::printf("%s\n", t.render().c_str());
    if (runner.timing().replayed > 0)
        std::printf("(* = replayed from journal %s)\n\n",
                    args.journalPath.c_str());

    const SweepTiming &timing = runner.timing();
    std::printf("threads:            %u\n", timing.threads);
    std::printf("total wall time:    %.3f s\n", timing.wallSeconds);
    std::printf("sum of job times:   %.3f s\n", timing.sumJobSeconds);
    if (args.resume) {
        // One line an operator can grep to tell a clean resume from a
        // lossy one: how much journal input was dropped on recovery.
        if (timing.tornRecordsDropped || timing.journalLinesSkipped)
            std::printf("replayed jobs:      %zu (lossy resume: "
                        "%zu torn record(s) dropped, %zu bytes; "
                        "%zu blank line(s) skipped)\n",
                        timing.replayed, timing.tornRecordsDropped,
                        timing.tornBytesDropped,
                        timing.journalLinesSkipped);
        else
            std::printf("replayed jobs:      %zu (clean resume, no "
                        "journal lines dropped)\n", timing.replayed);
    } else {
        std::printf("replayed jobs:      %zu\n", timing.replayed);
    }
    std::printf("aggregate speedup:  %.2fx\n", timing.speedup());
    std::printf("all done+correct:   %s\n", allGood ? "yes" : "NO");

    if (!args.jsonPath.empty())
        writeSweepJson(args.jsonPath, outcomes);
    if (!timingPath.empty())
        writeTimingJson(timingPath, runner, outcomes);
    if (!benchJsonPath.empty())
        writeBenchPerfJson(benchJsonPath, "sweep", args, runner,
                           outcomes);
    BenchArgs traceOnly = args;
    traceOnly.jsonPath.clear();
    finishBench(traceOnly);
    return allGood ? 0 : 1;
}
