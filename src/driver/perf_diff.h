/**
 * @file
 * Comparator for `BENCH_*.json` perf records (schema
 * isrf-perf-record-v1, written by bench_sweep --bench-json).
 *
 * perfDiff() compares the metrics of a current record against a
 * baseline with a configurable noise model and classifies each metric
 * as Regression / Improvement / Noise / Missing. Wall-clock metrics
 * are lower-is-better; sim-cycles-per-second is higher-is-better. A
 * change only counts as a regression when it exceeds BOTH the
 * fractional threshold and (for seconds metrics) an absolute floor —
 * a 30% blowup of a 3 ms job is scheduler noise, not a regression.
 *
 * The tools/perf_diff CLI wraps this for CI: exit 0 on no regression,
 * 1 on regression (or a metric that vanished from the current record),
 * 2 on unreadable/invalid input.
 */
#ifndef ISRF_DRIVER_PERF_DIFF_H
#define ISRF_DRIVER_PERF_DIFF_H

#include <string>
#include <vector>

namespace isrf {

/** Perf-record schema tag accepted by perfDiff(). */
extern const char *const kPerfRecordSchema;

/** Noise model for perfDiff(). */
struct PerfDiffOptions
{
    /**
     * Fractional change treated as significant (0.25 = 25%). Applied
     * symmetrically: beyond it in the bad direction is Regression, in
     * the good direction Improvement, else Noise.
     */
    double threshold = 0.25;

    /**
     * Absolute floor for seconds-valued metrics: a change smaller than
     * this many seconds is Noise regardless of its fraction.
     */
    double minSeconds = 0.05;
};

enum class PerfDeltaKind : uint8_t {
    Regression,         ///< significantly worse than baseline
    Improvement,        ///< significantly better than baseline
    Noise,              ///< within the noise model
    MissingInCurrent,   ///< baseline metric absent now (treated as failure)
    MissingInBaseline,  ///< new metric, nothing to compare (informational)
};

const char *perfDeltaKindName(PerfDeltaKind k);

/** One compared metric. */
struct PerfDelta
{
    std::string metric;  ///< e.g. "totals.wall_seconds", "job[Sort/ISRF4].wall_seconds"
    double baseline = 0.0;
    double current = 0.0;
    /**
     * Signed badness fraction: positive = worse, negative = better,
     * already direction-normalized (a cycles/sec drop is positive).
     */
    double frac = 0.0;
    PerfDeltaKind kind = PerfDeltaKind::Noise;
};

struct PerfDiffResult
{
    std::vector<PerfDelta> deltas;
    /** Non-empty when either record failed to parse. */
    std::string error;

    bool ok() const { return error.empty(); }

    /** True when any delta is Regression or MissingInCurrent. */
    bool regression() const;

    /** Human-readable multi-line report of every delta. */
    std::string summary() const;
};

/** Compare two serialized perf records. */
PerfDiffResult perfDiff(const std::string &baselineJson,
                        const std::string &currentJson,
                        const PerfDiffOptions &opts = {});

/** Compare two perf-record files. */
PerfDiffResult perfDiffFiles(const std::string &baselinePath,
                             const std::string &currentPath,
                             const PerfDiffOptions &opts = {});

/**
 * Split a serialized JSON array into its top-level element texts,
 * without surrounding space. @return false when `raw` is not exactly
 * one valid JSON array.
 */
bool splitJsonArray(const std::string &raw,
                    std::vector<std::string> &out);

} // namespace isrf

#endif // ISRF_DRIVER_PERF_DIFF_H
