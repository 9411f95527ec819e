#include "driver/perf_diff.h"

#include <cmath>
#include <cstdio>
#include <map>

#include "util/json.h"
#include "util/jsonl.h"
#include "util/log.h"

namespace isrf {

const char *const kPerfRecordSchema = "isrf-perf-record-v1";

const char *
perfDeltaKindName(PerfDeltaKind k)
{
    switch (k) {
      case PerfDeltaKind::Regression: return "REGRESSION";
      case PerfDeltaKind::Improvement: return "improvement";
      case PerfDeltaKind::Noise: return "within-noise";
      case PerfDeltaKind::MissingInCurrent: return "MISSING-IN-CURRENT";
      case PerfDeltaKind::MissingInBaseline: return "new-metric";
    }
    return "?";
}

bool
splitJsonArray(const std::string &raw, std::vector<std::string> &out)
{
    out.clear();
    std::vector<JsonMemberSpan> elems;
    if (!jsonScan(raw, '[', elems))
        return false;
    for (const JsonMemberSpan &e : elems)
        out.push_back(raw.substr(e.begin, e.end - e.begin));
    return true;
}

namespace {

/** Strip trailing newline(s) so the whole file is one LineView line. */
std::string
oneLine(const std::string &text)
{
    size_t end = text.find_first_of("\r\n");
    return end == std::string::npos ? text : text.substr(0, end);
}

/** Flattened metric -> value map extracted from one perf record. */
struct Metrics
{
    std::map<std::string, double> values;
    std::string error;

    bool ok() const { return error.empty(); }
};

void
addTotals(const std::string &raw, Metrics &m)
{
    JsonLineView totals(raw);
    if (!totals.valid()) {
        m.error = "'totals' is not a JSON object";
        return;
    }
    double v = 0.0;
    for (const char *key :
         {"wall_seconds", "sum_job_seconds", "sim_cycles_per_second"})
        if (totals.getDouble(key, v))
            m.values[std::string("totals.") + key] = v;
}

void
addJobs(const std::string &raw, Metrics &m)
{
    std::vector<std::string> elems;
    if (!splitJsonArray(raw, elems)) {
        m.error = "'jobs' is not a JSON array";
        return;
    }
    for (const std::string &e : elems) {
        JsonLineView job(e);
        if (!job.valid()) {
            m.error = "jobs[] element is not a JSON object";
            return;
        }
        // A replayed job's wall time is journal-read time, not
        // simulation time — comparing it against a fresh run (or vice
        // versa) would be meaningless, so replayed jobs are dropped
        // from the metric set on whichever side they appear.
        bool replayed = false;
        if (job.getBool("replayed", replayed) && replayed)
            continue;
        std::string workload, machine;
        double wall = 0.0;
        if (!job.getString("workload", workload) ||
            !job.getString("machine", machine) ||
            !job.getDouble("wall_seconds", wall))
            continue;
        m.values["job[" + workload + "/" + machine + "].wall_seconds"] =
            wall;
    }
}

Metrics
extractMetrics(const std::string &recordJson, const char *label)
{
    Metrics m;
    JsonLineView rec(oneLine(recordJson));
    if (!rec.valid()) {
        m.error = strprintf("%s: not a JSON object", label);
        return m;
    }
    std::string schema;
    if (!rec.getString("schema", schema) || schema != kPerfRecordSchema) {
        m.error = strprintf("%s: missing or unsupported schema "
                            "(expected \"%s\")", label, kPerfRecordSchema);
        return m;
    }
    std::string raw;
    if (rec.getRaw("totals", raw))
        addTotals(raw, m);
    if (m.ok() && rec.getRaw("jobs", raw))
        addJobs(raw, m);
    if (m.ok() && m.values.empty())
        m.error = strprintf("%s: no comparable metrics", label);
    if (!m.ok())
        m.error = strprintf("%s (%s)", m.error.c_str(), label);
    return m;
}

/** True for metrics measured in seconds (the minSeconds floor applies). */
bool
secondsMetric(const std::string &name)
{
    return name.size() >= 8 &&
        name.compare(name.size() - 8, 8, "_seconds") == 0;
}

/** True for metrics where larger is better. */
bool
higherIsBetter(const std::string &name)
{
    return name == "totals.sim_cycles_per_second";
}

PerfDelta
compareMetric(const std::string &name, double base, double cur,
              const PerfDiffOptions &opts)
{
    PerfDelta d;
    d.metric = name;
    d.baseline = base;
    d.current = cur;
    // Direction-normalize: frac > 0 always means "got worse".
    double diff = higherIsBetter(name) ? base - cur : cur - base;
    d.frac = base != 0.0 ? diff / std::fabs(base) : 0.0;
    bool significant = std::fabs(d.frac) > opts.threshold;
    if (secondsMetric(name) && std::fabs(cur - base) < opts.minSeconds)
        significant = false;
    if (!significant)
        d.kind = PerfDeltaKind::Noise;
    else if (d.frac > 0)
        d.kind = PerfDeltaKind::Regression;
    else
        d.kind = PerfDeltaKind::Improvement;
    return d;
}

} // namespace

bool
PerfDiffResult::regression() const
{
    for (const PerfDelta &d : deltas)
        if (d.kind == PerfDeltaKind::Regression ||
            d.kind == PerfDeltaKind::MissingInCurrent)
            return true;
    return false;
}

std::string
PerfDiffResult::summary() const
{
    if (!ok())
        return "perf_diff error: " + error + "\n";
    std::string out;
    for (const PerfDelta &d : deltas) {
        if (d.kind == PerfDeltaKind::MissingInCurrent ||
            d.kind == PerfDeltaKind::MissingInBaseline) {
            out += strprintf("%-20s %s\n",
                             perfDeltaKindName(d.kind), d.metric.c_str());
            continue;
        }
        out += strprintf("%-20s %s: %.6g -> %.6g (%+.1f%%)\n",
                         perfDeltaKindName(d.kind), d.metric.c_str(),
                         d.baseline, d.current, 100.0 * d.frac);
    }
    return out;
}

PerfDiffResult
perfDiff(const std::string &baselineJson, const std::string &currentJson,
         const PerfDiffOptions &opts)
{
    PerfDiffResult res;
    Metrics base = extractMetrics(baselineJson, "baseline");
    if (!base.ok()) {
        res.error = base.error;
        return res;
    }
    Metrics cur = extractMetrics(currentJson, "current");
    if (!cur.ok()) {
        res.error = cur.error;
        return res;
    }
    for (const auto &kv : base.values) {
        auto it = cur.values.find(kv.first);
        if (it == cur.values.end()) {
            PerfDelta d;
            d.metric = kv.first;
            d.baseline = kv.second;
            d.kind = PerfDeltaKind::MissingInCurrent;
            res.deltas.push_back(d);
            continue;
        }
        res.deltas.push_back(
            compareMetric(kv.first, kv.second, it->second, opts));
    }
    for (const auto &kv : cur.values) {
        if (base.values.count(kv.first))
            continue;
        PerfDelta d;
        d.metric = kv.first;
        d.current = kv.second;
        d.kind = PerfDeltaKind::MissingInBaseline;
        res.deltas.push_back(d);
    }
    return res;
}

PerfDiffResult
perfDiffFiles(const std::string &baselinePath,
              const std::string &currentPath,
              const PerfDiffOptions &opts)
{
    auto slurp = [](const std::string &path, std::string &out) {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            return false;
        char buf[65536];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, got);
        bool ok = !std::ferror(f);
        std::fclose(f);
        return ok;
    };
    PerfDiffResult res;
    std::string base, cur;
    if (!slurp(baselinePath, base)) {
        res.error = strprintf("cannot read baseline '%s'",
                              baselinePath.c_str());
        return res;
    }
    if (!slurp(currentPath, cur)) {
        res.error = strprintf("cannot read current '%s'",
                              currentPath.c_str());
        return res;
    }
    return perfDiff(base, cur, opts);
}

} // namespace isrf
