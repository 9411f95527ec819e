#include "core/report.h"

#include <sstream>

#include "util/json.h"
#include "util/log.h"
#include "util/table.h"

namespace isrf {

EnergyCounts
energyCounts(Machine &m)
{
    EnergyCounts c;
    c.seqSrfWords = m.srf().seqWordsAccessed();
    c.idxSrfWords = m.srf().idxInLaneWords() + m.srf().idxCrossWords();
    c.cacheWords = m.mem().cache().hits();
    c.dramWords = m.mem().dram().wordsTransferred();
    return c;
}

std::string
machineReport(Machine &m, const ReportOptions &opts)
{
    std::ostringstream out;
    const MachineConfig &cfg = m.config();

    if (opts.includeConfig) {
        out << "=== Machine: " << cfg.name() << " ===\n";
        out << strprintf(
            "lanes=%u srf=%uKB m=%u subArrays=%u mode=%s topology=%s\n",
            cfg.srf.lanes, cfg.srf.totalBytes() / 1024, cfg.srf.seqWidth,
            cfg.srf.subArrays,
            cfg.srfMode == SrfMode::SequentialOnly ? "sequential"
                : cfg.srfMode == SrfMode::Indexed1 ? "ISRF1" : "ISRF4",
            cfg.srf.netTopology == NetTopology::Crossbar ? "crossbar"
                                                         : "ring");
    }

    if (opts.includeBreakdown) {
        const TimeBreakdown &b = m.breakdown();
        out << "cycles=" << m.now() << "  " << b.summary() << "\n";
    }

    // Only abnormal endings are surfaced, so reports of healthy runs
    // stay byte-identical across run-loop details.
    if (m.lastRunStatus() != RunStatus::Done)
        out << "run status: " << runStatusName(m.lastRunStatus())
            << "\n";

    if (opts.includeSrf) {
        out << strprintf(
            "srf: seqWords=%llu inLaneIdxWords=%llu crossIdxWords=%llu "
            "subArrayConflicts=%llu\n",
            static_cast<unsigned long long>(m.srf().seqWordsAccessed()),
            static_cast<unsigned long long>(m.srf().idxInLaneWords()),
            static_cast<unsigned long long>(m.srf().idxCrossWords()),
            static_cast<unsigned long long>(m.srf().subArrayConflicts()));
        for (const auto &row : m.srf().stats().formatRows())
            out << "  " << row << "\n";
    }

    if (opts.includeMemory) {
        const Dram &d = m.mem().dram();
        out << strprintf(
            "dram: words=%llu (seq=%llu random=%llu)\n",
            static_cast<unsigned long long>(d.wordsTransferred()),
            static_cast<unsigned long long>(d.seqWords()),
            static_cast<unsigned long long>(d.randomWords()));
        if (m.mem().cacheEnabled()) {
            const Cache &c = m.mem().cache();
            uint64_t acc = c.hits() + c.misses();
            out << strprintf(
                "cache: hits=%llu misses=%llu (%.1f%% hit rate) "
                "writebacks=%llu\n",
                static_cast<unsigned long long>(c.hits()),
                static_cast<unsigned long long>(c.misses()),
                acc ? 100.0 * static_cast<double>(c.hits()) /
                          static_cast<double>(acc)
                    : 0.0,
                static_cast<unsigned long long>(c.writebacks()));
        }
    }

    if (opts.includeKernels && !m.kernelBw().empty()) {
        Table t({"Kernel", "Invocations", "Lane-cycles", "Seq w/c",
                 "In-lane w/c", "Cross w/c"});
        for (const auto &kv : m.kernelBw()) {
            const KernelBwRecord &r = kv.second;
            t.addRow({kv.first, std::to_string(r.invocations),
                      std::to_string(r.laneCycles),
                      fmtDouble(r.seqPerLaneCycle(), 3),
                      fmtDouble(r.inLanePerLaneCycle(), 3),
                      fmtDouble(r.crossPerLaneCycle(), 3)});
        }
        out << t.render();
    }

    if (opts.includeEnergy) {
        EnergyModel energy;
        EnergyEstimate e = energy.estimate(energyCounts(m));
        out << "energy: " << e.summary() << "\n";
    }

    // Host-time profile: present only on profiled machines, so
    // unprofiled reports are byte-identical with profiling compiled in.
    if (m.profiler().enabled() && m.profiler().hasData()) {
        out << "profile (host ns, extrapolated):";
        for (int p = 0; p < Profiler::kPhaseCount; p++) {
            auto ph = static_cast<Profiler::Phase>(p);
            Profiler::PhaseStats s = m.profiler().phase(ph);
            if (s.calls == 0)
                continue;
            out << strprintf(" %s=%.0f", Profiler::phaseName(ph),
                             s.estNs());
        }
        out << "\n";
    }
    return out.str();
}

std::string
machineReportJson(Machine &m, const ReportOptions &opts)
{
    const MachineConfig &cfg = m.config();
    JsonWriter w;
    w.beginObject();

    if (opts.includeConfig) {
        w.key("machine").value(cfg.name());
        w.key("config").beginObject();
        w.field("lanes", cfg.srf.lanes);
        w.field("srf_kb", cfg.srf.totalBytes() / 1024);
        w.field("seq_width", cfg.srf.seqWidth);
        w.field("sub_arrays", cfg.srf.subArrays);
        w.key("mode").value(
            cfg.srfMode == SrfMode::SequentialOnly ? "sequential"
                : cfg.srfMode == SrfMode::Indexed1 ? "ISRF1" : "ISRF4");
        w.key("topology").value(
            cfg.srf.netTopology == NetTopology::Crossbar ? "crossbar"
                                                         : "ring");
        w.endObject();
    }

    if (opts.includeBreakdown) {
        const TimeBreakdown &b = m.breakdown();
        w.field("cycles", static_cast<uint64_t>(m.now()));
        w.key("breakdown").beginObject();
        w.field("loop_body", b.loopBody);
        w.field("mem_stall", b.memStall);
        w.field("srf_stall", b.srfStall);
        w.field("overhead", b.overhead);
        w.field("total", b.total());
        w.endObject();
    }

    // Emitted only for abnormal endings (see machineReport above).
    if (m.lastRunStatus() != RunStatus::Done)
        w.field("run_status",
                std::string(runStatusName(m.lastRunStatus())));

    if (opts.includeSrf) {
        w.key("srf").beginObject();
        w.field("seq_words", m.srf().seqWordsAccessed());
        w.field("in_lane_idx_words", m.srf().idxInLaneWords());
        w.field("cross_idx_words", m.srf().idxCrossWords());
        w.field("sub_array_conflicts", m.srf().subArrayConflicts());
        w.key("counters").beginObject();
        for (const auto &kv : m.srf().stats().counters())
            w.field(kv.first, kv.second.value());
        w.endObject();
        w.key("histograms").beginObject();
        for (const auto &kv : m.srf().stats().histograms()) {
            const Histogram &h = kv.second;
            w.key(kv.first).beginObject();
            w.field("samples", h.totalSamples());
            w.field("mean", h.mean());
            w.field("underflow", h.underflow());
            w.field("overflow", h.overflow());
            w.key("buckets").beginArray();
            for (uint64_t b : h.buckets())
                w.value(b);
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }

    if (opts.includeMemory) {
        const Dram &d = m.mem().dram();
        w.key("dram").beginObject();
        w.field("words", d.wordsTransferred());
        w.field("seq_words", d.seqWords());
        w.field("random_words", d.randomWords());
        w.field("row_hits", d.rowHits());
        w.field("row_misses", d.rowMisses());
        w.endObject();
        if (m.mem().cacheEnabled()) {
            const Cache &c = m.mem().cache();
            uint64_t acc = c.hits() + c.misses();
            w.key("cache").beginObject();
            w.field("hits", c.hits());
            w.field("misses", c.misses());
            w.field("hit_rate", acc
                ? static_cast<double>(c.hits()) / static_cast<double>(acc)
                : 0.0);
            w.field("writebacks", c.writebacks());
            w.endObject();
        }
    }

    if (opts.includeKernels) {
        w.key("kernels").beginArray();
        for (const auto &kv : m.kernelBw()) {
            const KernelBwRecord &r = kv.second;
            w.beginObject();
            w.field("name", kv.first);
            w.field("invocations", r.invocations);
            w.field("lane_cycles", r.laneCycles);
            w.field("seq_words_per_lane_cycle", r.seqPerLaneCycle());
            w.field("in_lane_words_per_lane_cycle",
                    r.inLanePerLaneCycle());
            w.field("cross_words_per_lane_cycle", r.crossPerLaneCycle());
            w.endObject();
        }
        w.endArray();
    }

    if (opts.includeEnergy) {
        EnergyModel energy;
        EnergyEstimate e = energy.estimate(energyCounts(m));
        w.key("energy").beginObject();
        w.field("seq_srf_nj", e.seqSrfNj);
        w.field("idx_srf_nj", e.idxSrfNj);
        w.field("cache_nj", e.cacheNj);
        w.field("dram_nj", e.dramNj);
        w.field("total_nj", e.totalNj());
        w.endObject();
    }

    if (m.sampler() && !m.sampler()->intervals().empty()) {
        w.key("samples").beginArray();
        for (const StatInterval &iv : m.sampler()->intervals()) {
            w.beginObject();
            w.field("start", static_cast<uint64_t>(iv.start));
            w.field("end", static_cast<uint64_t>(iv.end));
            w.key("deltas").beginObject();
            for (const auto &kv : iv.deltas)
                w.field(kv.first, kv.second);
            w.endObject();
            w.key("gauges").beginObject();
            for (const auto &kv : iv.gauges)
                w.field(kv.first, kv.second);
            w.endObject();
            w.endObject();
        }
        w.endArray();
    }

    // Present only when this machine was profiled (see machineReport).
    if (m.profiler().enabled() && m.profiler().hasData()) {
        w.key("profile");
        m.profiler().reportJson(w);
    }

    w.endObject();
    return w.str();
}

} // namespace isrf
