/**
 * @file
 * The repository benchmark. Runs one named workload through the
 * library's public entry points for a fixed host-time budget, checks
 * the simulated outputs against a digest, and prints every metric by
 * name and unit; the last stdout line is one JSON object.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--digests FILE] [--git-sha SHA]
 *   perfbench --selftest [--seed N]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced repetitions and reports the per-layer metrics.
 * See README.md for what each workload and metric is for.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "instruments.hh"
#include "mct/config_space.hh"
#include "mct/controller.hh"
#include "memctrl/mellow_config.hh"
#include "sim/evaluator.hh"
#include "sim/sweep_cache.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mct;
using perfbench::RecordingWorkload;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose output digests are pinned in digests.txt. */
constexpr std::uint64_t defaultSeed = 1;

/** Every System starts with empty caches and warms this long. */
constexpr InstCount warmInsts = 200 * 1000;

/** Steps each repetition of a step workload must take: with 100, the
 *  p90 step still has 10 samples beyond it. */
constexpr std::size_t minStepSamples = 100;

/** ideal-sweep measured window per evaluation. */
constexpr InstCount sweepMeasureInsts = 100 * 1000;

/** Span sampling of the traced run (as the pinned baseline run). */
constexpr std::uint64_t spanSampleEvery = 32;
constexpr std::size_t spanCapacity = 4096;

/** Nearest-rank percentile over @p pct percent. */
double
percentile(std::vector<double> v, unsigned pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = (v.size() * pct + 99) / 100;
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** Samples strictly above the nearest-rank @p pct percentile. */
std::size_t
samplesBeyond(std::size_t n, unsigned pct)
{
    return n - (n * pct + 99) / 100;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One System run: warm-up, then steps of @c stepInsts until
 * @c measureInsts more have retired (an MCT sampling period started by
 * a step runs to its end, so the last step may overshoot).
 */
struct JobSpec
{
    std::string app;
    MellowConfig cfg;
    InstCount stepInsts = 0;
    InstCount measureInsts = 0;
    bool mct = false; ///< drive through an MctController
};

/** Raw per-layer numbers of traced jobs: sums, and gauges whose
 *  median across jobs is reported. */
struct Traced
{
    std::map<std::string, double> sum;
    std::map<std::string, std::vector<double>> gauges;
};

/**
 * One repetition of a workload. Every repetition of a run does the
 * same simulated work (the digest checks it), segment by segment, so
 * segment i of one repetition is comparable with segment i of another.
 */
struct Rep
{
    double setupS = 0.0;
    double wallS = 0.0; ///< timed region, warm-up included
    std::vector<double> segS; ///< the timed region, segment by segment
    std::size_t firstStep = 1; ///< segments before this are warm-up
    double evalsPerStep = 1.0; ///< step_ms is per evaluation
    double insts = 0.0;
    double evals = 0.0;
    std::uint64_t digest = 0;
    Metrics metrics; ///< measured-window objectives (single job)
    double ipcRatio = 0.0; ///< MCT testing IPC over baseline (mct only)
    double energyRatio = 0.0;
    std::size_t sweepMisses = 0;
};

const std::vector<std::string> &
workloadList()
{
    static const std::vector<std::string> names = {
        "cache-resident", "write-storm", "ideal-sweep", "mct-adaptive"};
    return names;
}

/** The single-System workloads; ideal-sweep is built separately. */
JobSpec
jobFor(const std::string &workload)
{
    if (workload == "cache-resident")
        return {"zeusmp", staticBaselineConfig(), 50 * 1000,
                5 * 1000 * 1000, false};
    if (workload == "write-storm")
        return {"gups", staticBaselineConfig(), 20 * 1000,
                2 * 1000 * 1000, false};
    if (workload == "mct-adaptive")
        return {"lbm", staticBaselineConfig(), 40 * 1000,
                16 * 1000 * 1000, true};
    throw std::invalid_argument("no single-System job for " + workload);
}

double
statValue(const StatSnapshot &snap, const std::string &path)
{
    const auto it = snap.find(path);
    return it == snap.end() ? 0.0 : it->second.num;
}

/** Fold a traced job's in-situ stats and layer replays into @p t. */
void
tallyJob(Traced &t, System &sys, const RecordingWorkload &rec,
         const HostProfiler &hp, const MctController *ctl,
         double constructS)
{
    auto &s = t.sum;
    const StatSnapshot snap = sys.statRegistry().snapshot();
    const auto v = [&snap](const std::string &p) {
        return statValue(snap, p);
    };

    s["jobs"] += 1;
    s["construct_s"] += constructS;
    s["workloads.ops"] += static_cast<double>(rec.ops().size());
    s["workloads.next_s"] += rec.nextSeconds();

    const SystemParams &sp = sys.params();
    const perfbench::CacheReplay cr = perfbench::replayCaches(
        rec.ops(), sys.core().stats().memOps, rec.configChanges(),
        sp.caches, sp.core.eagerCheckPeriod);
    s["cache.replay_s"] += cr.seconds;
    s["cache.replay_accesses"] += static_cast<double>(cr.accesses);
    s["cache.eager_scans"] += static_cast<double>(cr.eagerScans);
    s["cache.eager_scan_s"] += cr.eagerScanSeconds;
    for (const char *lvl : {"l1d", "l2", "llc"}) {
        const std::string p = std::string("cache.") + lvl;
        s[p + ".accesses"] += v(p + ".accesses");
        s[p + ".hits"] += v(p + ".hits");
    }
    s["cache.llc.dirty_evictions"] += v("cache.llc.dirty_evictions");
    s["cache.llc.eager_cleaned"] += v("cache.llc.eager_cleaned");

    const unsigned mlp = std::min<unsigned>(sys.workload().traits().mlp,
                                            sp.core.maxMshrs);
    const perfbench::CtrlReplay mr = perfbench::replayController(
        cr.requests, rec.configChanges(), sp, mlp);
    s["memctrl.replay_s"] += mr.seconds;
    s["memctrl.requests"] += static_cast<double>(mr.requests);
    s["memctrl.advances"] += static_cast<double>(mr.advances);
    for (const char *c :
         {"reads_completed", "writes_completed", "readq_rejects",
          "writeq_rejects", "cancellations", "drain_bursts", "row_hits"})
        s[std::string("memctrl.") + c] += v(std::string("memctrl.") + c);
    s["memctrl.read_latency_ns_sum"] +=
        v("memctrl.avg_read_latency_ns") * v("memctrl.reads_completed");

    for (const char *g :
         {"lat.queue.p50_ns", "lat.queue.p99_ns", "lat.device.p50_ns",
          "lat.bank.p50_ns", "nvm.max_bank_wear",
          "nvm.leveling_efficiency"})
        t.gauges[g].push_back(v(g));
    s["nvm.total_wear"] += v("nvm.total_wear");

    s["cpu.instructions"] += static_cast<double>(sys.retired());
    s["cpu.ticks"] += static_cast<double>(sys.now());
    s["cpu.mem_stall_ticks"] += v("cpu.core0.mem_stall_ticks");
    s["cpu.nvm_reads"] += v("cpu.core0.nvm_reads");
    s["cpu.nvm_writebacks"] += v("cpu.core0.nvm_writebacks");

    if (ctl) {
        s["mct.sampling_s"] += hp.wallSeconds("sampling");
        s["mct.fit_s"] += hp.wallSeconds("fit");
        s["mct.optimize_s"] += hp.wallSeconds("optimize");
        s["mct.decisions"] += static_cast<double>(ctl->decisions().size());
        s["mct.rounds"] += static_cast<double>(ctl->decisions().size() +
                                               ctl->retryRounds());
        s["mct.resamplings"] += static_cast<double>(ctl->resamplings());
        s["mct.fallbacks"] += static_cast<double>(ctl->fallbacks());
        s["mct.health_checks"] += v("mct.health_checks");
        s["mct.sampling_insts"] +=
            static_cast<double>(ctl->samplingAccum().insts);
    }
}

/** Run one job; with @p traced set, instrument it and tally layers. */
Rep
runJob(const JobSpec &spec, std::uint64_t seed, Traced *traced)
{
    Rep r;
    SystemParams sp;
    sp.seed = seed;

    HostProfiler hp; // outlives the System it is attached to
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> wl = makeWorkload(spec.app, seed);
    RecordingWorkload *rec = nullptr;
    if (traced) {
        auto wrapped = std::make_unique<RecordingWorkload>(std::move(wl));
        rec = wrapped.get();
        wl = std::move(wrapped);
    }
    System sys(std::move(wl), sp, spec.cfg);
    const double constructS = secondsSince(t0);
    r.setupS = constructS;

    if (traced) {
        rec->observe(sys);
        sys.enableSpans(spanSampleEvery, spanCapacity);
        hp.enable();
        sys.attachHostProfiler(&hp);
    }

    const auto t1 = Clock::now();
    sys.run(warmInsts);
    r.segS.push_back(secondsSince(t1));

    std::unique_ptr<MctController> ctl;
    if (spec.mct) {
        const auto tc = Clock::now();
        MctParams mp;
        mp.seed = seed;
        ctl = std::make_unique<MctController>(sys, mp);
        r.setupS += secondsSince(tc);
    }

    const SysSnapshot start = sys.snapshot();
    const InstCount end = sys.retired() + spec.measureInsts;
    while (sys.retired() < end) {
        const auto ts = Clock::now();
        if (ctl)
            ctl->runFor(spec.stepInsts);
        else
            sys.run(spec.stepInsts);
        r.segS.push_back(secondsSince(ts));
    }
    if (ctl)
        ctl->finalizeAudit();
    for (const double seg : r.segS)
        r.wallS += seg;

    r.metrics = sys.metricsSince(start);
    r.digest = perfbench::outputDigest(r.metrics,
                                       sys.statRegistry().snapshot());
    r.insts = static_cast<double>(sys.retired());
    r.evals = 1.0;
    if (ctl) {
        const Metrics testing = ctl->testingAccum().metrics(sys);
        r.ipcRatio = testing.ipc / ctl->baselineMetrics().ipc;
        r.energyRatio = testing.energyJ / ctl->baselineMetrics().energyJ;
    }
    if (traced)
        tallyJob(*traced, sys, *rec, hp, ctl.get(), constructS);
    return r;
}

int
cancelPair(const MellowConfig &c)
{
    return c.fastCancellation ? 2 : (c.slowCancellation ? 1 : 0);
}

/**
 * The ideal-sweep slice: the static baseline plus one configuration
 * from each of four strata, so that together they cover every
 * bank-aware level (off, 1..4), eager writebacks on and off, each
 * cancellation pair (none, slow, fast+slow) and quota on and off.
 * Within a stratum the middle configuration in enumeration order is
 * taken.
 */
std::vector<MellowConfig>
stratifiedSlice(const std::vector<MellowConfig> &space)
{
    struct Stratum
    {
        int bank; ///< 0 = bank-aware off
        bool eager;
        int cancel;
        bool quota;
    };
    static constexpr Stratum strata[] = {
        {0, false, 0, false},
        {2, false, 2, false},
        {3, true, 0, true},
        {4, false, 1, true},
    };
    const MellowConfig baseline = staticBaselineConfig();
    if (std::find(space.begin(), space.end(), baseline) == space.end())
        throw std::runtime_error("static baseline not in the space");
    std::vector<MellowConfig> slice = {baseline};
    for (const Stratum &st : strata) {
        std::vector<const MellowConfig *> match;
        for (const MellowConfig &c : space) {
            const int bank = c.bankAware ? c.bankAwareThreshold : 0;
            if (bank == st.bank && c.eagerWritebacks == st.eager &&
                cancelPair(c) == st.cancel && c.wearQuota == st.quota)
                match.push_back(&c);
        }
        if (match.empty())
            throw std::runtime_error("empty ideal-sweep stratum");
        slice.push_back(*match[match.size() / 2]);
    }
    return slice;
}

/**
 * ideal-sweep: the slice on every app through one SweepCache::getAll
 * per app. The traced variant runs evaluateConfig's steps (construct,
 * warm up, measure) as instrumented jobs instead, which must give the
 * same objectives. One step sample per app: host ms per evaluation.
 */
Rep
runSweep(std::uint64_t seed, Traced *traced)
{
    Rep r;
    const auto t0 = Clock::now();
    const std::vector<MellowConfig> slice =
        stratifiedSlice(enumerateSpace());
    r.setupS = secondsSince(t0);

    EvalParams ep;
    ep.sys.seed = seed;
    ep.warmupInsts = warmInsts;
    ep.measureInsts = sweepMeasureInsts;
    SweepCache cache(ep);

    std::vector<Metrics> all;
    for (const std::string &app : workloadNames()) {
        std::vector<Metrics> ms;
        double seg = 0.0;
        if (traced) {
            for (const MellowConfig &cfg : slice) {
                const JobSpec spec{app, cfg, sweepMeasureInsts,
                                   sweepMeasureInsts, false};
                const Rep job = runJob(spec, seed, traced);
                ms.push_back(job.metrics);
                seg += job.setupS + job.wallS;
            }
        } else {
            const auto ts = Clock::now();
            ms = cache.getAll(app, slice);
            seg = secondsSince(ts);
        }
        r.wallS += seg;
        r.segS.push_back(seg);
        all.insert(all.end(), ms.begin(), ms.end());
    }
    r.evals = static_cast<double>(all.size());
    r.insts = r.evals * static_cast<double>(warmInsts + sweepMeasureInsts);
    r.digest = perfbench::metricsDigest(all);
    r.firstStep = 0;
    r.evalsPerStep = static_cast<double>(slice.size());
    r.sweepMisses = traced ? all.size() : cache.misses();
    return r;
}

Rep
runRep(const std::string &workload, std::uint64_t seed, Traced *traced)
{
    if (workload == "ideal-sweep")
        return runSweep(seed, traced);
    return runJob(jobFor(workload), seed, traced);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> endToEndDefs = {
    {"sim_mips", "Minst/s"}, {"wall_s", "s"},        {"setup_s", "s"},
    {"step_ms.p50", "ms"},   {"step_ms.p90", "ms"},  {"evals_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics; @c home names the workload where the layer
 *  should dominate, and @c moves what it should move there. */
struct LayerDef
{
    const char *name;
    const char *unit;
    const char *home;
    const char *moves;
};

constexpr const char *wlMoves = "sim_mips; barely write-storm";
constexpr const char *cacheMoves = "sim_mips, step_ms.*; barely write-storm";
constexpr const char *ctrlMoves =
    "sim_mips, step_ms.*; barely cache-resident";
constexpr const char *mctMoves = "wall_s; 0 on other workloads";

const std::vector<LayerDef> layerDefs = {
    {"workloads.ops", "count", "mct-adaptive", wlMoves},
    {"workloads.next_ns", "ns", "mct-adaptive", wlMoves},
    {"workloads.self_s", "s", "mct-adaptive", wlMoves},
    {"cache.access_ns", "ns", "cache-resident", cacheMoves},
    {"cache.eager_scans", "count", "cache-resident", cacheMoves},
    {"cache.eager_scan_us", "us", "cache-resident", cacheMoves},
    {"cache.self_s", "s", "cache-resident", cacheMoves},
    {"cache.l1d.hit_rate", "ratio", "cache-resident", "simulated"},
    {"cache.l2.hit_rate", "ratio", "cache-resident", "simulated"},
    {"cache.llc.hit_rate", "ratio", "cache-resident", "simulated"},
    {"cache.llc.dirty_evictions", "count", "cache-resident", "simulated"},
    {"cache.eager_cleaned", "count", "cache-resident", "simulated"},
    {"memctrl.req_ns", "ns", "write-storm", ctrlMoves},
    {"memctrl.advance_per_req", "ratio", "write-storm", ctrlMoves},
    {"memctrl.self_s", "s", "write-storm", ctrlMoves},
    {"memctrl.reads_completed", "count", "write-storm", "simulated"},
    {"memctrl.writes_completed", "count", "write-storm", "simulated"},
    {"memctrl.readq_rejects", "count", "write-storm", "simulated"},
    {"memctrl.writeq_rejects", "count", "write-storm", "simulated"},
    {"memctrl.cancellations", "count", "write-storm", "simulated"},
    {"memctrl.drain_bursts", "count", "write-storm", "simulated"},
    {"memctrl.row_hit_rate", "ratio", "write-storm", "simulated"},
    {"memctrl.avg_read_latency_ns", "ns", "write-storm", "simulated"},
    {"lat.queue.p50_ns", "ns", "write-storm", "simulated"},
    {"lat.queue.p99_ns", "ns", "write-storm", "simulated"},
    {"nvm.total_wear", "lines", "write-storm", "simulated: model drift"},
    {"nvm.max_bank_wear", "lines", "write-storm", "simulated: model drift"},
    {"nvm.leveling_efficiency", "ratio", "write-storm",
     "simulated: model drift"},
    {"lat.device.p50_ns", "ns", "write-storm", "simulated: model drift"},
    {"lat.bank.p50_ns", "ns", "write-storm", "simulated: model drift"},
    {"cpu.ipc", "ratio", "mct-adaptive", "simulated: explains mct.ipc_ratio"},
    {"cpu.mem_stall_frac", "ratio", "mct-adaptive",
     "simulated: explains mct.ipc_ratio"},
    {"cpu.nvm_reads", "count", "mct-adaptive",
     "simulated: explains mct.ipc_ratio"},
    {"cpu.nvm_writebacks", "count", "mct-adaptive",
     "simulated: explains mct.ipc_ratio"},
    {"sim.construct_ms", "ms", "", "setup_s on every workload"},
    {"sweep.eval_s", "s", "ideal-sweep", "evals_per_s; 0 elsewhere"},
    {"sweep.misses", "count", "ideal-sweep", "= evaluations; 0 elsewhere"},
    {"mct.sampling_s", "s", "mct-adaptive", mctMoves},
    {"mct.fit_s", "s", "mct-adaptive", mctMoves},
    {"mct.optimize_s", "s", "mct-adaptive", mctMoves},
    {"mct.decisions", "count", "mct-adaptive", mctMoves},
    {"mct.resamplings", "count", "mct-adaptive", mctMoves},
    {"mct.fallbacks", "count", "mct-adaptive", mctMoves},
    {"mct.health_checks", "count", "mct-adaptive", mctMoves},
    {"mct.sampling_insts_frac", "ratio", "mct-adaptive", mctMoves},
    {"mct.ipc_ratio", "ratio", "mct-adaptive", "simulated; 0 elsewhere"},
    {"mct.energy_ratio", "ratio", "mct-adaptive", "simulated; 0 elsewhere"},
    {"ml.fit_ms_per_round", "ms", "mct-adaptive", mctMoves},
    {"trace.overhead_frac", "ratio", "", "how far tracing distorts shares"},
};

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Percentile over a run's repetitions that every timing takes. */
constexpr unsigned repPct = 90;

/**
 * Host time of each segment at repPct over the run's repetitions. The
 * shared host moves between a loaded state and a faster one for
 * seconds at a time. The median lands wherever the load happened to
 * be; the loaded state recurs in nearly every run and repeats to
 * within a few percent, so timings report it.
 */
std::vector<double>
segmentTimes(const std::vector<Rep> &reps)
{
    std::vector<double> out(reps.front().segS.size());
    std::vector<double> xs(reps.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t r = 0; r < reps.size(); ++r)
            xs[r] = reps[r].segS.at(i);
        out[i] = percentile(xs, repPct);
    }
    return out;
}

/** Step samples (ms per step, or per evaluation for ideal-sweep). */
std::vector<double>
stepSamples(const Rep &shape, const std::vector<double> &segs)
{
    std::vector<double> steps;
    for (std::size_t i = shape.firstStep; i < segs.size(); ++i)
        steps.push_back(segs[i] * 1e3 / shape.evalsPerStep);
    return steps;
}

std::map<std::string, double>
endToEnd(const std::vector<Rep> &reps)
{
    const Rep &shape = reps.front();
    const std::vector<double> steps =
        stepSamples(shape, segmentTimes(reps));
    std::vector<double> walls, setups;
    for (const Rep &r : reps) {
        walls.push_back(r.wallS);
        setups.push_back(r.setupS);
    }
    const double wall = percentile(walls, repPct);
    return {
        {"sim_mips", shape.insts / wall / 1e6},
        {"wall_s", wall},
        {"setup_s", median(setups)},
        {"step_ms.p50", percentile(steps, 50)},
        {"step_ms.p90", percentile(steps, 90)},
        {"evals_per_s", shape.evals / wall},
        {"peak_rss_mb", peakRssMb()},
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics of one untraced/traced pair. */
std::map<std::string, double>
layerMetrics(const std::string &workload, const Traced &t,
             const Rep &untraced, const Rep &traced)
{
    const auto s = [&t](const char *k) {
        const auto it = t.sum.find(k);
        return it == t.sum.end() ? 0.0 : it->second;
    };
    const auto g = [&t](const char *k) {
        const auto it = t.gauges.find(k);
        return it == t.gauges.end() ? 0.0 : median(it->second);
    };
    const double cacheAccessS = s("cache.replay_s") - s("cache.eager_scan_s");
    const bool sweep = workload == "ideal-sweep";
    return {
        {"workloads.ops", s("workloads.ops")},
        {"workloads.next_ns", ratio(s("workloads.next_s") * 1e9,
                                    s("workloads.ops"))},
        {"workloads.self_s", s("workloads.next_s")},
        {"cache.access_ns",
         ratio(cacheAccessS * 1e9, s("cache.replay_accesses"))},
        {"cache.eager_scans", s("cache.eager_scans")},
        {"cache.eager_scan_us",
         ratio(s("cache.eager_scan_s") * 1e6, s("cache.eager_scans"))},
        {"cache.self_s", s("cache.replay_s")},
        {"cache.l1d.hit_rate",
         ratio(s("cache.l1d.hits"), s("cache.l1d.accesses"))},
        {"cache.l2.hit_rate",
         ratio(s("cache.l2.hits"), s("cache.l2.accesses"))},
        {"cache.llc.hit_rate",
         ratio(s("cache.llc.hits"), s("cache.llc.accesses"))},
        {"cache.llc.dirty_evictions", s("cache.llc.dirty_evictions")},
        {"cache.eager_cleaned", s("cache.llc.eager_cleaned")},
        {"memctrl.req_ns",
         ratio(s("memctrl.replay_s") * 1e9, s("memctrl.requests"))},
        {"memctrl.advance_per_req",
         ratio(s("memctrl.advances"), s("memctrl.requests"))},
        {"memctrl.self_s", s("memctrl.replay_s")},
        {"memctrl.reads_completed", s("memctrl.reads_completed")},
        {"memctrl.writes_completed", s("memctrl.writes_completed")},
        {"memctrl.readq_rejects", s("memctrl.readq_rejects")},
        {"memctrl.writeq_rejects", s("memctrl.writeq_rejects")},
        {"memctrl.cancellations", s("memctrl.cancellations")},
        {"memctrl.drain_bursts", s("memctrl.drain_bursts")},
        {"memctrl.row_hit_rate",
         ratio(s("memctrl.row_hits"), s("memctrl.reads_completed"))},
        {"memctrl.avg_read_latency_ns",
         ratio(s("memctrl.read_latency_ns_sum"),
               s("memctrl.reads_completed"))},
        {"lat.queue.p50_ns", g("lat.queue.p50_ns")},
        {"lat.queue.p99_ns", g("lat.queue.p99_ns")},
        {"nvm.total_wear", s("nvm.total_wear")},
        {"nvm.max_bank_wear", g("nvm.max_bank_wear")},
        {"nvm.leveling_efficiency", g("nvm.leveling_efficiency")},
        {"lat.device.p50_ns", g("lat.device.p50_ns")},
        {"lat.bank.p50_ns", g("lat.bank.p50_ns")},
        {"cpu.ipc", ratio(s("cpu.instructions") *
                              static_cast<double>(cpuCyclePs),
                          s("cpu.ticks"))},
        {"cpu.mem_stall_frac",
         ratio(s("cpu.mem_stall_ticks"), s("cpu.ticks"))},
        {"cpu.nvm_reads", s("cpu.nvm_reads")},
        {"cpu.nvm_writebacks", s("cpu.nvm_writebacks")},
        {"sim.construct_ms", ratio(s("construct_s") * 1e3, s("jobs"))},
        {"sweep.eval_s", sweep ? ratio(untraced.wallS, untraced.evals) : 0.0},
        {"sweep.misses",
         sweep ? static_cast<double>(untraced.sweepMisses) : 0.0},
        {"mct.sampling_s", s("mct.sampling_s")},
        {"mct.fit_s", s("mct.fit_s")},
        {"mct.optimize_s", s("mct.optimize_s")},
        {"mct.decisions", s("mct.decisions")},
        {"mct.resamplings", s("mct.resamplings")},
        {"mct.fallbacks", s("mct.fallbacks")},
        {"mct.health_checks", s("mct.health_checks")},
        {"mct.sampling_insts_frac",
         ratio(s("mct.sampling_insts"), s("cpu.instructions"))},
        {"mct.ipc_ratio", untraced.ipcRatio},
        {"mct.energy_ratio", untraced.energyRatio},
        {"ml.fit_ms_per_round", ratio(s("mct.fit_s") * 1e3, s("mct.rounds"))},
        {"trace.overhead_frac", traced.wallS / untraced.wallS - 1.0},
    };
}

// ---------------------------------------------------------------------
// Self-tests of the instruments
// ---------------------------------------------------------------------

/** The decorator forwards a byte-identical op stream and state. */
bool
checkDecoratorIdentity(const std::string &app, std::uint64_t seed)
{
    std::unique_ptr<Workload> plain = makeWorkload(app, seed);
    RecordingWorkload wrapped(makeWorkload(app, seed));
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 20000; ++i) {
            WorkloadOp a, b;
            plain->next(a);
            wrapped.next(b);
            if (a.gap != b.gap || a.isWrite != b.isWrite ||
                a.addr != b.addr || a.dependent != b.dependent)
                return false;
        }
        Serializer sa, sb;
        plain->serialize(sa);
        wrapped.serialize(sb);
        if (sa.data() != sb.data())
            return false;
        plain->reset(seed + 1);
        wrapped.reset(seed + 1);
    }
    return true;
}

/**
 * With eager writebacks off, cache state does not depend on timing,
 * so replaying the recorded stream through a fresh hierarchy must
 * reproduce the in-situ counters exactly.
 */
bool
checkCacheReplay(const std::string &app, std::uint64_t seed)
{
    SystemParams sp;
    sp.seed = seed;
    auto wrapped = std::make_unique<RecordingWorkload>(
        makeWorkload(app, seed));
    RecordingWorkload *rec = wrapped.get();
    System sys(std::move(wrapped), sp, defaultConfig());
    rec->observe(sys);
    sys.run(300 * 1000);
    const perfbench::CacheReplay cr = perfbench::replayCaches(
        rec->ops(), sys.core().stats().memOps, rec->configChanges(),
        sp.caches, sp.core.eagerCheckPeriod);
    const StatSnapshot snap = sys.statRegistry().snapshot();
    const auto same = [&snap](const char *path, std::uint64_t replayed) {
        return statValue(snap, path) == static_cast<double>(replayed);
    };
    return same("cache.l1d.accesses", cr.l1.accesses) &&
           same("cache.l1d.hits", cr.l1.hits) &&
           same("cache.l2.accesses", cr.l2.accesses) &&
           same("cache.l2.hits", cr.l2.hits) &&
           same("cache.llc.accesses", cr.llc.accesses) &&
           same("cache.llc.hits", cr.llc.hits) &&
           same("cache.llc.dirty_evictions", cr.llc.dirtyEvictions);
}

/** Run the instrument self-tests; returns the number that failed. */
std::size_t
runSelfTests(std::uint64_t seed, std::size_t &attempted)
{
    std::size_t failed = 0;
    for (const std::string &app : workloadNames()) {
        const bool ok = checkDecoratorIdentity(app, seed) &&
                        checkCacheReplay(app, seed);
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("selftest FAILED: instruments on %s\n",
                        app.c_str());
        }
    }
    for (const char *w : {"cache-resident", "write-storm", "mct-adaptive"}) {
        const JobSpec spec = jobFor(w);
        ++attempted;
        if (spec.measureInsts / spec.stepInsts < minStepSamples ||
            samplesBeyond(minStepSamples, 90) < 10) {
            ++failed;
            std::printf("selftest FAILED: %s has too few steps\n", w);
        }
    }
    return failed;
}

// ---------------------------------------------------------------------
// Command line and reports
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string digests;
    std::string gitSha = "unknown";
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--digests FILE] "
                 "[--git-sha SHA]\n       perfbench --selftest "
                 "[--seed N]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used, 10);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest") {
            o.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(a, v));
            haveSeconds = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--digests") {
            o.digests = v;
        } else if (a == "--git-sha") {
            o.gitSha = v;
        } else {
            usage("unknown flag " + a);
        }
    }
    if (o.selftest)
        return o;
    if (std::find(workloadList().begin(), workloadList().end(),
                  o.workload) == workloadList().end())
        usage("unknown workload '" + o.workload + "'");
    if (!haveSeconds || o.seconds < 1)
        usage("--seconds must be a positive whole number");
    if (!haveTrace)
        usage("--trace is required");
    return o;
}

/** The pinned digest of @p workload at the default seed, or 0. */
std::uint64_t
pinnedDigest(const std::string &path, const std::string &workload)
{
    std::ifstream f(path);
    std::string name, hex;
    while (f >> name >> hex) {
        if (name != workload)
            continue;
        std::size_t used = 0;
        std::uint64_t v = 0;
        try {
            v = std::stoull(hex, &used, 16);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != hex.size() || hex.size() != 16)
            usage("malformed digest for " + name + " in " + path);
        return v;
    }
    return 0;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto value = line.find_first_not_of(" \t:",
                                                      line.find(':'));
            if (value != std::string::npos)
                return line.substr(value);
        }
    }
    return "unknown";
}

void
printHost(const Options &o)
{
    std::printf("perfbench  workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace);
    std::printf("host       git=%s nproc=%u cpu=\"%s\"\n", o.gitSha.c_str(),
                std::thread::hardware_concurrency(), cpuModel().c_str());
    std::printf("build      compiler=\"g++ %s\" type=%s flags=\"%s\"\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
}

/** Digest bookkeeping shared by both modes. */
struct DigestCheck
{
    std::uint64_t reference = 0;
    bool pinned = false;

    /** False (and a printed reason) when @p d does not match. */
    bool
    accept(std::uint64_t d, const char *what)
    {
        if (reference == 0)
            reference = d;
        if (d == reference)
            return true;
        std::printf("digest MISMATCH (%s): %s, expected %s%s\n", what,
                    hex(d).c_str(), hex(reference).c_str(),
                    pinned ? " (pinned)" : "");
        return false;
    }
};

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<std::pair<std::string, std::string>> &units,
          const std::map<std::string, double> &values)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : units) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", values.at(name));
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

bool
allFinite(const std::map<std::string, double> &values)
{
    for (const auto &[name, v] : values) {
        if (!std::isfinite(v)) {
            std::printf("metric %s is not finite\n", name.c_str());
            return false;
        }
    }
    return true;
}

int
runEndToEnd(const Options &o, DigestCheck &dc)
{
    std::vector<Rep> reps;
    std::size_t attempted = 0, failed = 0;
    const auto t0 = Clock::now();
    do {
        ++attempted;
        try {
            Rep r = runRep(o.workload, o.seed, nullptr);
            if (dc.accept(r.digest, "repetition"))
                reps.push_back(std::move(r));
            else
                ++failed;
        } catch (const std::exception &e) {
            ++failed;
            std::printf("repetition FAILED: %s\n", e.what());
        }
    } while (secondsSince(t0) < o.seconds);
    std::printf("digest     %s (%s)\n", hex(dc.reference).c_str(),
                dc.pinned ? "pinned" : "first repetition");
    if (reps.empty()) {
        printJson(false, attempted, failed, {}, {});
        return 1;
    }
    const std::map<std::string, double> m = endToEnd(reps);
    std::vector<std::pair<std::string, std::string>> units;
    std::printf("%-18s %14s  %s\n", "metric", "value", "unit");
    for (const MetricDef &d : endToEndDefs) {
        units.emplace_back(d.name, d.unit);
        std::printf("%-18s %14.6g  %s\n", d.name, m.at(d.name), d.unit);
    }
    std::printf("%-18s %14.6g  ratio  (%zu of %zu repetitions)\n",
                "failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
    if (reps.front().ipcRatio > 0.0) {
        std::printf("%-18s %14.6g  ratio  (simulated; seed-dependent)\n",
                    "mct_ipc_ratio", reps.front().ipcRatio);
        std::printf("%-18s %14.6g  ratio  (simulated; seed-dependent)\n",
                    "mct_energy_ratio", reps.front().energyRatio);
    }
    const std::size_t steps = stepSamples(reps.front(), reps.front().segS)
                                  .size();
    std::printf("repetitions %zu, each %.0f simulated insts in %zu "
                "segments; step samples %zu (p90 has %zu beyond it); "
                "timings are the p%u over repetitions\n",
                reps.size(), reps.front().insts, reps.front().segS.size(),
                steps, samplesBeyond(steps, 90), repPct);
    // ideal-sweep has one sample per app; its step_ms is exempt.
    const bool guard = o.workload == "ideal-sweep" ||
                       samplesBeyond(steps, 90) >= 10;
    if (!guard)
        std::printf("step guard FAILED: fewer than 10 samples beyond p90\n");
    printJson(failed == 0 && guard && allFinite(m), attempted, failed,
              units, m);
    return 0;
}

int
runTraced(const Options &o, DigestCheck &dc)
{
    std::size_t attempted = 0;
    std::size_t failed = runSelfTests(o.seed, attempted);
    std::vector<std::map<std::string, double>> pairs;
    const auto t0 = Clock::now();
    do {
        attempted += 2;
        try {
            const Rep u = runRep(o.workload, o.seed, nullptr);
            Traced tally;
            const Rep t = runRep(o.workload, o.seed, &tally);
            failed += !dc.accept(u.digest, "untraced repetition");
            failed += !dc.accept(t.digest, "traced repetition");
            pairs.push_back(layerMetrics(o.workload, tally, u, t));
        } catch (const std::exception &e) {
            failed += 2;
            std::printf("repetition FAILED: %s\n", e.what());
        }
    } while (secondsSince(t0) < o.seconds);
    std::printf("digest     %s (%s)\n", hex(dc.reference).c_str(),
                dc.pinned ? "pinned" : "first repetition");
    if (pairs.empty()) {
        printJson(false, attempted, failed, {}, {});
        return 1;
    }

    std::map<std::string, double> m;
    for (const auto &[name, v] : pairs.front()) {
        std::vector<double> xs;
        for (const auto &p : pairs)
            xs.push_back(p.at(name));
        m[name] = median(xs);
    }
    std::printf("per-layer medians over %zu untraced/traced pairs; * marks "
                "the metrics whose layer should dominate on this "
                "workload\n",
                pairs.size());
    std::printf("  %-28s %14s  %-6s %s\n", "metric", "value", "unit",
                "should move [on]");
    std::vector<std::pair<std::string, std::string>> units;
    for (const LayerDef &d : layerDefs) {
        units.emplace_back(d.name, d.unit);
        const bool home = o.workload == d.home;
        std::printf("%s %-28s %14.6g  %-6s %s%s%s%s\n", home ? "*" : " ",
                    d.name, m.at(d.name), d.unit, d.moves,
                    *d.home ? " [" : "", d.home, *d.home ? "]" : "");
    }
    const double layerSum = m.at("workloads.self_s") +
                            m.at("cache.self_s") + m.at("memctrl.self_s");
    std::printf("replayed host time: workloads %.0f%%, cache %.0f%%, "
                "memctrl %.0f%%\n",
                100.0 * ratio(m.at("workloads.self_s"), layerSum),
                100.0 * ratio(m.at("cache.self_s"), layerSum),
                100.0 * ratio(m.at("memctrl.self_s"), layerSum));
    printJson(failed == 0 && allFinite(m), attempted, failed, units, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report from an "
                         "unoptimised build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
#endif
    const Options o = parseArgs(argc, argv);
    setLogLevel(LogLevel::Warn);

    if (o.selftest) {
        std::size_t attempted = 0;
        const std::size_t failed = runSelfTests(o.seed, attempted);
        std::printf("selftest: %zu of %zu checks failed\n", failed,
                    attempted);
        return failed == 0 ? 0 : 1;
    }

    printHost(o);
    DigestCheck dc;
    if (o.seed == defaultSeed && !o.digests.empty()) {
        dc.reference = pinnedDigest(o.digests, o.workload);
        dc.pinned = dc.reference != 0;
    }
    return o.trace ? runTraced(o, dc) : runEndToEnd(o, dc);
}
