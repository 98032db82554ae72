/**
 * @file
 * Robustness: the live MCT runtime under every built-in fault plan.
 *
 * For each plan the controller runs on a write-heavy workload with
 * the fault injector attached and the table reports the measured
 * outcome next to the recovery work it took to get there (quarantined
 * samples, rejected predictions, fallbacks, emergency clamps). The
 * invariants the chaos tests assert — finite metrics, wear quota
 * engaged at the end — are checked here too, so a regression shows up
 * as a FAIL cell rather than a crash.
 */

#include <cmath>

#include <iostream>

#include "bench_common.hh"
#include "common/fault_plan.hh"
#include "sim/fault_injector.hh"

using namespace mct;
using namespace mct::bench;

namespace
{

/** Run in short chunks so windowed faults inside long spans fire,
 *  observing a timeline/alert window at every chunk boundary. */
void
runChunked(System &sys, MctController &ctl, InstCount insts)
{
    const InstCount chunk = 50 * 1000;
    StatSnapshot prev = sys.statRegistry().snapshot();
    for (InstCount done = 0; done < insts; done += chunk) {
        ctl.runFor(std::min(chunk, insts - done));
        StatSnapshot cur = sys.statRegistry().snapshot();
        sys.observeWindow(sys.retired(),
                          StatRegistry::delta(prev, cur));
        prev = std::move(cur);
    }
}

/** The watchdog rules every plan runs under: a non-finite objective
 *  is always a bug (critical; the table's finite check would go FAIL
 *  with it), and a sharp break from the smoothed IPC trend flags the
 *  plans that visibly disturb execution (warn, informational). */
std::vector<AlertRule>
watchdogRules()
{
    AlertRule nonfinite;
    nonfinite.name = "objective-nonfinite";
    nonfinite.glob = "sim.objective.*";
    nonfinite.cond = AlertCondition::Nonfinite;
    nonfinite.severity = AlertSeverity::Critical;
    AlertRule collapse;
    collapse.name = "ipc-collapse";
    collapse.glob = "sim.objective.ipc";
    collapse.cond = AlertCondition::EwmaDev;
    collapse.threshold = 0.5;
    collapse.severity = AlertSeverity::Warn;
    return {nonfinite, collapse};
}

} // namespace

int
main(int argc, char **argv)
{
    initHarness(argc, argv);
    const std::string app = "stream";
    const InstCount totalInsts = 4 * 1000 * 1000;

    banner("Robustness: live MCT runtime under built-in fault plans "
           "(" + app + ", 4M insts)");
    BenchSummary::instance().start();

    TextTable t;
    t.header({"plan", "injected", "IPC", "life(y)", "quarant",
              "rejected", "fallbk", "clamps", "reeng", "alerts",
              "ok"});

    std::vector<std::string> plans = {"(clean)"};
    for (const std::string &name : builtinFaultPlanNames())
        plans.push_back(name);

    for (const std::string &name : plans) {
        SystemParams sp;
        System sys(app, sp, staticBaselineConfig());

        FaultPlan plan;
        if (name != "(clean)") {
            const FaultPlanParse parsed =
                parseFaultPlan(builtinFaultPlanText(name));
            plan = parsed.plan;
        }
        FaultInjector inj(plan, 42);
        sys.attachFaultInjector(&inj);
        sys.enableTimeline({"sim.objective.*"}, 128);
        sys.enableAlerts(watchdogRules());

        sys.run(standardEvalParams().warmupInsts);

        MctParams mp;
        mp.sampling.unitInsts = 2000;
        mp.sampling.settleInsts = 1000;
        mp.sampling.rounds = 2;
        MctController ctl(sys, mp);
        sys.alerts().setEscalation(
            [&ctl](const AlertRule &, const std::string &) {
                ctl.noteCriticalAlert();
            });

        const SysSnapshot s0 = sys.snapshot();
        runChunked(sys, ctl, totalInsts);
        const Metrics m = sys.metricsSince(s0);

        const bool finite = std::isfinite(m.ipc) &&
                            std::isfinite(m.energyJ) &&
                            std::isfinite(m.lifetimeYears);
        const bool quotaOn = ctl.currentConfig().wearQuota;
        t.row({name, fmt(double(inj.injectedTotal()), 0),
               fmt(m.ipc, 3), fmt(m.lifetimeYears, 2),
               fmt(double(ctl.quarantinedSamples()), 0),
               fmt(double(ctl.rejectedPredictions()), 0),
               fmt(double(ctl.fallbacks()), 0),
               fmt(double(ctl.emergencyClamps()), 0),
               fmt(double(ctl.reengagements()), 0),
               fmt(double(sys.alerts().raised()), 0),
               finite && quotaOn ? "ok" : "FAIL"});
        BenchSummary::instance().metric(name + ".ipc", m.ipc);
        BenchSummary::instance().metric(name + ".lifetime_years",
                                        m.lifetimeYears);
        BenchSummary::instance().observability(sys, name);
    }
    t.print(std::cout);
    return 0;
}
