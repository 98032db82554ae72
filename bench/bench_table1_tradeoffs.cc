/**
 * @file
 * Table 1 (measured): the five NVM trade-offs and their impacts on
 * performance and lifetime. The paper states each direction
 * qualitatively; this bench measures every row on two contrasting
 * applications (write-heavy lbm, read-stream bwaves) and checks the
 * directions. The retention and read-disturbance rows exercise the
 * extension techniques built beyond the paper's evaluated space
 * (Section 8 notes the framework generalizes to them).
 */

#include <iostream>

#include "bench_common.hh"

using namespace mct;
using namespace mct::bench;

namespace
{

struct Row
{
    const char *tradeoff;
    const char *paperPerf;
    const char *paperLife;
    MellowConfig on;
    MellowConfig off;
};

const char *
arrow(double delta, double eps = 0.002)
{
    if (delta > eps)
        return "up";
    if (delta < -eps)
        return "down";
    return "flat";
}

} // namespace

int
main(int argc, char **argv)
{
    initHarness(argc, argv);
    banner("Table 1 (measured): trade-offs of NVM and their impacts");
    BenchSummary::instance().start();

    MellowConfig wcOff;
    wcOff.bankAware = true;
    wcOff.bankAwareThreshold = 4;
    wcOff.slowLatency = 3.0;
    MellowConfig wcOn = wcOff;
    wcOn.slowCancellation = true;

    // Eager writeback in isolation: eager writes at the same latency
    // as demand writes, so only the paper's claimed mechanism (extra
    // rewrites of eagerly-cleaned lines) remains.
    MellowConfig eagerOff;
    MellowConfig eagerOn = eagerOff;
    eagerOn.eagerWritebacks = true;
    eagerOn.eagerThreshold = 4;
    eagerOn.slowLatency = 1.0;

    MellowConfig slowOff; // fast writes only
    MellowConfig slowOn;
    slowOn.fastLatency = 3.0;

    MellowConfig retOff;
    MellowConfig retOn = retOff;
    retOn.shortRetentionWrites = true;

    MellowConfig distOff;
    MellowConfig distOn = distOff;
    distOn.fastDisturbingReads = true;

    const Row rows[] = {
        {"write cancellation", "up", "down", wcOn, wcOff},
        {"eager/early writeback", "up", "down", eagerOn, eagerOff},
        {"long-latency-high-endurance writes", "down", "up", slowOn,
         slowOff},
        {"short-latency-short-retention writes", "up", "down", retOn,
         retOff},
        {"short-latency-high-disturbance reads", "up", "down", distOn,
         distOff},
    };

    EvalParams ep = standardEvalParams();
    int matches = 0, checks = 0;
    for (const char *app : {"lbm", "bwaves"}) {
        std::printf("\n-- %s --\n", app);
        TextTable t;
        t.header({"trade-off", "dIPC", "dLife", "perf", "paper perf",
                  "life", "paper life"});
        for (const Row &row : rows) {
            const Metrics off = evaluateConfig(app, row.off, ep);
            const Metrics on = evaluateConfig(app, row.on, ep);
            const double dIpc = on.ipc / off.ipc - 1.0;
            const double dLife =
                on.lifetimeYears / off.lifetimeYears - 1.0;
            const char *perfDir = arrow(dIpc);
            const char *lifeDir = arrow(dLife, 0.01);
            t.row({row.tradeoff, fmt(dIpc * 100, 1) + "%",
                   fmt(dLife * 100, 1) + "%", perfDir, row.paperPerf,
                   lifeDir, row.paperLife});
            checks += 2;
            matches += std::string(perfDir) == row.paperPerf;
            matches += std::string(lifeDir) == row.paperLife;
        }
        t.print(std::cout);
    }
    std::printf("\ndirections matching Table 1: %d/%d\n", matches,
                checks);
    BenchSummary::instance().metric("directions_matched", matches);
    BenchSummary::instance().metric("directions_checked", checks);
    std::printf("(reads: 'up'/'down' relative to the same "
                "configuration with the technique disabled)\n");
    return 0;
}
