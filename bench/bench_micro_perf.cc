/**
 * @file
 * Google-Benchmark microbenchmarks of the library's hot paths: cache
 * accesses, controller request servicing, whole-system simulation
 * throughput, feature encoding, and the online predictors' fit +
 * predict cost over the full learning space (the engineering data
 * behind Table 7's overhead column).
 *
 * Run with --benchmark_filter=... like any Google Benchmark binary.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mct/predictors.hh"
#include "mct/samplers.hh"
#include "sim/system.hh"

namespace
{

using namespace mct;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"L3", 2 * 1024 * 1024, 16});
    Rng rng(7);
    Victim v;
    const std::uint64_t lines = 256 * 1024; // 16 MB working set
    for (auto _ : state) {
        const Addr addr = rng.below(lines) * lineBytes;
        benchmark::DoNotOptimize(cache.access(addr, rng.flip(0.3), v));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheEagerScan(benchmark::State &state)
{
    // A full 2 MB / 16-way LLC: the 12 most recent ways of every set
    // are dirty, and so is the LRU way of every 32nd set. Cyclic hits
    // over 12 lines of set 0 put the whole hit histogram at stack
    // position 11, so threshold 4 leaves a 4-position dead region and
    // each call scans its full 64-set budget for two candidates.
    Cache cache(CacheParams{"L3", 2 * 1024 * 1024, 16});
    const std::uint64_t sets = cache.numSets();
    Victim v;
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (std::uint64_t t = 0; t < 16; ++t)
            cache.access((t * sets + s) * lineBytes,
                         t >= 4 || (t == 0 && s % 32 == 0), v);
    }
    for (std::uint64_t i = 0; i < 1200; ++i)
        cache.access((4 + i % 12) * sets * lineBytes, false, v);
    if (cache.uselessPositions(4) != 4) {
        state.SkipWithError("unexpected dead region");
        return;
    }
    std::vector<Addr> out;
    for (auto _ : state) {
        out.clear();
        benchmark::DoNotOptimize(cache.collectEagerCandidates(4, 8, out));
        // Re-dirty the candidates in place (a writeback hit keeps the
        // stack position), so every call finds the same work.
        for (const Addr a : out)
            cache.writeback(a, v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheEagerScan);

void
BM_HierarchyAccess(benchmark::State &state)
{
    CacheHierarchy hier{HierarchyParams{}};
    Rng rng(9);
    AccessOutcome out;
    const std::uint64_t lines = 1024 * 1024; // 64 MB working set
    for (auto _ : state) {
        hier.access(rng.below(lines) * lineBytes, rng.flip(0.3), out);
        benchmark::DoNotOptimize(out.hitLevel);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void
BM_ControllerReadService(benchmark::State &state)
{
    NvmDevice dev{NvmParams{}};
    MemController ctrl(dev, MemCtrlParams{}, defaultConfig());
    Rng rng(11);
    Tick t = 0;
    std::uint64_t id = 0;
    for (auto _ : state) {
        const Addr addr = rng.below(1 << 22) * lineBytes;
        while (!ctrl.submitRead(addr, t, ++id))
            ctrl.advance(ctrl.nextEventTick());
        t += 200 * tickNs;
        ctrl.advance(t);
        ctrl.completedReads().clear();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerReadService);

void
BM_ControllerWriteStorm(benchmark::State &state)
{
    // gups at the controller: each op writes back a random dirty line
    // and issues a dependent read of another random line, then pumps
    // the controller event by event until that read returns, as Core
    // does (items = read-modify-write ops).
    NvmDevice dev{NvmParams{}};
    MemController ctrl(dev, MemCtrlParams{}, staticBaselineConfig());
    Rng rng(13);
    Tick t = 0;
    std::uint64_t id = 0;
    auto pump = [&] {
        const Tick next = ctrl.nextEventTick();
        ctrl.advance(next == ctrl.now() ? next + 1 : next);
        t = std::max(t, ctrl.now());
    };
    for (auto _ : state) {
        while (!ctrl.submitWrite(rng.below(1 << 24) * lineBytes, t))
            pump();
        const Addr addr = rng.below(1 << 24) * lineBytes;
        while (!ctrl.submitRead(addr, t, ++id))
            pump();
        for (bool done = false; !done;) {
            pump();
            for (const auto &[rid, tick] : ctrl.completedReads())
                done |= rid == id;
            ctrl.completedReads().clear();
        }
        t += 2 * tickNs;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerWriteStorm);

void
BM_SystemSimulation(benchmark::State &state)
{
    // Simulated instructions per second of wall clock; the quantity
    // that sizes sweeps (items = simulated instructions).
    SystemParams sp;
    System sys("milc", sp, staticBaselineConfig());
    sys.run(100 * 1000); // warm
    constexpr InstCount chunk = 20 * 1000;
    for (auto _ : state)
        sys.run(chunk);
    state.SetItemsProcessed(state.iterations() * chunk);
}
BENCHMARK(BM_SystemSimulation)->Unit(benchmark::kMillisecond);

void
BM_ConfigEncoding(benchmark::State &state)
{
    const auto space = enumerateNoQuotaSpace();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            configToVector(space[i++ % space.size()]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfigEncoding);

/** Table 7 overhead column, measured properly: fit on 77 samples and
 *  predict the whole learning space. */
void
BM_PredictorFitPredict(benchmark::State &state)
{
    const auto kind =
        static_cast<PredictorKind>(state.range(0));
    static const auto space = enumerateNoQuotaSpace();
    static const auto samples = featureBasedSamples(42);
    static const auto idx = indicesInSpace(space, samples);
    static const ml::Matrix xAll = encodeSpace(space);

    // A synthetic smooth target over the configuration vector.
    TrainData d;
    d.space = &space;
    d.sampleIdx = idx;
    d.sampleY.clear();
    for (auto i : idx) {
        d.sampleY.push_back(2.0 - 0.3 * xAll(i, 6) -
                            0.1 * xAll(i, 7) + 0.05 * xAll(i, 9));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(predictAllConfigs(kind, d));
}
BENCHMARK(BM_PredictorFitPredict)
    ->Arg(static_cast<int>(PredictorKind::Linear))
    ->Arg(static_cast<int>(PredictorKind::LinearLasso))
    ->Arg(static_cast<int>(PredictorKind::Quadratic))
    ->Arg(static_cast<int>(PredictorKind::QuadraticLasso))
    ->Arg(static_cast<int>(PredictorKind::GradientBoosting))
    ->Unit(benchmark::kMillisecond);

void
BM_FeatureBasedSampling(benchmark::State &state)
{
    std::uint64_t seed = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(featureBasedSamples(seed++));
}
BENCHMARK(BM_FeatureBasedSampling);

void
BM_SpaceEnumeration(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(enumerateSpace());
}
BENCHMARK(BM_SpaceEnumeration);

} // namespace

BENCHMARK_MAIN();
