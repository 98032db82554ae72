/**
 * @file
 * Crash-safe checkpoint/restore tests: the binary codec and its FNV
 * checksum, the telemetry Ring and its cursor checks on load, atomic
 * file publication, the double-buffered CheckpointStore (sequence
 * continuation, corrupt-slot quarantine, version skew), per-component
 * state round-trips, and end-to-end
 * resume equivalence — a run restored mid-flight must re-produce the
 * uninterrupted run's state byte for byte — and the golden corpus,
 * whose checkpoint bytes are pinned by digest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/alerts.hh"
#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "common/ring.hh"
#include "common/serialize.hh"
#include "mct/controller.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injector.hh"
#include "sim/system.hh"
#include "workloads/trace.hh"

namespace mct
{
namespace
{

/** Fresh per-test path inside the gtest temp dir. */
std::string
tmpPath(const std::string &name)
{
    const std::string p = std::string(::testing::TempDir()) +
                          "mct_ckpt_" + name;
    std::remove(p.c_str());
    std::remove((p + ".0").c_str());
    std::remove((p + ".1").c_str());
    std::remove((p + ".0.corrupt").c_str());
    std::remove((p + ".1.corrupt").c_str());
    return p;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
exists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

TEST(Fnv1a, ReferenceVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(SerializeCodec, RoundTripAllTypes)
{
    Serializer s;
    s.putU8(0xab);
    s.putBool(true);
    s.putBool(false);
    s.putU32(0xdeadbeefU);
    s.putU64(0x0123456789abcdefULL);
    s.putI64(-42);
    s.putF64(-1234.5678);
    const std::string nul("hello\0world", 11);
    s.putStr(nul); // embedded NUL must survive
    s.putStr("");

    Deserializer d(s.data().data(), s.size());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_EQ(d.getU32(), 0xdeadbeefU);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_EQ(d.getF64(), -1234.5678);
    EXPECT_EQ(d.getStr(), nul);
    EXPECT_EQ(d.getStr(), "");
    EXPECT_TRUE(d.atEnd());
}

TEST(SerializeCodec, UnderrunFailsCleanly)
{
    Serializer s;
    s.putU32(7);
    Deserializer d(s.data().data(), s.size());
    EXPECT_EQ(d.getU64(), 0u); // 4 bytes short
    EXPECT_FALSE(d.ok());
    EXPECT_FALSE(d.atEnd());
}

TEST(SerializeCodec, SeqLengthBeyondPayloadFailsBeforeAllocating)
{
    // A length prefix claiming 2^60 elements over 16 bytes of payload.
    Serializer s;
    s.putU64(1ULL << 60);
    s.putF64(1.0);
    s.putF64(2.0);
    Deserializer d(s.data());
    std::vector<double> v{9.0};
    d.seq(v, [&](double &x) { d.f64(x); });
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 1u); // nothing was reserved

    // Within the byte bound but past the data: a short container.
    Serializer t;
    t.putU32(5);
    t.putF64(1.0);
    t.putF64(2.0);
    Deserializer e(t.data());
    std::vector<double> w;
    e.seq32(w, [&](double &x) { e.f64(x); });
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(w, (std::vector<double>{1.0, 2.0}));
}

TEST(Ring, WrapsOldestFirstAndRoundTrips)
{
    Ring<int> r;
    r.reset(3);
    const auto held = [](const Ring<int> &ring) {
        std::vector<int> out;
        ring.forEach([&](int v) { out.push_back(v); });
        return out;
    };
    r.push() = 0;
    r.push() = 1;
    EXPECT_EQ(held(r), (std::vector<int>{0, 1}));
    EXPECT_EQ(r.dropped(), 0u);
    for (int i = 2; i < 5; ++i)
        r.push() = i;
    EXPECT_EQ(held(r), (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.recorded(), 5u);
    EXPECT_EQ(r.dropped(), 2u);

    Serializer s;
    r.cursors(s);
    r.slots([&](const int &v) { s.u64(v); });
    Ring<int> back;
    back.reset(3);
    Deserializer d(s.data());
    back.cursors(d);
    back.slots([&](int &v) { d.u64(v); });
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(held(back), held(r));
    EXPECT_EQ(back.recorded(), 5u);
    // The restored head overwrites the same slot the original would.
    r.push() = 5;
    back.push() = 5;
    EXPECT_EQ(held(back), (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(held(back), held(r));
}

/** A cap-4 EventTrace checkpoint whose head/held/total cursors (the
 *  three u64s after the capacity) are overwritten. */
std::string
traceBytesWithCursors(std::uint64_t head, std::uint64_t held,
                      std::uint64_t total)
{
    EventTrace t;
    t.enable(4);
    for (int i = 0; i < 6; ++i)
        t.record(TraceEventType::PhaseChange, i);
    Serializer s;
    t.serialize(s);
    Serializer cursors;
    cursors.putU64(head);
    cursors.putU64(held);
    cursors.putU64(total);
    std::string bytes = s.data();
    bytes.replace(8, cursors.size(), cursors.data());
    return bytes;
}

void
loadTrace(const std::string &bytes)
{
    EventTrace t;
    t.enable(4);
    Deserializer d(bytes);
    t.deserialize(d);
}

TEST(RingCheckpointDeathTest, HeadOutsideCapacityPanics)
{
    loadTrace(traceBytesWithCursors(2, 4, 6)); // the valid cursors
    EXPECT_DEATH(loadTrace(traceBytesWithCursors(4, 4, 6)),
                 "ring head 4 outside capacity 4");
}

TEST(RingCheckpointDeathTest, HeldOverCapacityPanics)
{
    EXPECT_DEATH(loadTrace(traceBytesWithCursors(2, 100, 100)),
                 "ring holds 100 records over capacity 4");
}

TEST(RingCheckpointDeathTest, HeldOverRecordedPanics)
{
    EXPECT_DEATH(loadTrace(traceBytesWithCursors(3, 3, 2)),
                 "ring holds 3 records of 2 recorded");
}

TEST(AtomicFileTest, CommitPublishesContent)
{
    const std::string path = tmpPath("atomic.txt");
    AtomicFile f(path);
    f.stream() << "line one\n";
    ASSERT_TRUE(f.commit());
    EXPECT_EQ(slurp(path), "line one\n");
    EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicFileTest, NoCommitLeavesTargetUntouched)
{
    const std::string path = tmpPath("atomic_keep.txt");
    ASSERT_TRUE(writeFileAtomic(path, "original"));
    {
        AtomicFile f(path);
        f.stream() << "discarded";
    }
    EXPECT_EQ(slurp(path), "original");
}

TEST(CheckpointStoreTest, SaveLoadRoundTrip)
{
    CheckpointStore store(tmpPath("rt"));
    ASSERT_TRUE(store.save("fp-1", "payload-bytes"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.payload, "payload-bytes");
    EXPECT_EQ(r.fingerprint, "fp-1");
    EXPECT_EQ(r.sequence, 1u);
    EXPECT_FALSE(r.corruptRejected);
    EXPECT_EQ(store.writes(), 1u);
}

TEST(CheckpointStoreTest, DoubleBufferKeepsPreviousSlot)
{
    const std::string base = tmpPath("db");
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "first"));
    ASSERT_TRUE(store.save("fp", "second"));
    ASSERT_TRUE(store.save("fp", "third"));
    // Slots alternate; both files must exist and load() must pick the
    // highest sequence.
    EXPECT_TRUE(exists(base + ".0"));
    EXPECT_TRUE(exists(base + ".1"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.payload, "third");
    EXPECT_EQ(r.sequence, 3u);
}

TEST(CheckpointStoreTest, SequenceContinuesAcrossRestart)
{
    const std::string base = tmpPath("seq");
    {
        CheckpointStore store(base);
        ASSERT_TRUE(store.save("fp", "one"));
        ASSERT_TRUE(store.save("fp", "two"));
    }
    // A new store over the same base (a resumed process) must not
    // reuse sequence numbers or clobber the newest slot first.
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "three"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.sequence, 3u);
    EXPECT_EQ(r.payload, "three");
}

TEST(CheckpointStoreTest, TruncatedSlotQuarantinedWithFallback)
{
    const std::string base = tmpPath("trunc");
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "good-old"));
    ASSERT_TRUE(store.save("fp", "newest"));
    const std::string newest = store.newestSlot();
    const std::string body = slurp(newest);
    {
        std::ofstream out(newest,
                          std::ios::binary | std::ios::trunc);
        out << body.substr(0, body.size() / 2);
    }
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "good-old");
    EXPECT_EQ(r.sequence, 1u);
    EXPECT_EQ(store.corruptLoads(), 1u);
    EXPECT_TRUE(exists(newest + ".corrupt"));
    EXPECT_FALSE(exists(newest));
}

TEST(CheckpointStoreTest, BitFlipRejectedByChecksum)
{
    const std::string base = tmpPath("flip");
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "older"));
    ASSERT_TRUE(store.save("fp", "newer"));
    const std::string newest = store.newestSlot();
    std::string body = slurp(newest);
    body[body.size() / 3] ^= 0x04;
    {
        std::ofstream out(newest,
                          std::ios::binary | std::ios::trunc);
        out << body;
    }
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "older");
    EXPECT_EQ(store.corruptLoads(), 1u);
}

TEST(CheckpointStoreTest, FaultInjectorCorruptionIsRejected)
{
    const std::string base = tmpPath("inj");
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "older"));
    ASSERT_TRUE(store.save("fp", "newer"));

    const FaultPlanParse plan = parseFaultPlan("corrupt-ckpt");
    ASSERT_TRUE(plan.ok) << plan.error;
    FaultInjector inj(plan.plan, 7);
    EXPECT_TRUE(inj.wantsCkptCorruption());
    EXPECT_TRUE(inj.corruptCheckpointFile(store.newestSlot()));
    EXPECT_EQ(inj.injected(FaultKind::CkptCorrupt), 1u);

    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "older");
}

/** Build a checkpoint file with an arbitrary format version. */
void
writeVersionSkewed(const std::string &file, std::uint32_t version)
{
    static constexpr char magic[8] = {'M', 'C', 'T', 'C',
                                      'K', 'P', 'T', '\0'};
    Serializer s;
    for (const char c : magic)
        s.putU8(static_cast<std::uint8_t>(c));
    s.putU32(version);
    s.putU64(1);
    s.putStr("fp");
    s.putStr("payload");
    s.putU64(fnv1a(s.data().data(), s.size()));
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << s.data();
}

TEST(CheckpointStoreTest, FutureFormatVersionRejected)
{
    const std::string base = tmpPath("ver");
    writeVersionSkewed(base + ".0",
                       checkpointFormatVersion + 1);
    CheckpointStore store(base);
    const CheckpointLoadResult r = store.load();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("format version"), std::string::npos)
        << r.error;
    EXPECT_EQ(store.corruptLoads(), 1u);
    EXPECT_TRUE(exists(base + ".0.corrupt"));
}

TEST(CheckpointStoreTest, MissingCheckpointReportsError)
{
    CheckpointStore store(tmpPath("missing"));
    const CheckpointLoadResult r = store.load();
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(store.corruptLoads(), 0u); // missing is not corrupt
}

TEST(CheckpointStoreTest, HostScopedStats)
{
    CheckpointStore store(tmpPath("stats"));
    ASSERT_TRUE(store.save("fp", "x"));
    store.noteResume();
    StatRegistry reg;
    store.registerStats(reg);
    const StatSnapshot sim = reg.snapshot(StatScope::Sim);
    EXPECT_EQ(sim.count("ckpt.writes"), 0u)
        << "ckpt stats must not leak into deterministic snapshots";
    const StatSnapshot host = reg.snapshot(StatScope::Host);
    ASSERT_EQ(host.count("ckpt.writes"), 1u);
    EXPECT_EQ(host.at("ckpt.writes").num, 1.0);
    EXPECT_EQ(host.at("ckpt.resumes").num, 1.0);
}

/** Serialize the full deterministic state of @p sys. */
std::string
stateBytes(const System &sys)
{
    Serializer s;
    sys.serialize(s);
    return s.data();
}

TEST(SystemRoundTrip, RestoreReproducesStateBytes)
{
    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();
    System a("lbm", sp, cfg);
    a.eventTrace().enable(1024);
    a.enableSpans(64, 512);
    a.run(120 * 1000);

    const std::string bytes = stateBytes(a);
    System b("lbm", sp, cfg);
    b.eventTrace().enable(1024);
    b.enableSpans(64, 512);
    Deserializer d(bytes);
    b.deserialize(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(stateBytes(b), bytes);
    EXPECT_EQ(b.retired(), a.retired());
    EXPECT_EQ(b.now(), a.now());
    Serializer snapA;
    Serializer snapB;
    serializeSnapshot(snapA, a.statRegistry().snapshot());
    serializeSnapshot(snapB, b.statRegistry().snapshot());
    EXPECT_EQ(snapB.data(), snapA.data());
}

TEST(SystemRoundTrip, RestoredRunMatchesUninterrupted)
{
    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();

    // Uninterrupted reference: 100k then 150k more.
    System a("lbm", sp, cfg);
    a.eventTrace().enable(512);
    a.run(100 * 1000);
    const std::string mid = stateBytes(a);
    a.run(150 * 1000);

    // "Crashed" at 100k, restored into a fresh system, run forward.
    System b("lbm", sp, cfg);
    b.eventTrace().enable(512);
    Deserializer d(mid);
    b.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    b.run(150 * 1000);

    EXPECT_EQ(stateBytes(b), stateBytes(a));
    EXPECT_EQ(b.retired(), a.retired());
}

/**
 * Run @p app until a quantum boundary that satisfies @p ready, restore
 * that state into a fresh System, and check that both stay byte-equal
 * over further chunks of different lengths.
 */
template <typename Ready>
void
expectRestoreLockstep(const std::string &app, InstCount warmup,
                      Ready ready)
{
    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();
    System a(app, sp, cfg);
    a.run(warmup);
    for (int tries = 0; !ready(a) && tries < 1000; ++tries)
        a.run(7);
    ASSERT_TRUE(ready(a)) << app << ": no boundary met the condition";

    const std::string mid = stateBytes(a);
    System b(app, sp, cfg);
    Deserializer d(mid);
    b.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    ASSERT_EQ(stateBytes(b), mid);
    for (int chunk = 0; chunk < 30; ++chunk) {
        const InstCount insts = 500 + 97 * chunk;
        a.run(insts);
        b.run(insts);
        ASSERT_EQ(stateBytes(b), stateBytes(a)) << app << " chunk " << chunk;
    }
    EXPECT_EQ(b.retired(), a.retired());
}

TEST(SystemRoundTrip, GupsRestoreWithBanksBusyStaysInLockstep)
{
    // Every gups load is dependent (depProb 1), so no demand read
    // outlives a quantum; once the LLC is full, writebacks keep banks
    // busy instead.
    expectRestoreLockstep("gups", 400 * 1000, [](const System &s) {
        return s.controller().busyBanks() >= 2;
    });
}

TEST(SystemRoundTrip, RestoreWithMshrsOutstandingStaysInLockstep)
{
    // milc overlaps up to 8 independent misses.
    expectRestoreLockstep("milc", 20 * 1000, [](const System &s) {
        return s.core().outstandingReads() >= 3 &&
               s.controller().busyBanks() > 0;
    });
}

/** Scaled-down runtime parameters so controller tests stay quick. */
MctParams
fastParams()
{
    MctParams p;
    p.sampling.unitInsts = 2000;
    p.sampling.settleInsts = 1000;
    p.sampling.rounds = 2;
    p.healthCheckPeriod = 300 * 1000;
    return p;
}

/** Serialize system + controller exactly as the driver does. */
std::string
fullStateBytes(const System &sys, const MctController &ctl)
{
    Serializer s;
    sys.serialize(s);
    ctl.serialize(s);
    return s.data();
}

TEST(ControllerRoundTrip, RestoredRunMatchesUninterrupted)
{
    SystemParams sp;
    const MctParams mp = fastParams();

    System sysA("lbm", sp, staticBaselineConfig());
    sysA.eventTrace().enable(1024);
    sysA.provenanceTrace().enable(256);
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    ctlA.runFor(300 * 1000);
    const std::string mid = fullStateBytes(sysA, ctlA);
    ctlA.runFor(200 * 1000);

    // Restore order mirrors the driver: construct, overlay system,
    // overlay controller, then continue.
    System sysB("lbm", sp, staticBaselineConfig());
    sysB.eventTrace().enable(1024);
    sysB.provenanceTrace().enable(256);
    MctController ctlB(sysB, mp);
    Deserializer d(mid);
    sysB.deserialize(d);
    ctlB.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    ctlB.runFor(200 * 1000);

    EXPECT_EQ(fullStateBytes(sysB, ctlB),
              fullStateBytes(sysA, ctlA));
    EXPECT_EQ(ctlB.decisions().size(), ctlA.decisions().size());
    EXPECT_EQ(toString(ctlB.currentConfig()),
              toString(ctlA.currentConfig()));
}

TEST(ControllerRoundTrip, KillAtEveryChunkBoundaryResumesIdentically)
{
    SystemParams sp;
    const MctParams mp = fastParams();
    constexpr InstCount chunk = 100 * 1000;
    constexpr int chunks = 4;

    // The uninterrupted run, checkpointing at every chunk boundary.
    System sysA("lbm", sp, staticBaselineConfig());
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    std::vector<std::string> snaps;
    for (int k = 0; k < chunks; ++k) {
        ctlA.runFor(chunk);
        snaps.push_back(fullStateBytes(sysA, ctlA));
    }

    // Kill after chunk K, restore, run the remainder: the final state
    // must match the uninterrupted run's for every K.
    for (int k = 0; k < chunks - 1; ++k) {
        System sysB("lbm", sp, staticBaselineConfig());
        MctController ctlB(sysB, mp);
        Deserializer d(snaps[static_cast<std::size_t>(k)]);
        sysB.deserialize(d);
        ctlB.deserialize(d);
        ASSERT_TRUE(d.atEnd());
        for (int r = k + 1; r < chunks; ++r)
            ctlB.runFor(chunk);
        EXPECT_EQ(fullStateBytes(sysB, ctlB), snaps.back())
            << "kill after chunk " << k;
    }
}

/** The alert rule set for resume-identity tests: guaranteed to raise
 *  (instructions always flow) so the log ring, streaks, and counters
 *  all carry nontrivial state across the checkpoint. */
std::vector<AlertRule>
smokeAlertRules()
{
    AlertRule r;
    r.name = "insts-flowing";
    r.glob = "sim.instructions";
    r.cond = AlertCondition::Above;
    r.threshold = 0.0;
    r.windows = 2;
    return {r};
}

void
armObservability(System &sys)
{
    // Capacity 3 < the 4 windows observed, so the resume also has to
    // reproduce ring wraparound and dropped-window accounting.
    sys.enableTimeline({"sim.objective.*", "sim.instructions"}, 3);
    sys.enableAlerts(smokeAlertRules());
}

/** The two telemetry surfaces a resumed run must reproduce
 *  byte-for-byte: the timeline document and the alert log. */
std::string
observabilityBytes(const System &sys)
{
    std::ostringstream os;
    std::map<std::string, double> fin;
    sys.alerts().appendFinal(fin);
    sys.timeline().writeJson(os, "mct", "lbm", "cfg", fin);
    sys.alerts().writeJsonl(os);
    return os.str();
}

TEST(ControllerRoundTrip, KillAtEveryChunkBoundaryKeepsTimelineAlerts)
{
    SystemParams sp;
    const MctParams mp = fastParams();
    constexpr InstCount chunk = 100 * 1000;
    constexpr int chunks = 4;

    // The uninterrupted run, observing a timeline/alert window at
    // every chunk boundary exactly as the driver does, checkpointing
    // the full payload plus the driver's previous-snapshot cursor.
    System sysA("lbm", sp, staticBaselineConfig());
    armObservability(sysA);
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    StatSnapshot prevA = sysA.statRegistry().snapshot();
    std::vector<std::string> snaps;
    for (int k = 0; k < chunks; ++k) {
        ctlA.runFor(chunk);
        StatSnapshot cur = sysA.statRegistry().snapshot();
        sysA.observeWindow(sysA.retired(),
                           StatRegistry::delta(prevA, cur));
        prevA = std::move(cur);
        Serializer s;
        sysA.serialize(s);
        ctlA.serialize(s);
        serializeSnapshot(s, prevA);
        snaps.push_back(s.data());
    }
    ASSERT_GT(sysA.alerts().raised(), 0u);
    ASSERT_GT(sysA.timeline().dropped(), 0u);
    const std::string want = observabilityBytes(sysA);

    // Kill after chunk K, restore into a freshly armed system, run
    // the remainder with the same window cadence: both telemetry
    // surfaces must be byte-identical for every K.
    for (int k = 0; k < chunks - 1; ++k) {
        System sysB("lbm", sp, staticBaselineConfig());
        armObservability(sysB);
        MctController ctlB(sysB, mp);
        Deserializer d(snaps[static_cast<std::size_t>(k)]);
        sysB.deserialize(d);
        ctlB.deserialize(d);
        StatSnapshot prevB = deserializeSnapshot(d);
        ASSERT_TRUE(d.atEnd());
        for (int r = k + 1; r < chunks; ++r) {
            ctlB.runFor(chunk);
            StatSnapshot cur = sysB.statRegistry().snapshot();
            sysB.observeWindow(sysB.retired(),
                               StatRegistry::delta(prevB, cur));
            prevB = std::move(cur);
        }
        EXPECT_EQ(observabilityBytes(sysB), want)
            << "kill after chunk " << k;
    }
}

TEST(ControllerRoundTrip, DriverPayloadThroughStore)
{
    // Full payload through the store, exactly one process hand-off.
    SystemParams sp;
    const MctParams mp = fastParams();
    System sysA("lbm", sp, staticBaselineConfig());
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    ctlA.runFor(150 * 1000);

    const std::string base = tmpPath("driver");
    {
        CheckpointStore store(base);
        ASSERT_TRUE(
            store.save("fp-driver", fullStateBytes(sysA, ctlA)));
    }
    CheckpointStore reopened(base);
    const CheckpointLoadResult r = reopened.load();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.fingerprint, "fp-driver");

    System sysB("lbm", sp, staticBaselineConfig());
    MctController ctlB(sysB, mp);
    Deserializer d(r.payload);
    sysB.deserialize(d);
    ctlB.deserialize(d);
    ASSERT_TRUE(d.atEnd());

    ctlA.runFor(100 * 1000);
    ctlB.runFor(100 * 1000);
    EXPECT_EQ(fullStateBytes(sysB, ctlB),
              fullStateBytes(sysA, ctlA));
}

TEST(FaultRoundTrip, InjectorStateSurvivesRestore)
{
    const FaultPlanParse plan =
        parseFaultPlan("latency_drift@20k+60k:mag=3");
    ASSERT_TRUE(plan.ok);

    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();
    System a("lbm", sp, cfg);
    FaultInjector injA(plan.plan, 11);
    a.attachFaultInjector(&injA);
    // Land inside the fault window so armed state is checkpointed.
    for (int i = 0; i < 8; ++i)
        a.run(5 * 1000);

    Serializer s;
    a.serialize(s);
    injA.serialize(s);

    System b("lbm", sp, cfg);
    FaultInjector injB(plan.plan, 11);
    b.attachFaultInjector(&injB);
    Deserializer d(s.data());
    b.deserialize(d);
    injB.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    EXPECT_EQ(injB.injected(FaultKind::LatencyDrift),
              injA.injected(FaultKind::LatencyDrift));

    // Both continue through the window close identically.
    for (int i = 0; i < 16; ++i) {
        a.run(5 * 1000);
        b.run(5 * 1000);
    }
    EXPECT_EQ(stateBytes(b), stateBytes(a));
}

// ---------------------------------------------------------------------
// Golden checkpoint corpus. Each entry runs a fixed-seed scenario,
// pins the FNV-1a digest of its checkpoint bytes, and restores those
// bytes into a freshly built object that must re-serialize them
// exactly. The digests are part of the checkpoint format: a change to
// any of them is a format change and needs checkpointFormatVersion
// bumped; a member left out of a checkpoint body shifts or shortens the
// stream and fails here.
// ---------------------------------------------------------------------

/** Require fnv1a(@p bytes) == @p digest, and that @p restore, given a
 *  reader over @p bytes, consumes all of them and re-serializes the
 *  same bytes. */
template <typename Restore>
void
expectGolden(const std::string &name, const std::string &bytes,
             std::uint64_t digest, Restore restore)
{
    EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), digest)
        << name << ": checkpoint digest 0x" << std::hex
        << fnv1a(bytes.data(), bytes.size()) << std::dec << " over "
        << bytes.size() << " bytes";
    Deserializer d(bytes);
    const std::string again = restore(d);
    EXPECT_TRUE(d.atEnd()) << name;
    EXPECT_EQ(again, bytes) << name;
}

/** Every Mellow-Writes technique and every device-side extension at
 *  once: bank-aware and eager slow writes, cancellation of fast and
 *  slow writes turned into pausing, wear quota, short-retention writes
 *  and fast disturbing reads. */
MellowConfig
everyTechniqueConfig()
{
    MellowConfig c = staticBaselineConfig();
    c.bankAwareThreshold = 2;
    c.eagerThreshold = 8;
    c.wearQuotaTarget = 10.0;
    c.fastLatency = 1.5;
    c.slowLatency = 3.5;
    c.fastCancellation = true;
    c.slowCancellation = true;
    c.pauseInsteadOfCancel = true;
    c.shortRetentionWrites = true;
    c.fastDisturbingReads = true;
    return c;
}

/** A 64 MB device with explicit Start-Gap leveling (and so the
 *  RowWearTable) and short quota slices, so the quota, scrub and
 *  remap state all move within a short run. */
SystemParams
everyTechniqueParams()
{
    SystemParams sp;
    sp.nvm.capacityBytes = 64ULL << 20;
    sp.nvm.wearLevelMode = WearLevelMode::StartGap;
    sp.nvm.startGapPeriod = 16;
    sp.nvm.retentionTime = 20 * tickUs;
    sp.nvm.disturbThreshold = 4;
    sp.memctrl.quotaSliceTicks = 2 * tickUs;
    return sp;
}

struct SystemGolden
{
    const char *app;
    bool everyTechnique;
    std::uint64_t digest;
};

TEST(CheckpointGolden, SystemCheckpoints)
{
    const SystemGolden corpus[] = {
        {"lbm", false, 0x6cbf6ad3ca4c6241ULL},
        {"lbm", true, 0x48be3b40cb6b3284ULL},
        {"gups", false, 0x3d2725faba3d9fedULL},
        {"gups", true, 0x6d48cad47fcf5f71ULL},
        {"milc", false, 0x23a82f7fd703a11aULL},
        {"milc", true, 0x078ac699d11af217ULL},
    };
    for (const SystemGolden &g : corpus) {
        const SystemParams sp =
            g.everyTechnique ? everyTechniqueParams() : SystemParams{};
        const MellowConfig cfg = g.everyTechnique
                                     ? everyTechniqueConfig()
                                     : staticBaselineConfig();
        auto build = [&] {
            auto sys = std::make_unique<System>(g.app, sp, cfg);
            sys->eventTrace().enable(256);
            sys->enableSpans(32, 128);
            return sys;
        };
        const auto a = build();
        a->run(400 * 1000);
        if (g.everyTechnique) {
            const CtrlStats &cs = a->controller().stats();
            EXPECT_GT(cs.quotaWrites, 0u) << g.app;
            EXPECT_GT(cs.eagerWrites, 0u) << g.app;
            EXPECT_GT(cs.pausedWrites, 0u) << g.app;
            EXPECT_GT(cs.scrubWrites, 0u) << g.app;
        }
        const std::string name =
            std::string(g.app) + (g.everyTechnique ? "/every" : "/static");
        expectGolden(name, stateBytes(*a), g.digest,
                     [&](Deserializer &d) {
                         const auto b = build();
                         b->deserialize(d);
                         return stateBytes(*b);
                     });
    }
}

TEST(CheckpointGolden, ControllerDriverPayload)
{
    // ControllerRoundTrip's driver payload with every telemetry
    // surface attached: system, controller, then the driver's
    // previous-window snapshot.
    SystemParams sp;
    const MctParams mp = fastParams();
    auto build = [&] {
        auto sys = std::make_unique<System>("lbm", sp,
                                            staticBaselineConfig());
        sys->eventTrace().enable(1024);
        sys->provenanceTrace().enable(256);
        sys->enableSpans(64, 512);
        armObservability(*sys);
        return sys;
    };
    const auto sysA = build();
    sysA->run(50 * 1000);
    MctController ctlA(*sysA, mp);
    StatSnapshot prev = sysA->statRegistry().snapshot();
    for (int k = 0; k < 4; ++k) {
        ctlA.runFor(100 * 1000);
        StatSnapshot cur = sysA->statRegistry().snapshot();
        sysA->observeWindow(sysA->retired(),
                            StatRegistry::delta(prev, cur));
        prev = std::move(cur);
    }
    ASSERT_GT(sysA->alerts().raised(), 0u);
    ASSERT_GT(ctlA.decisions().size(), 0u);

    Serializer s;
    sysA->serialize(s);
    ctlA.serialize(s);
    serializeSnapshot(s, prev);
    expectGolden("controller", s.data(), 0x32ceeb9a11941d69ULL, [&](Deserializer &d) {
        const auto sysB = build();
        MctController ctlB(*sysB, mp);
        sysB->deserialize(d);
        ctlB.deserialize(d);
        const StatSnapshot prevB = deserializeSnapshot(d);
        Serializer again;
        sysB->serialize(again);
        ctlB.serialize(again);
        serializeSnapshot(again, prevB);
        return again.data();
    });
}

TEST(CheckpointGolden, ControllerDriverPayloadWrappedRings)
{
    // ControllerDriverPayload with every telemetry ring small enough
    // to wrap, so the pinned bytes hold each ring's cursors past a
    // wraparound and its stale slots.
    SystemParams sp;
    // A hair-triggered phase detector re-decides every chunk, so more
    // provenance records close than the ring holds.
    MctParams mp = fastParams();
    mp.phase.historyWindows = 8;
    mp.phase.recentWindows = 2;
    mp.phase.minWindows = 4;
    mp.phase.scoreThreshold = 0.5;
    mp.phase.minRelativeShift = 0.0;
    std::vector<AlertRule> rules = smokeAlertRules();
    AlertRule objectives;
    objectives.name = "objectives-live";
    objectives.glob = "sim.objective.*";
    objectives.cond = AlertCondition::Above;
    objectives.threshold = -1.0;
    rules.push_back(objectives);
    auto build = [&] {
        auto sys = std::make_unique<System>("lbm", sp,
                                            staticBaselineConfig());
        sys->eventTrace().enable(8);
        sys->provenanceTrace().enable(2);
        sys->enableSpans(64, 4);
        sys->enableTimeline({"sim.objective.*", "sim.instructions"}, 3);
        sys->alerts().enable(rules, 2);
        sys->alerts().attachTrace(&sys->eventTrace());
        sys->alerts().registerStats(sys->statRegistry());
        return sys;
    };
    const auto sysA = build();
    sysA->run(50 * 1000);
    MctController ctlA(*sysA, mp);
    StatSnapshot prev = sysA->statRegistry().snapshot();
    for (int k = 0; k < 4; ++k) {
        ctlA.runFor(100 * 1000);
        StatSnapshot cur = sysA->statRegistry().snapshot();
        sysA->observeWindow(sysA->retired(),
                            StatRegistry::delta(prev, cur));
        prev = std::move(cur);
    }
    EXPECT_GT(sysA->eventTrace().dropped(), 0u);
    EXPECT_GT(sysA->provenanceTrace().dropped(), 0u);
    EXPECT_GT(sysA->spanTrace().dropped(), 0u);
    EXPECT_GT(sysA->timeline().dropped(), 0u);
    EXPECT_GT(sysA->alerts().logDropped(), 0u);

    Serializer s;
    sysA->serialize(s);
    ctlA.serialize(s);
    serializeSnapshot(s, prev);
    expectGolden("wrapped rings", s.data(), 0xd067d43651368361ULL,
                 [&](Deserializer &d) {
                     const auto sysB = build();
                     MctController ctlB(*sysB, mp);
                     sysB->deserialize(d);
                     ctlB.deserialize(d);
                     const StatSnapshot prevB = deserializeSnapshot(d);
                     Serializer again;
                     sysB->serialize(again);
                     ctlB.serialize(again);
                     serializeSnapshot(again, prevB);
                     return again.data();
                 });
}

TEST(CheckpointGolden, TraceWorkloadWithFaultPlan)
{
    const FaultPlanParse plan = parseFaultPlan(
        "latency_drift@20k+60k:mag=3;"
        "bank_degrade@30k+200k:mag=3,bank=1;"
        "counter_corrupt@10k+400k:prob=0.5,mag=1e9;"
        "clock_skew@40k+100k:mag=6");
    ASSERT_TRUE(plan.ok);
    const SystemParams sp = everyTechniqueParams();
    const MellowConfig cfg = everyTechniqueConfig();
    auto source = makeWorkload("milc", 5);
    const std::vector<WorkloadOp> ops = captureTrace(*source, 3000);
    auto build = [&](FaultInjector &inj) {
        auto sys = std::make_unique<System>(
            std::make_unique<TraceWorkload>("milc-trace", ops, 8), sp,
            cfg);
        sys->attachFaultInjector(&inj);
        return sys;
    };
    FaultInjector injA(plan.plan, 11);
    const auto a = build(injA);
    for (int i = 0; i < 12; ++i) {
        a->run(5 * 1000);
        Metrics m{1.0, 8.0, 0.5};
        injA.corruptMetrics(m);
    }
    ASSERT_GT(injA.injected(FaultKind::CounterCorrupt), 0u);

    Serializer s;
    a->serialize(s);
    injA.serialize(s);
    expectGolden("trace+faults", s.data(), 0x21f0bfb2672c113fULL,
                 [&](Deserializer &d) {
                     FaultInjector injB(plan.plan, 11);
                     const auto b = build(injB);
                     b->deserialize(d);
                     injB.deserialize(d);
                     Serializer again;
                     b->serialize(again);
                     injB.serialize(again);
                     return again.data();
                 });
}

} // namespace
} // namespace mct
