/**
 * @file
 * Unit tests for the set-associative cache and the three-level
 * hierarchy: LRU behavior, dirty writebacks, victim address
 * reconstruction, the stack-position hit histogram, the "useless
 * positions" rule, and eager-candidate collection; plus a
 * differential check of Cache's packed LRU ranks against a reference
 * timestamp-LRU model over seeded random operation streams.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "common/serialize.hh"

namespace mct
{
namespace
{

/** A tiny direct-mapped-ish cache: 4 sets x 2 ways of 64 B lines. */
CacheParams
tinyParams()
{
    return CacheParams{"tiny", 4 * 2 * 64, 2};
}

/** Address for (set, tag) in the tiny cache. */
Addr
tinyAddr(std::uint64_t set, std::uint64_t tag)
{
    return (tag * 4 + set) * 64;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyParams());
    Victim v;
    EXPECT_FALSE(c.access(tinyAddr(0, 0), false, v));
    EXPECT_TRUE(c.access(tinyAddr(0, 0), false, v));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, EvictsLeastRecentlyUsed)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(0, 1), false, v); // way A
    c.access(tinyAddr(0, 2), false, v); // way B
    c.access(tinyAddr(0, 1), false, v); // touch A
    c.access(tinyAddr(0, 3), false, v); // evicts B (LRU)
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, tinyAddr(0, 2));
    EXPECT_TRUE(c.contains(tinyAddr(0, 1)));
    EXPECT_FALSE(c.contains(tinyAddr(0, 2)));
}

TEST(Cache, VictimAddressReconstruction)
{
    Cache c(tinyParams());
    Victim v;
    for (std::uint64_t tag = 0; tag < 3; ++tag)
        c.access(tinyAddr(2, tag), true, v);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.addr, tinyAddr(2, 0));
}

TEST(Cache, WritesMakeLinesDirty)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(1, 0), true, v);
    EXPECT_TRUE(c.isDirty(tinyAddr(1, 0)));
    c.access(tinyAddr(1, 1), false, v);
    EXPECT_FALSE(c.isDirty(tinyAddr(1, 1)));
}

TEST(Cache, DirtyEvictionCounted)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(0, 0), true, v);
    c.access(tinyAddr(0, 1), false, v);
    c.access(tinyAddr(0, 2), false, v); // evicts dirty tag 0
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, WritebackMarksExistingLineDirty)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(0, 0), false, v);
    c.writeback(tinyAddr(0, 0), v);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(c.isDirty(tinyAddr(0, 0)));
}

TEST(Cache, WritebackAllocatesNearLruEnd)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(0, 1), false, v);
    c.access(tinyAddr(0, 2), false, v);
    // Writeback-allocate tag 3: set full, evicts LRU (tag 1).
    c.writeback(tinyAddr(0, 3), v);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, tinyAddr(0, 1));
    // The allocated line is itself next in line for eviction.
    c.access(tinyAddr(0, 4), false, v);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, tinyAddr(0, 3));
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, HistogramTracksStackPositions)
{
    Cache c(tinyParams());
    Victim v;
    c.access(tinyAddr(0, 0), false, v);
    c.access(tinyAddr(0, 1), false, v);
    c.access(tinyAddr(0, 1), false, v); // MRU hit -> position 0
    c.access(tinyAddr(0, 0), false, v); // LRU hit -> position 1
    EXPECT_EQ(c.positionHits()[0], 1u);
    EXPECT_EQ(c.positionHits()[1], 1u);
}

class UselessPositions : public ::testing::TestWithParam<int>
{
};

TEST_P(UselessPositions, ThresholdControlsDeadRegion)
{
    // 8-way cache with a constructed hit profile: almost all hits at
    // MRU, a trickle at the LRU end.
    Cache c(CacheParams{"u", 8 * 64 * 4, 8});
    Victim v;
    // Fill one set with 8 lines.
    for (std::uint64_t t = 0; t < 8; ++t)
        c.access((t * 4) * 64, false, v);
    // 96 MRU hits.
    for (int i = 0; i < 96; ++i)
        c.access((7 * 4) * 64, false, v);
    const int thr = GetParam();
    const unsigned dead = c.uselessPositions(thr);
    // All positions except MRU received ~1 hit each (from the fill
    // pattern's promotion chain); the dead region must shrink as the
    // threshold grows (1/thr gets stricter).
    EXPECT_LE(dead, 7u);
    if (thr >= 32) {
        EXPECT_LE(dead, c.uselessPositions(4));
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, UselessPositions,
                         ::testing::Values(4, 8, 16, 32));

TEST(Cache, UselessPositionsMonotoneInThreshold)
{
    Cache c(CacheParams{"u", 8 * 64 * 16, 8});
    Victim v;
    // Mixed traffic over a few sets.
    for (std::uint64_t i = 0; i < 4000; ++i)
        c.access(((i * 37) % 512) * 64, i % 3 == 0, v);
    unsigned prev = 8;
    for (int thr : {4, 8, 16, 32}) {
        const unsigned dead = c.uselessPositions(thr);
        EXPECT_LE(dead, prev); // stricter budget, smaller region
        prev = dead;
    }
}

TEST(Cache, NoHitsMeansNoDeadRegion)
{
    Cache c(tinyParams());
    EXPECT_EQ(c.uselessPositions(4), 0u);
}

TEST(Cache, EagerCandidatesAreDirtyLruLines)
{
    Cache c(CacheParams{"e", 8 * 64 * 4, 8});
    Victim v;
    // One set: 8 lines, first 4 dirty; heavy MRU hits so the LRU end
    // is dead under threshold 4.
    for (std::uint64_t t = 0; t < 8; ++t)
        c.access(t * 4 * 64, t < 4, v);
    for (int i = 0; i < 200; ++i)
        c.access(7 * 4 * 64, false, v);

    std::vector<Addr> out;
    const unsigned n = c.collectEagerCandidates(4, 16, out);
    EXPECT_EQ(n, out.size());
    EXPECT_GT(n, 0u);
    for (Addr a : out) {
        EXPECT_TRUE(c.contains(a));
        EXPECT_FALSE(c.isDirty(a)); // cleaned on collection
    }
    EXPECT_EQ(c.stats().eagerCleaned, n);
}

TEST(Cache, RewriteAfterEagerCleanCounted)
{
    Cache c(CacheParams{"e", 8 * 64 * 4, 8});
    Victim v;
    for (std::uint64_t t = 0; t < 8; ++t)
        c.access(t * 4 * 64, true, v);
    for (int i = 0; i < 200; ++i)
        c.access(7 * 4 * 64, false, v);
    std::vector<Addr> out;
    ASSERT_GT(c.collectEagerCandidates(4, 4, out), 0u);
    const Addr victim = out[0];
    c.access(victim, true, v); // re-dirty
    EXPECT_EQ(c.stats().rewrites, 1u);
    EXPECT_TRUE(c.isDirty(victim));
}

TEST(Cache, ResetClearsState)
{
    Cache c(tinyParams());
    Victim v;
    c.access(0, true, v);
    c.reset();
    EXPECT_FALSE(c.contains(0));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_DEATH(Cache(CacheParams{"z", 64 * 4, 0}), "must be positive");
    EXPECT_DEATH(Cache(CacheParams{"odd", 3 * 64 * 4, 4}),
                 "power of two");
    // Way masks are 64 bits wide.
    EXPECT_DEATH(Cache(CacheParams{"wide", 128 * 64, 128}),
                 "at most 64 ways");
}

/**
 * Reference model: the timestamp-LRU cache Cache's packed ranks must
 * reproduce exactly. Stack positions are recomputed by scanning the
 * set's timestamps; the victim is the first way with the smallest
 * timestamp; serialize() writes the checkpoint format Cache keeps.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : ways(p.ways), sets(p.sizeBytes / lineBytes / p.ways),
          lines(sets * ways), posHits(ways, 0)
    {
    }

    bool
    access(Addr addr, bool write, Victim &victim)
    {
        ++st.accesses;
        if (++sinceDecay >= decayPeriod) {
            sinceDecay = 0;
            for (auto &h : posHits)
                h >>= 1;
        }
        victim = Victim{};
        if (Line *line = find(addr)) {
            ++st.hits;
            ++posHits[stackPosition(*line)];
            line->lastUse = ++useCounter;
            if (write)
                markDirty(*line);
            return true;
        }
        Line &slot = allocate(addr, victim);
        slot.dirty = write;
        slot.lastUse = ++useCounter;
        return false;
    }

    void
    writeback(Addr addr, Victim &victim)
    {
        victim = Victim{};
        if (Line *line = find(addr)) {
            markDirty(*line);
            return;
        }
        Line &slot = allocate(addr, victim);
        slot.dirty = true;
        slot.lastUse =
            useCounter > lines.size() ? useCounter - lines.size() : 0;
    }

    unsigned
    uselessPositions(int thr) const
    {
        if (thr <= 0)
            return 0;
        std::uint64_t total = 0;
        for (auto h : posHits)
            total += h;
        if (total == 0)
            return 0;
        const double budget =
            static_cast<double>(total) / static_cast<double>(thr);
        std::uint64_t acc = 0;
        unsigned n = 0;
        for (unsigned w = ways; w-- > 0;) {
            acc += posHits[w];
            if (static_cast<double>(acc) >= budget)
                break;
            ++n;
        }
        return n;
    }

    unsigned
    collectEagerCandidates(int thr, unsigned maxCount,
                           std::vector<Addr> &out)
    {
        const unsigned dead = uselessPositions(thr);
        if (dead == 0 || maxCount == 0)
            return 0;
        unsigned found = 0;
        const std::uint64_t budget = std::min<std::uint64_t>(sets, 64);
        for (std::uint64_t visited = 0;
             visited < budget && found < maxCount; ++visited) {
            const std::uint64_t s = scanCursor;
            scanCursor = (scanCursor + 1) & (sets - 1);
            for (unsigned w = 0; w < ways && found < maxCount; ++w) {
                Line &line = lines[s * ways + w];
                if (!line.valid || !line.dirty ||
                    stackPosition(line) < ways - dead)
                    continue;
                line.dirty = false;
                line.eagerClean = true;
                ++st.eagerCleaned;
                out.push_back((line.tag * sets + s) * lineBytes);
                ++found;
            }
        }
        return found;
    }

    const std::vector<std::uint64_t> &positionHits() const
    {
        return posHits;
    }

    const CacheStats &stats() const { return st; }

    void
    serialize(Serializer &s) const
    {
        s.putU64(lines.size());
        for (const Line &line : lines) {
            s.putU64(line.tag);
            s.putBool(line.valid);
            s.putBool(line.dirty);
            s.putBool(line.eagerClean);
            s.putU64(line.lastUse);
        }
        s.putU64(posHits.size());
        for (const std::uint64_t h : posHits)
            s.putU64(h);
        for (const std::uint64_t v :
             {useCounter, scanCursor, sinceDecay, st.accesses, st.hits,
              st.evictions, st.dirtyEvictions, st.eagerCleaned,
              st.rewrites})
            s.putU64(v);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool eagerClean = false;
        std::uint64_t lastUse = 0;
    };

    static constexpr std::uint64_t decayPeriod = 1 << 16;

    unsigned ways;
    std::uint64_t sets;
    std::vector<Line> lines;
    std::vector<std::uint64_t> posHits;
    std::uint64_t useCounter = 0;
    std::uint64_t scanCursor = 0;
    std::uint64_t sinceDecay = 0;
    CacheStats st;

    std::uint64_t setOf(Addr addr) const
    {
        return (addr / lineBytes) & (sets - 1);
    }

    Line *
    find(Addr addr)
    {
        const Addr tag = addr / lineBytes / sets;
        for (unsigned w = 0; w < ways; ++w) {
            Line &line = lines[setOf(addr) * ways + w];
            if (line.valid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    unsigned
    stackPosition(const Line &line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(&line - &lines[0]) / ways * ways;
        unsigned pos = 0;
        for (unsigned w = 0; w < ways; ++w) {
            const Line &other = lines[base + w];
            if (&other != &line && other.valid &&
                other.lastUse > line.lastUse)
                ++pos;
        }
        return pos;
    }

    void
    markDirty(Line &line)
    {
        if (line.eagerClean && !line.dirty)
            ++st.rewrites;
        line.dirty = true;
        line.eagerClean = false;
    }

    /** First invalid way, else the first way with the oldest stamp. */
    Line &
    allocate(Addr addr, Victim &victim)
    {
        const std::uint64_t s = setOf(addr);
        Line *base = &lines[s * ways];
        Line *slot = nullptr;
        for (unsigned w = 0; w < ways && !slot; ++w) {
            if (!base[w].valid)
                slot = &base[w];
        }
        if (!slot) {
            slot = &base[0];
            for (unsigned w = 1; w < ways; ++w) {
                if (base[w].lastUse < slot->lastUse)
                    slot = &base[w];
            }
            ++st.evictions;
            if (slot->dirty)
                ++st.dirtyEvictions;
            victim = Victim{true, slot->dirty,
                            (slot->tag * sets + s) * lineBytes};
        }
        slot->tag = addr / lineBytes / sets;
        slot->valid = true;
        slot->eagerClean = false;
        return *slot;
    }
};

auto
statsTuple(const CacheStats &s)
{
    return std::make_tuple(s.accesses, s.hits, s.evictions,
                           s.dirtyEvictions, s.eagerCleaned, s.rewrites);
}

template <typename C>
std::string
checkpointOf(const C &c)
{
    Serializer s;
    c.serialize(s);
    return s.data();
}

/**
 * One seeded stream of access / writeback / eager-scan operations,
 * applied to the reference model and to every Cache copy in
 * lockstep; each operation's results and the observable state are
 * compared after every step. Addresses favour a few hot tags per set
 * so the hit histogram grows a dead LRU region, and writebacks come
 * in back-to-back bursts that fill ways at equal timestamps.
 */
class Lockstep
{
  public:
    Lockstep(const CacheParams &params, std::uint64_t seed)
        : p(params), sets(params.sizeBytes / lineBytes / params.ways),
          ref(params), rng(seed)
    {
        copies.emplace_back(params);
    }

    /** Add a Cache restored from the first copy's checkpoint. */
    void
    restoreCopy()
    {
        const std::string bytes = checkpointOf(copies.front());
        copies.emplace_back(p);
        Deserializer d(bytes);
        copies.back().deserialize(d);
        ASSERT_TRUE(d.atEnd());
        EXPECT_EQ(checkpointOf(copies.back()), bytes);
    }

    /** Lines the eager scans have cleaned so far. */
    std::uint64_t eagerCleaned() const { return ref.stats().eagerCleaned; }

    /** Run @p n operations; stops at the first mismatch. */
    void
    run(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            step();
            expectSameState(i % 16 == 0);
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "diverged at operation " << ops;
                return;
            }
        }
    }

  private:
    CacheParams p;
    std::uint64_t sets;
    RefCache ref;
    std::vector<Cache> copies;
    Rng rng;
    std::uint64_t ops = 0;
    unsigned burst = 0; // writebacks left in the current burst

    Addr
    drawAddr()
    {
        const std::uint64_t hot = std::max(1u, p.ways / 2);
        const std::uint64_t tag =
            rng.flip(0.5) ? rng.below(hot) : rng.below(2ull * p.ways);
        return (tag * sets + rng.below(sets)) * lineBytes;
    }

    void
    step()
    {
        ++ops;
        if (burst == 0 && rng.flip(0.05))
            burst = 2 + static_cast<unsigned>(rng.below(4));
        const double roll = rng.uniform();
        if (burst > 0 || roll < 0.2) {
            if (burst > 0)
                --burst;
            const Addr a = drawAddr();
            Victim want;
            ref.writeback(a, want);
            for (Cache &c : copies) {
                Victim got;
                c.writeback(a, got);
                expectSameVictim(got, want);
            }
        } else if (roll < 0.9) {
            const Addr a = drawAddr();
            const bool write = rng.flip(0.4);
            Victim want;
            const bool hit = ref.access(a, write, want);
            for (Cache &c : copies) {
                Victim got;
                EXPECT_EQ(c.access(a, write, got), hit);
                expectSameVictim(got, want);
            }
        } else {
            static constexpr int thresholds[] = {0, 1, 2, 4, 8, 16, 32};
            const int thr = thresholds[rng.below(7)];
            const unsigned maxCount = static_cast<unsigned>(rng.below(17));
            std::vector<Addr> want;
            const unsigned n = ref.collectEagerCandidates(thr, maxCount, want);
            for (Cache &c : copies) {
                std::vector<Addr> got;
                EXPECT_EQ(c.collectEagerCandidates(thr, maxCount, got), n);
                EXPECT_EQ(got, want);
            }
        }
    }

    static void
    expectSameVictim(const Victim &got, const Victim &want)
    {
        EXPECT_EQ(got.valid, want.valid);
        EXPECT_EQ(got.dirty, want.dirty);
        EXPECT_EQ(got.addr, want.addr);
    }

    void
    expectSameState(bool withCheckpoint) const
    {
        const std::string bytes =
            withCheckpoint ? checkpointOf(ref) : std::string();
        for (const Cache &c : copies) {
            EXPECT_EQ(c.positionHits(), ref.positionHits());
            EXPECT_EQ(statsTuple(c.stats()), statsTuple(ref.stats()));
            for (const int thr : {2, 4, 8, 16}) {
                EXPECT_EQ(c.uselessPositions(thr),
                          ref.uselessPositions(thr));
            }
            if (withCheckpoint) {
                EXPECT_EQ(checkpointOf(c), bytes);
            }
        }
    }
};

class CacheVsReference : public ::testing::TestWithParam<unsigned>
{
  protected:
    /** Eight sets of GetParam() ways. */
    CacheParams
    geometry() const
    {
        const unsigned ways = GetParam();
        return CacheParams{"diff", 8ull * ways * lineBytes, ways};
    }
};

TEST_P(CacheVsReference, RandomStreamMatches)
{
    // Long enough to cross the histogram's 2^16-access decay period.
    Lockstep ls(geometry(), 0x5eed0000 + GetParam());
    ls.run(90000);
    EXPECT_GT(ls.eagerCleaned(), 100u); // the scans found real work
}

TEST_P(CacheVsReference, ColdWritebackTiesMatch)
{
    // Writebacks into a cold cache all land at timestamp 0 while the
    // use counter is below the line count, so whole sets fill with
    // equal timestamps; the seeds vary the tie patterns.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Lockstep ls(geometry(), seed);
        ls.run(200);
        if (HasFailure())
            return;
    }
}

TEST_P(CacheVsReference, RestoredCopyStaysInLockstep)
{
    Lockstep ls(geometry(), 0xc0ffee + GetParam());
    // Restore once early, amid timestamp-0 ties, and once later.
    ls.run(40);
    ls.restoreCopy();
    ls.run(5000);
    ls.restoreCopy();
    ls.run(5000);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheVsReference,
                         ::testing::Values(4u, 8u, 16u, 64u));

TEST(Cache, BackToBackWritebackFillsTie)
{
    // One 4-way set. Two accesses, then three writeback fills with no
    // access between them: all three get the timestamp 0 (the use
    // counter is below the line count), so tied lines share a rank.
    const CacheParams p{"tie", 4 * 64, 4};
    Cache c(p);
    RefCache ref(p);
    Victim got, want;
    for (const Addr a : {0x000u, 0x040u}) {
        c.access(a, false, got);
        ref.access(a, false, want);
    }
    for (const Addr a : {0x080u, 0x0c0u, 0x100u}) {
        c.writeback(a, got);
        ref.writeback(a, want);
        EXPECT_EQ(got.addr, want.addr);
    }
    // The third fill evicted the first tied fill (first way of the
    // oldest timestamp), as the reference does.
    EXPECT_TRUE(got.valid);
    EXPECT_EQ(got.addr, 0x080u);
    // Hitting one tied line moves it above its peers in both models.
    c.access(0x0c0, false, got);
    ref.access(0x0c0, false, want);
    EXPECT_EQ(c.positionHits(), ref.positionHits());
    EXPECT_EQ(c.positionHits()[2], 1u);
    c.access(0x140, false, got);
    ref.access(0x140, false, want);
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.addr, 0x100u);
    EXPECT_EQ(checkpointOf(c), checkpointOf(ref));
}

TEST(Hierarchy, MissesAllLevelsOnColdAccess)
{
    CacheHierarchy h{HierarchyParams{}};
    AccessOutcome out;
    h.access(0x1234000, false, out);
    EXPECT_EQ(out.hitLevel, 0);
    EXPECT_TRUE(out.writebacks.empty());
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h{HierarchyParams{}};
    AccessOutcome out;
    h.access(0x1234000, false, out);
    h.access(0x1234000, false, out);
    EXPECT_EQ(out.hitLevel, 1);
}

TEST(Hierarchy, L1EvictionLeavesLineInL2)
{
    HierarchyParams hp;
    CacheHierarchy h(hp);
    AccessOutcome out;
    const Addr target = 0;
    h.access(target, false, out);
    // Evict target from L1: walk many conflicting lines. L1 32 KB
    // 4-way => 128 sets; addresses with the same set index conflict.
    for (int i = 1; i <= 16; ++i)
        h.access(target + static_cast<Addr>(i) * 128 * 64, false, out);
    EXPECT_FALSE(h.l1d().contains(target));
    h.access(target, false, out);
    EXPECT_GE(out.hitLevel, 2); // L2 or L3, not memory
    EXPECT_NE(out.hitLevel, 0);
}

TEST(Hierarchy, DirtyDataFlowsDownToMemory)
{
    // Use a small hierarchy so evictions happen quickly.
    HierarchyParams hp;
    hp.l1 = CacheParams{"L1", 2 * 1024, 2};
    hp.l2 = CacheParams{"L2", 4 * 1024, 2};
    hp.l3 = CacheParams{"L3", 8 * 1024, 2};
    CacheHierarchy h(hp);
    AccessOutcome out;
    std::size_t memWritebacks = 0;
    // Stream writes over 64 KB: far beyond every level.
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        h.access(a, true, out);
        memWritebacks += out.writebacks.size();
    }
    EXPECT_GT(memWritebacks, 100u);
}

TEST(Hierarchy, SharedL3SeesBothCores)
{
    HierarchyParams hp;
    auto shared = std::make_shared<Cache>(hp.l3);
    CacheHierarchy a(hp, shared), b(hp, shared);
    AccessOutcome out;
    a.access(0x5000, false, out);
    EXPECT_EQ(out.hitLevel, 0);
    // Core b misses privately but hits the shared L3.
    b.access(0x5000, false, out);
    EXPECT_EQ(out.hitLevel, 3);
}

TEST(Hierarchy, ResetInvalidatesEverything)
{
    CacheHierarchy h{HierarchyParams{}};
    AccessOutcome out;
    h.access(0x42000, true, out);
    h.reset();
    h.access(0x42000, false, out);
    EXPECT_EQ(out.hitLevel, 0);
}

TEST(Hierarchy, Table8Geometry)
{
    HierarchyParams hp;
    EXPECT_EQ(hp.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(hp.l1.ways, 4u);
    EXPECT_EQ(hp.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(hp.l2.ways, 8u);
    EXPECT_EQ(hp.l3.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(hp.l3.ways, 16u);
}

} // namespace
} // namespace mct
