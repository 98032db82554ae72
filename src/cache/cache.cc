#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

Cache::Cache(const CacheParams &params)
    : p(params)
{
    if (p.ways == 0 || p.sizeBytes == 0)
        mct_fatal("Cache ", p.name, ": ways and size must be positive");
    if (p.ways > 64)
        mct_fatal("Cache ", p.name, ": at most 64 ways (way masks are "
                  "64 bits wide), got ", p.ways);
    if (p.sizeBytes % (static_cast<std::uint64_t>(p.ways) * lineBytes))
        mct_fatal("Cache ", p.name, ": size not divisible by ways*line");
    sets = p.sizeBytes / lineBytes / p.ways;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        mct_fatal("Cache ", p.name, ": set count must be a power of two");
    reset();
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr / lineBytes) & (sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / lineBytes / sets;
}

int
Cache::findWay(std::uint64_t s, Addr tag) const
{
    const Addr *t = &tags[s * p.ways];
    const std::uint64_t valid = masks[s].valid;
    for (unsigned w = 0; w < p.ways; ++w) {
        if (t[w] == tag && ((valid >> w) & 1))
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
Cache::allocate(std::uint64_t s, Victim &victim)
{
    const std::uint64_t allWays =
        p.ways == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << p.ways) - 1;
    const std::uint64_t invalid = ~masks[s].valid & allWays;
    if (invalid)
        return static_cast<unsigned>(std::countr_zero(invalid));

    // Full set: the LRU way is the first with the largest rank, i.e.
    // the first with the smallest lastUse.
    const std::uint8_t *r = &rank[s * p.ways];
    unsigned w = 0;
    std::uint8_t oldest = r[0];
    for (unsigned i = 1; i < p.ways; ++i) {
        const bool older = r[i] > oldest;
        oldest = older ? r[i] : oldest;
        w = older ? i : w;
    }
    const bool dirty = (masks[s].dirty >> w) & 1;
    ++st.evictions;
    if (dirty)
        ++st.dirtyEvictions;
    victim.valid = true;
    victim.dirty = dirty;
    victim.addr = (tags[s * p.ways + w] * sets + s) * lineBytes;
    return w;
}

void
Cache::markDirty(std::uint64_t s, unsigned w)
{
    const std::uint64_t bit = std::uint64_t{1} << w;
    if (masks[s].eager & ~masks[s].dirty & bit)
        ++st.rewrites;
    masks[s].dirty |= bit;
    masks[s].eager &= ~bit;
}

void
Cache::install(std::uint64_t s, unsigned w, Addr tag, std::uint64_t stamp,
               bool dirty)
{
    const std::uint64_t bit = std::uint64_t{1} << w;
    WayMasks &m = masks[s];
    tags[s * p.ways + w] = tag;
    lastUse[s * p.ways + w] = stamp;
    m.valid |= bit;
    m.dirty = dirty ? m.dirty | bit : m.dirty & ~bit;
    m.eager &= ~bit;
}

bool
Cache::access(Addr addr, bool write, Victim &victim)
{
    ++st.accesses;
    if (++sinceDecay >= decayPeriod)
        decayHistogram();
    victim = Victim{};

    const std::uint64_t s = setIndex(addr);
    const Addr tag = tagOf(addr);
    std::uint8_t *r = &rank[s * p.ways];
    const int hit = findWay(s, tag);
    if (hit >= 0) {
        const unsigned w = static_cast<unsigned>(hit);
        const unsigned pos = stackPosition(s, w);
        ++st.hits;
        ++posHits[pos];
        // The line becomes MRU: every way no deeper than it (ties
        // included) moves one position deeper.
        for (unsigned i = 0; i < p.ways; ++i)
            r[i] += r[i] <= pos;
        r[w] = 0;
        lastUse[s * p.ways + w] = ++useCounter;
        if (write)
            markDirty(s, w);
        return true;
    }

    // Miss: install as MRU, evicting the LRU way (preferring invalid
    // ways). The victim held the oldest timestamp, so its departure
    // moves no other rank.
    const unsigned w = allocate(s, victim);
    for (unsigned i = 0; i < p.ways; ++i)
        ++r[i];
    r[w] = 0;
    install(s, w, tag, ++useCounter, write);
    return false;
}

void
Cache::writeback(Addr addr, Victim &victim)
{
    victim = Victim{};
    const std::uint64_t s = setIndex(addr);
    const Addr tag = tagOf(addr);
    const int hit = findWay(s, tag);
    if (hit >= 0) {
        // A writeback does not constitute a use for recency purposes;
        // the line keeps its stack position.
        markDirty(s, static_cast<unsigned>(hit));
        return;
    }
    // Write-allocate the incoming dirty line, inserted near the LRU
    // end: writeback-allocated lines are not expected to be
    // re-referenced soon.
    const unsigned w = allocate(s, victim);
    const std::uint64_t u =
        useCounter > tags.size() ? useCounter - tags.size() : 0;
    // Ranks against the older timestamp u: the new line sits below
    // every newer way and above every strictly older one; ways at
    // exactly u tie with it.
    const std::size_t b = s * p.ways;
    const std::uint64_t others = masks[s].valid & ~(std::uint64_t{1} << w);
    unsigned mine = 0;
    for (unsigned i = 0; i < p.ways; ++i) {
        const bool other = (others >> i) & 1;
        mine += other && lastUse[b + i] > u;
        rank[b + i] += other && lastUse[b + i] < u;
    }
    rank[b + w] = static_cast<std::uint8_t>(mine);
    install(s, w, tag, u, true);
}

bool
Cache::contains(Addr addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

bool
Cache::isDirty(Addr addr) const
{
    const std::uint64_t s = setIndex(addr);
    const int w = findWay(s, tagOf(addr));
    return w >= 0 && ((masks[s].dirty >> w) & 1);
}

unsigned
Cache::uselessPositions(int eagerThreshold) const
{
    if (eagerThreshold <= 0)
        return 0;
    std::uint64_t total = 0;
    for (auto h : posHits)
        total += h;
    if (total == 0)
        return 0;
    // Largest N such that the N LRU-end positions together receive
    // fewer than total/eagerThreshold hits.
    const double budget = static_cast<double>(total) /
                          static_cast<double>(eagerThreshold);
    std::uint64_t acc = 0;
    unsigned n = 0;
    for (unsigned w = p.ways; w-- > 0;) {
        acc += posHits[w];
        if (static_cast<double>(acc) >= budget)
            break;
        ++n;
    }
    return n;
}

namespace
{

/**
 * Way mask of the rank bytes @p r[0, ways) that are >= @p cut
 * (1 <= cut < 64), eight bytes per step. Valid ranks are below 64;
 * with each byte's top bit cleared (invalid ways hold unspecified
 * ranks), adding 0x80 - cut sets a byte's top bit exactly when
 * rank >= cut and never carries into the next byte. The multiply
 * gathers the eight top bits into bits 56..63.
 */
std::uint64_t
ranksAtLeast(const std::uint8_t *r, unsigned ways, unsigned cut)
{
    static_assert(std::endian::native == std::endian::little);
    constexpr std::uint64_t ones = 0x0101010101010101;
    const std::uint64_t bias = ones * (0x80 - cut);
    std::uint64_t mask = 0;
    for (unsigned w = 0; w < ways; w += 8) {
        std::uint64_t bytes = 0; // zero past the last way: below cut
        std::memcpy(&bytes, r + w, std::min(8u, ways - w));
        const std::uint64_t low7 = bytes & (ones * 0x7f);
        const std::uint64_t top = ((low7 + bias) >> 7) & ones;
        mask |= (top * 0x0102040810204080 >> 56) << w;
    }
    return mask;
}

} // namespace

unsigned
Cache::collectEagerCandidates(int eagerThreshold, unsigned maxCount,
                              std::vector<Addr> &out)
{
    const unsigned dead = uselessPositions(eagerThreshold);
    if (dead == 0 || maxCount == 0)
        return 0;
    const unsigned cut = p.ways - dead; // first dead stack position
    unsigned found = 0;
    // Rotate through the sets so all of the LLC is eventually scanned
    // across calls; each call is bounded so the scanner stays cheap
    // (hardware would scan a few sets per idle interval, too).
    const std::uint64_t budget = std::min<std::uint64_t>(sets, 64);
    for (std::uint64_t visited = 0; visited < budget && found < maxCount;
         ++visited) {
        const std::uint64_t s = scanCursor;
        scanCursor = (scanCursor + 1) & (sets - 1);
        std::uint64_t cand = masks[s].valid & masks[s].dirty;
        if (!cand)
            continue;
        cand &= ranksAtLeast(&rank[s * p.ways], p.ways, cut);
        for (; cand && found < maxCount; cand &= cand - 1) {
            const unsigned w = static_cast<unsigned>(std::countr_zero(cand));
            const std::uint64_t bit = std::uint64_t{1} << w;
            masks[s].dirty &= ~bit;
            masks[s].eager |= bit;
            ++st.eagerCleaned;
            out.push_back((tags[s * p.ways + w] * sets + s) * lineBytes);
            ++found;
        }
    }
    return found;
}

void
Cache::rebuildRanks(std::uint64_t s)
{
    const std::size_t b = s * p.ways;
    const std::uint64_t valid = masks[s].valid;
    for (unsigned w = 0; w < p.ways; ++w) {
        unsigned pos = 0;
        if ((valid >> w) & 1) {
            for (unsigned i = 0; i < p.ways; ++i)
                pos += i != w && ((valid >> i) & 1) &&
                       lastUse[b + i] > lastUse[b + w];
        }
        rank[b + w] = static_cast<std::uint8_t>(pos);
    }
}

void
Cache::decayHistogram()
{
    sinceDecay = 0;
    for (auto &h : posHits)
        h >>= 1;
}

void
Cache::reset()
{
    const std::size_t n = sets * p.ways;
    tags.assign(n, 0);
    lastUse.assign(n, 0);
    rank.assign(n, 0);
    masks.assign(sets, WayMasks{});
    posHits.assign(p.ways, 0);
    useCounter = 0;
    scanCursor = 0;
    sinceDecay = 0;
    st = CacheStats{};
}

template <typename Ar, typename Self>
void
Cache::io(Ar &ar, Self &self)
{
    // Per-line (tag, valid, dirty, eagerClean, lastUse) tuples in
    // set-major way order; ranks are derived and not written.
    ar.expect(self.tags.size(),
              "checkpoint cache geometry mismatch: ", self.p.name);
    for (std::size_t i = 0; i < self.tags.size(); ++i) {
        auto &masks = self.masks[i / self.p.ways];
        const unsigned w = static_cast<unsigned>(i % self.p.ways);
        ar.u64(self.tags[i]);
        ar.bit(masks.valid, w);
        ar.bit(masks.dirty, w);
        ar.bit(masks.eager, w);
        ar.u64(self.lastUse[i]);
    }
    ar.expect(self.posHits.size(),
              "checkpoint cache way-count mismatch: ", self.p.name);
    for (auto &h : self.posHits)
        ar.u64(h);
    ar.u64(self.useCounter);
    ar.u64(self.scanCursor);
    ar.u64(self.sinceDecay);
    ar.u64(self.st.accesses);
    ar.u64(self.st.hits);
    ar.u64(self.st.evictions);
    ar.u64(self.st.dirtyEvictions);
    ar.u64(self.st.eagerCleaned);
    ar.u64(self.st.rewrites);
}

void
Cache::serialize(Serializer &s) const
{
    io(s, *this);
}

void
Cache::deserialize(Deserializer &d)
{
    io(d, *this);
    for (std::uint64_t set = 0; set < sets; ++set)
        rebuildRanks(set);
}

void
Cache::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const CacheStats *s = &st;
    reg.addCounter(prefix + ".accesses", [s] { return s->accesses; });
    reg.addCounter(prefix + ".hits", [s] { return s->hits; });
    reg.addGauge(prefix + ".hit_rate", [s] {
        return s->accesses ? static_cast<double>(s->hits) /
                                 static_cast<double>(s->accesses)
                           : 0.0;
    });
    reg.addCounter(prefix + ".evictions", [s] { return s->evictions; });
    reg.addCounter(prefix + ".dirty_evictions",
                   [s] { return s->dirtyEvictions; });
    reg.addCounter(prefix + ".eager_cleaned",
                   [s] { return s->eagerCleaned; },
                   "lines cleaned by eager mellow writebacks");
    reg.addCounter(prefix + ".rewrites", [s] { return s->rewrites; },
                   "eagerly-cleaned lines dirtied again");
}

} // namespace mct
