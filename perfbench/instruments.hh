/**
 * @file
 * The benchmark's outside-the-library instruments: a forwarding
 * workload decorator that records the op stream a System consumes,
 * and replays of that stream through fresh cache-hierarchy and
 * memory-controller instances, so each layer's host time can be taken
 * without any timer inside src/.
 */

#ifndef PERFBENCH_INSTRUMENTS_HH
#define PERFBENCH_INSTRUMENTS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/instrument.hh"
#include "memctrl/mellow_config.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One op as the core fetched it, stamped with the core's tick. */
struct RecordedOp
{
    mct::Addr addr = 0;
    mct::Tick tick = 0;
    std::uint32_t gap = 0;
    bool isWrite = false;
    bool dependent = false;
};

/** The active configuration from op index @c at onward. */
struct ConfigChange
{
    std::size_t at = 0;
    mct::MellowConfig cfg;
};

/**
 * Forwards every Workload call to the wrapped generator and records
 * each op produced by next(), with the host time next() took. Once
 * observe() names the System that owns it, each op is also stamped
 * with the core tick and the active configuration.
 */
class RecordingWorkload final : public mct::Workload
{
  public:
    explicit RecordingWorkload(std::unique_ptr<mct::Workload> inner);

    /** Read the clock and configuration of @p sys from now on. */
    void observe(const mct::System &sys);

    const mct::WorkloadTraits &traits() const override;
    void next(mct::WorkloadOp &op) override;
    void reset(std::uint64_t seed) override;
    void setAddrBase(mct::Addr base) override;
    void serialize(mct::Serializer &s) const override;
    void deserialize(mct::Deserializer &d) override;

    const std::vector<RecordedOp> &ops() const { return ops_; }
    const std::vector<ConfigChange> &configChanges() const
    {
        return changes_;
    }

    /** Host seconds spent inside the wrapped next(). */
    double nextSeconds() const { return nextNs_ * 1e-9; }

  private:
    std::unique_ptr<mct::Workload> inner_;
    const mct::System *sys_ = nullptr;
    std::vector<RecordedOp> ops_;
    std::vector<ConfigChange> changes_;
    double nextNs_ = 0.0;
};

/** One request the hierarchy sends toward NVM. */
struct MemRequest
{
    enum class Kind : std::uint8_t { Read, Write, Eager };

    mct::Addr addr = 0;
    mct::Tick tick = 0;
    std::uint32_t op = 0; ///< index of the op that caused it
    Kind kind = Kind::Read;
    bool dependent = false;
};

/** What the hierarchy replay did and how long it took. */
struct CacheReplay
{
    double seconds = 0.0;           ///< access + eager-scan time
    std::uint64_t accesses = 0;
    std::uint64_t eagerScans = 0;
    double eagerScanSeconds = 0.0;
    mct::CacheStats l1, l2, llc;
    std::vector<MemRequest> requests;
};

/**
 * Replay the first @p executed ops through a fresh CacheHierarchy.
 * When the configuration in effect has eager writebacks on, the LLC's
 * collectEagerCandidates runs every @p eagerCheckPeriod ops, as in
 * the core, asking for up to 8 candidates (the core asks for at most
 * 8, fewer when the controller's eager queue is nearly full).
 */
CacheReplay replayCaches(const std::vector<RecordedOp> &ops,
                         std::size_t executed,
                         const std::vector<ConfigChange> &changes,
                         const mct::HierarchyParams &caches,
                         unsigned eagerCheckPeriod);

/** What the controller replay did and how long it took. */
struct CtrlReplay
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t advances = 0; ///< explicit advance() pumps
};

/**
 * Submit @p requests into a fresh NvmDevice + MemController in order.
 * A full queue, a dependent read, or @p mlpLimit outstanding reads
 * pump the controller with advance(nextEventTick()), as the core does.
 */
CtrlReplay replayController(const std::vector<MemRequest> &requests,
                            const std::vector<ConfigChange> &changes,
                            const mct::SystemParams &params,
                            unsigned mlpLimit);

/**
 * FNV-1a digest of a run's simulated outputs: the objectives plus the
 * Sim-scoped stat snapshot without the span-sampling stats (lat.* and
 * sim.spans.*), which only exist when spans are on.
 */
std::uint64_t outputDigest(const mct::Metrics &m,
                           const mct::StatSnapshot &snap);

/** Digest of objectives alone (sweep evaluations expose no registry). */
std::uint64_t metricsDigest(const std::vector<mct::Metrics> &ms);

} // namespace perfbench

#endif // PERFBENCH_INSTRUMENTS_HH
