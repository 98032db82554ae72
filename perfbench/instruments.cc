#include "instruments.hh"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "cache/hierarchy.hh"
#include "common/serialize.hh"
#include "memctrl/controller.hh"
#include "nvm/device.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

RecordingWorkload::RecordingWorkload(std::unique_ptr<mct::Workload> inner)
    : inner_(std::move(inner))
{
}

void
RecordingWorkload::observe(const mct::System &sys)
{
    sys_ = &sys;
    changes_.push_back({ops_.size(), sys.config()});
}

const mct::WorkloadTraits &
RecordingWorkload::traits() const
{
    return inner_->traits();
}

void
RecordingWorkload::next(mct::WorkloadOp &op)
{
    const auto t0 = Clock::now();
    inner_->next(op);
    nextNs_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
    RecordedOp rec{op.addr, 0, op.gap, op.isWrite, op.dependent};
    if (sys_) {
        rec.tick = sys_->now();
        if (!(sys_->config() == changes_.back().cfg))
            changes_.push_back({ops_.size(), sys_->config()});
    }
    ops_.push_back(rec);
}

void
RecordingWorkload::reset(std::uint64_t seed)
{
    inner_->reset(seed);
}

void
RecordingWorkload::setAddrBase(mct::Addr base)
{
    inner_->setAddrBase(base);
}

void
RecordingWorkload::serialize(mct::Serializer &s) const
{
    inner_->serialize(s);
}

void
RecordingWorkload::deserialize(mct::Deserializer &d)
{
    inner_->deserialize(d);
}

CacheReplay
replayCaches(const std::vector<RecordedOp> &ops, std::size_t executed,
             const std::vector<ConfigChange> &changes,
             const mct::HierarchyParams &caches, unsigned eagerCheckPeriod)
{
    CacheReplay r;
    mct::CacheHierarchy hier(caches);
    mct::AccessOutcome outcome;
    std::vector<mct::Addr> eager;
    r.requests.reserve(executed / 4);
    std::size_t change = 0;
    mct::MellowConfig cfg = changes.empty() ? mct::MellowConfig{}
                                            : changes.front().cfg;
    unsigned sinceCheck = 0;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < executed; ++i) {
        while (change < changes.size() && changes[change].at <= i)
            cfg = changes[change++].cfg;
        const RecordedOp &op = ops[i];
        const auto idx = static_cast<std::uint32_t>(i);
        hier.access(op.addr, op.isWrite, outcome);
        for (const mct::Addr wb : outcome.writebacks)
            r.requests.push_back(
                {wb, op.tick, idx, MemRequest::Kind::Write, false});
        if (outcome.hitLevel == 0)
            r.requests.push_back({op.addr, op.tick, idx,
                                  MemRequest::Kind::Read,
                                  op.dependent && !op.isWrite});
        if (++sinceCheck >= eagerCheckPeriod) {
            sinceCheck = 0;
            if (cfg.eagerWritebacks) {
                const auto s0 = Clock::now();
                eager.clear();
                hier.llc().collectEagerCandidates(cfg.eagerThreshold, 8,
                                                  eager);
                r.eagerScanSeconds += secondsSince(s0);
                ++r.eagerScans;
                for (const mct::Addr a : eager)
                    r.requests.push_back(
                        {a, op.tick, idx, MemRequest::Kind::Eager, false});
            }
        }
    }
    r.seconds = secondsSince(t0);
    r.accesses = executed;
    r.l1 = hier.l1d().stats();
    r.l2 = hier.l2c().stats();
    r.llc = hier.llc().stats();
    return r;
}

CtrlReplay
replayController(const std::vector<MemRequest> &requests,
                 const std::vector<ConfigChange> &changes,
                 const mct::SystemParams &params, unsigned mlpLimit)
{
    CtrlReplay r;
    mct::NvmDevice dev(params.nvm);
    mct::MemController ctrl(dev, params.memctrl,
                            changes.empty() ? mct::MellowConfig{}
                                            : changes.front().cfg);
    std::unordered_set<std::uint64_t> outstanding;
    std::uint64_t nextId = 0;
    std::size_t change = 1;
    mct::Tick t = 0;

    const auto pump = [&] {
        const mct::Tick next = ctrl.nextEventTick();
        if (next == mct::MemController::noEvent)
            return false;
        ctrl.advance(next == ctrl.now() ? next + 1 : next);
        ++r.advances;
        for (const auto &[id, tick] : ctrl.completedReads())
            outstanding.erase(id);
        ctrl.completedReads().clear();
        t = std::max(t, ctrl.now());
        return true;
    };

    const auto t0 = Clock::now();
    for (const MemRequest &req : requests) {
        t = std::max(t, req.tick);
        while (change < changes.size() && changes[change].at <= req.op)
            ctrl.setConfig(changes[change++].cfg, t);
        switch (req.kind) {
          case MemRequest::Kind::Read: {
            const std::uint64_t id = nextId++;
            while (!ctrl.submitRead(req.addr, t, id))
                pump();
            outstanding.insert(id);
            if (req.dependent) {
                while (outstanding.count(id) && pump()) {
                }
            } else {
                while (outstanding.size() >= mlpLimit && pump()) {
                }
            }
            break;
          }
          case MemRequest::Kind::Write:
            while (!ctrl.submitWrite(req.addr, t))
                pump();
            break;
          case MemRequest::Kind::Eager:
            ctrl.submitEager(req.addr, t);
            break;
        }
        ++r.requests;
    }
    ctrl.advance(t);
    r.seconds = secondsSince(t0);
    return r;
}

std::uint64_t
outputDigest(const mct::Metrics &m, const mct::StatSnapshot &snap)
{
    mct::StatSnapshot kept;
    for (const auto &[path, value] : snap) {
        if (!startsWith(path, "lat.") && !startsWith(path, "sim.spans."))
            kept.emplace(path, value);
    }
    mct::Serializer s;
    m.serialize(s);
    mct::serializeSnapshot(s, kept);
    return mct::fnv1a(s.data().data(), s.size());
}

std::uint64_t
metricsDigest(const std::vector<mct::Metrics> &ms)
{
    mct::Serializer s;
    for (const mct::Metrics &m : ms)
        m.serialize(s);
    return mct::fnv1a(s.data().data(), s.size());
}

} // namespace perfbench
