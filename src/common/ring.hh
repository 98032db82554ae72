/**
 * @file
 * Fixed-capacity ring buffer behind the telemetry logs (event trace,
 * request spans, decision provenance, metric timeline, alert log).
 *
 * Slots are allocated once, by reset(); push() hands back the oldest
 * slot for the caller to overwrite, so recording allocates nothing.
 * The ring counts every record it has seen, so dropped() reports how
 * many were overwritten by wraparound.
 *
 * Checkpoints archive the ring in two parts, cursors() and slots(),
 * because some owners write other state between the two. slots()
 * covers every allocated slot in storage order, stale ones included,
 * so a restored ring is byte-identical to the saved one. A loaded
 * cursor set that this ring cannot hold panics: it would otherwise
 * read past the slots or report more records than it has.
 */

#ifndef MCT_COMMON_RING_HH
#define MCT_COMMON_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace mct
{

template <typename T>
class Ring
{
  public:
    /** Allocate @p capacity default slots and forget every record. */
    void
    reset(std::size_t capacity)
    {
        slots_.assign(capacity, T{});
        cap = capacity;
        head = 0;
        held = 0;
        total = 0;
    }

    /** Count one record and return the slot it goes in (the oldest
     *  record's, once the ring is full). Requires capacity() > 0. */
    T &
    push()
    {
        T &slot = slots_[head];
        head = head + 1 == cap ? 0 : head + 1;
        if (held < cap)
            ++held;
        ++total;
        return slot;
    }

    /** Run @p fn on each held record, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        // The oldest record sits at head once the ring has wrapped.
        std::size_t at = held == cap ? head : 0;
        for (std::size_t i = 0; i < held; ++i) {
            fn(slots_[at]);
            at = at + 1 == cap ? 0 : at + 1;
        }
    }

    /** The held records, oldest first. */
    std::vector<T>
    items() const
    {
        std::vector<T> out;
        out.reserve(held);
        forEach([&](const T &item) { out.push_back(item); });
        return out;
    }

    /** Records currently held (<= capacity). */
    std::size_t size() const { return held; }

    /** Records ever pushed. */
    std::uint64_t recorded() const { return total; }

    /** Records overwritten by wraparound. */
    std::uint64_t dropped() const { return total - held; }

    /** Slots allocated by reset() (0 before). */
    std::size_t capacity() const { return cap; }

    /** Archive head, held and total as three u64s. A load panics
     *  unless head < capacity (0 for an unallocated ring), held <=
     *  capacity and held <= total. */
    template <typename Ar>
    void cursors(Ar &ar) const { cursorsIo(ar, *this); }

    template <typename Ar>
    void cursors(Ar &ar) { cursorsIo(ar, *this); }

    /** Run @p fn on all capacity() slots in storage order, stale ones
     *  included: the checkpoint body of the records. */
    template <typename Fn>
    void
    slots(Fn &&fn) const
    {
        for (const T &slot : slots_)
            fn(slot);
    }

    template <typename Fn>
    void
    slots(Fn &&fn)
    {
        for (T &slot : slots_)
            fn(slot);
    }

  private:
    std::vector<T> slots_;
    std::size_t cap = 0;
    std::size_t head = 0; ///< next slot to write
    std::size_t held = 0;
    std::uint64_t total = 0;

    template <typename Ar, typename Self>
    static void
    cursorsIo(Ar &ar, Self &self)
    {
        ar.u64(self.head);
        ar.u64(self.held);
        ar.u64(self.total);
        if constexpr (!Ar::saving) {
            if (self.head >= (self.cap ? self.cap : 1))
                mct_panic("checkpoint ring head ", self.head,
                          " outside capacity ", self.cap);
            if (self.held > self.cap)
                mct_panic("checkpoint ring holds ", self.held,
                          " records over capacity ", self.cap);
            if (self.held > self.total)
                mct_panic("checkpoint ring holds ", self.held,
                          " records of ", self.total, " recorded");
        }
    }
};

} // namespace mct

#endif // MCT_COMMON_RING_HH
