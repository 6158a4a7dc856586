/**
 * @file
 * Wake-time tracker for the event-driven run loop: a flat array over a
 * fixed id space [0, n) where each id carries one authoritative wake
 * cycle. schedule() overwrites the id's wake time; minTime() is a
 * linear min over the array. A GpuSystem clocks a few dozen
 * components, and most of them reschedule every cycle they run, so a
 * single pass over one cache line or two beats keeping a priority
 * queue in step with those writes.
 *
 * GpuSystem uses it to answer "what is the earliest cycle any sleeping
 * component wants to run?" (the quiescence jump target) and, per id,
 * "is this component due now?".
 */
#ifndef CABA_COMMON_EVENT_QUEUE_H
#define CABA_COMMON_EVENT_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/component.h"
#include "common/log.h"
#include "common/types.h"

namespace caba {

/** Per-id wake times with a linear-scan minimum. */
class EventQueue
{
  public:
    explicit EventQueue(int ids = 0) { reset(ids); }

    /** Clears all state and resizes the id space to [0, @p ids). */
    void
    reset(int ids)
    {
        CABA_CHECK(ids >= 0, "negative id space");
        when_.assign(static_cast<std::size_t>(ids), kNoWork);
    }

    int size() const { return static_cast<int>(when_.size()); }

    /** Authoritative wake time of @p id (kNoWork = never). */
    Cycle
    when(int id) const
    {
        return when_[static_cast<std::size_t>(id)];
    }

    /** True when @p id wants to run at @p now. */
    bool due(int id, Cycle now) const { return when(id) <= now; }

    /**
     * (Re)schedules @p id to wake at @p at, superseding any earlier
     * schedule — later, earlier, or equal are all fine. kNoWork parks
     * the id.
     */
    void
    schedule(int id, Cycle at)
    {
        when_[static_cast<std::size_t>(id)] = at;
    }

    /** Earliest wake time over all ids (kNoWork when all are parked). */
    Cycle
    minTime() const
    {
        Cycle m = kNoWork;
        for (const Cycle t : when_)
            m = std::min(m, t);
        return m;
    }

    /** Ids with a wake time, i.e. not parked (trace counter track). */
    std::size_t
    scheduled() const
    {
        return static_cast<std::size_t>(
            std::count_if(when_.begin(), when_.end(),
                          [](Cycle t) { return t != kNoWork; }));
    }

  private:
    std::vector<Cycle> when_;   ///< Authoritative wake per id.
};

} // namespace caba

#endif // CABA_COMMON_EVENT_QUEUE_H
