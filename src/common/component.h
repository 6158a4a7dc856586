/**
 * @file
 * The clocked-object discipline every timed component follows
 * (gem5 / GPGPU-Sim style). Two pieces:
 *
 *  - Clocked: cycle(now) advances one cycle, busy() reports outstanding
 *    state, and nextWork(now) hints the earliest cycle at which calling
 *    cycle() could do anything. The hint drives GpuSystem's event-driven
 *    run loop: the clock steps one cycle at a time, a component sleeps
 *    until its hint (or until traffic is pushed into it), and
 *    skipIdle() charges the slept cycles to the same accounting the
 *    per-cycle path would have used. The contract is one-sided:
 *    reporting work too EARLY only costs a wasted tick; reporting it
 *    too LATE is a simulation bug, which the ticked oracle (every
 *    component cycled every clock) exposes.
 *
 *  - Channel<T>: a bounded FIFO (a Ring). GpuSystem's wire phase moves
 *    packets between the channels and crossbar ports directly.
 */
#ifndef CABA_COMMON_COMPONENT_H
#define CABA_COMMON_COMPONENT_H

#include <cstddef>

#include "common/ring.h"
#include "common/types.h"

namespace caba {

/** nextWork() sentinel: the component will never act again on its own
 *  (it may still be reactivated by traffic pushed into it). */
inline constexpr Cycle kNoWork = ~Cycle{0};

/** A component advanced by the global clock. */
class Clocked
{
  public:
    virtual ~Clocked();

    /** Advances the component one cycle. */
    virtual void cycle(Cycle now) = 0;

    /** True while the component holds undrained state. */
    virtual bool busy() const = 0;

    /**
     * Earliest cycle >= @p now at which cycle() could change any state
     * or counter (kNoWork when it never will). Must be conservative:
     * never later than the true next event.
     */
    virtual Cycle
    nextWork(Cycle now) const
    {
        (void)now;
        return now;
    }

    /**
     * Applies the accounting the skipped cycles [@p from, @p to) would
     * have performed, given that nextWork(from) >= to held for every
     * component in the system. Default: nothing to account.
     */
    virtual void
    skipIdle(Cycle from, Cycle to)
    {
        (void)from;
        (void)to;
    }
};

/**
 * Bounded FIFO. The capacity gates canPush() only: push() itself never
 * refuses, so producers with reserved slots (e.g. assist-warp store
 * release) can exceed the advertised capacity exactly like the
 * hand-rolled deques they replace.
 */
template <typename T>
class Channel
{
  public:
    /** @p capacity < 0 means unbounded. */
    explicit Channel(int capacity = -1) : capacity_(capacity) {}

    bool
    canPush() const
    {
        return capacity_ < 0 ||
               q_.size() < static_cast<std::size_t>(capacity_);
    }

    void push(const T &v) { q_.push_back(v); }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }
    const T &front() const { return q_.front(); }
    void pop_front() { q_.pop_front(); }
    void clear() { q_.clear(); }

    /** Removes and returns the front element; the channel must not be
     *  empty. */
    T
    take()
    {
        T v = q_.front();
        q_.pop_front();
        return v;
    }

  private:
    Ring<T> q_;
    int capacity_;
};

} // namespace caba

#endif // CABA_COMMON_COMPONENT_H
