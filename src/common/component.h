/**
 * @file
 * The clocked-object / port discipline every timed component follows
 * (gem5 / GPGPU-Sim style). Three pieces:
 *
 *  - Clocked: cycle(now) advances one cycle, busy() reports outstanding
 *    state, and nextWork(now) hints the earliest cycle at which calling
 *    cycle() could do anything. The hint powers quiescence fast-forward
 *    in GpuSystem::run(): when every component reports no work before
 *    cycle C, the clock jumps to C and skipIdle() charges the skipped
 *    cycles to the same accounting the per-cycle path would have used.
 *    The contract is one-sided: reporting work too EARLY only costs a
 *    wasted tick; reporting it too LATE is a simulation bug.
 *
 *  - Sink<T> / Source<T>: the two ends of a typed connection with
 *    explicit backpressure (canAccept / hasData).
 *
 *  - Channel<T>: a bounded FIFO (a Ring) implementing both ends, and
 *    Wire<T>, which greedily pumps a Source into a Sink once per cycle.
 *    The GpuSystem traffic-moving loops are a flat list of Wires.
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

/** Receiving end of a typed connection. */
template <typename T>
class Sink
{
  public:
    virtual ~Sink() = default;

    /** True when one more packet can be accepted this cycle. */
    virtual bool canAccept() const = 0;

    /** Hands over one packet; canAccept() must be true. */
    virtual void accept(const T &pkt, Cycle now) = 0;
};

/** Producing end of a typed connection. */
template <typename T>
class Source
{
  public:
    virtual ~Source() = default;

    /** True when a packet is ready to be taken at @p now. */
    virtual bool hasData(Cycle now) const = 0;

    /** Removes and returns the next packet; hasData() must be true. */
    virtual T take() = 0;
};

/**
 * Bounded FIFO implementing both connection ends. The capacity gates
 * canAccept()/canPush() only: push() itself never refuses, so producers
 * with reserved slots (e.g. assist-warp store release) can exceed the
 * advertised capacity exactly like the hand-rolled deques they replace.
 */
template <typename T>
class Channel : public Source<T>, public Sink<T>
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

    // Source
    bool hasData(Cycle) const override { return !q_.empty(); }

    T
    take() override
    {
        T v = q_.front();
        q_.pop_front();
        return v;
    }

    // Sink
    bool canAccept() const override { return canPush(); }
    void accept(const T &pkt, Cycle) override { push(pkt); }

  private:
    Ring<T> q_;
    int capacity_;
};

/** One Source-to-Sink binding; pump() drains greedily under
 *  backpressure, replacing a hand-rolled while loop per connection. */
template <typename T>
struct Wire
{
    Source<T> *src = nullptr;
    Sink<T> *dst = nullptr;

    void
    pump(Cycle now)
    {
        while (src->hasData(now) && dst->canAccept())
            dst->accept(src->take(), now);
    }

    /** Would pump() move at least one item right now? Quiescence
     *  checks use this: a pumpable wire means the next cycle is not a
     *  no-op even if every component reports future work. */
    bool
    canPump(Cycle now) const
    {
        return src->hasData(now) && dst->canAccept();
    }
};

} // namespace caba

#endif // CABA_COMMON_COMPONENT_H
