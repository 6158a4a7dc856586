/**
 * @file
 * The two pieces the run loop shares with its components:
 *
 *  - kNoWork: the wake-time sentinel. SmCore::nextWork() returns it
 *    when the core will never act again on its own; GpuSystem parks a
 *    sleeping SM there until the wire phase moves traffic to or from
 *    it. The SMs are the only components that sleep: the crossbars and
 *    the memory partitions cycle on every clock (DESIGN.md section 10).
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

/** SmCore::nextWork() sentinel: the core will never act again on its
 *  own (traffic the wire phase moves can still wake it). */
inline constexpr Cycle kNoWork = ~Cycle{0};

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
