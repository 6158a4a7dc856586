/**
 * @file
 * Ring<T>: a growable FIFO over one power-of-two array. It doubles when
 * full and never shrinks, so a queue whose depth is bounded stops
 * allocating once it has seen that depth (std::deque allocates and
 * frees a chunk every few hundred bytes of traffic). Popped elements
 * stay in the array until overwritten, so T should be a small value
 * type that owns no resources.
 */
#ifndef CABA_COMMON_RING_H
#define CABA_COMMON_RING_H

#include <cstddef>
#include <utility>
#include <vector>

namespace caba {

template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask()];
    }

    /** Takes @p v by value so pushing an element of this ring survives
     *  the growth it may trigger. */
    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask()] = std::move(v);
        ++size_;
    }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask();
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    static constexpr std::size_t kMinCapacity = 4;

    std::size_t mask() const { return buf_.size() - 1; }

    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? kMinCapacity : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace caba

#endif // CABA_COMMON_RING_H
