/**
 * @file
 * Named-statistics registry. Subsystems register scalars by name; the
 * harness dumps them, tests assert on them, and the JSON export
 * serializes them. A deliberately small take on gem5's stats package,
 * in three pieces:
 *
 *  - counters: monotonically accumulated event counts. Merging two
 *    sets (e.g. per-SM snapshots into a whole-GPU result) SUMS them.
 *  - gauges: point-in-time or configuration values (capacities, knob
 *    settings). Merging OVERWRITES instead of summing — an 8KB MD
 *    cache per partition is still 8KB after six partitions merge.
 *  - distributions: log2-bucketed histograms (latencies, queue depths,
 *    compressed sizes). Merging adds bucket-wise.
 */
#ifndef CABA_COMMON_STATS_H
#define CABA_COMMON_STATS_H

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>

namespace caba {

/**
 * Log2-bucketed histogram of unsigned samples. Bucket 0 holds exactly
 * the value 0; bucket b (1..64) holds [2^(b-1), 2^b - 1]. Recording is
 * a handful of arithmetic ops, cheap enough for per-event hot paths.
 */
class Distribution
{
  public:
    static constexpr int kBuckets = 65;

    /** Bucket index for @p v (0 for 0, else bit width, 1..64). */
    static int
    bucketOf(std::uint64_t v)
    {
        return v == 0 ? 0 : std::bit_width(v);
    }

    /** Smallest value falling in bucket @p b. */
    static std::uint64_t
    bucketLow(int b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    void
    record(std::uint64_t v)
    {
        if (count_ == 0) {
            min_ = v;
            max_ = v;
        } else {
            min_ = v < min_ ? v : min_;
            max_ = v > max_ ? v : max_;
        }
        ++count_;
        // Saturating sum: a histogram that has seen ~2^64 total keeps
        // reporting the ceiling instead of wrapping to a small lie.
        const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
        sum_ = v > cap - sum_ ? cap : sum_ + v;
        ++buckets_[static_cast<std::size_t>(bucketOf(v))];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return min_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ == 0
            ? 0.0
            : static_cast<double>(sum_) / static_cast<double>(count_);
    }

    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return buckets_;
    }

    /** Bucket-wise accumulation of @p other into this histogram. */
    void
    merge(const Distribution &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        min_ = other.min_ < min_ ? other.min_ : min_;
        max_ = other.max_ > max_ ? other.max_ : max_;
        count_ += other.count_;
        const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
        sum_ = other.sum_ > cap - sum_ ? cap : sum_ + other.sum_;
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
    }

    bool
    operator==(const Distribution &other) const
    {
        return count_ == other.count_ && sum_ == other.sum_ &&
               min_ == other.min_ && max_ == other.max_ &&
               buckets_ == other.buckets_;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

/** A bag of named counters, gauges and distributions with merge and
 *  format support. */
class StatSet
{
  public:
    /** Adds @p delta to counter @p name, creating it at zero if absent. */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /**
     * Snapshot-sets counter @p name to @p value. Counter semantics:
     * merging sums. Use for counters kept as plain struct members on
     * the hot path and assembled into a StatSet afterwards.
     */
    void
    setCounter(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /**
     * Sets gauge @p name to @p value. Gauge semantics: merging
     * overwrites, so configuration/capacity values survive per-SM or
     * per-partition aggregation unscaled.
     */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
        gauges_.insert(name);
    }

    /** Value of counter/gauge @p name (zero if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** True when @p name was written with gauge semantics. */
    bool
    isGauge(const std::string &name) const
    {
        return gauges_.count(name) != 0;
    }

    /** Ratio of two counters; 0 when the denominator is zero. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        const double d = static_cast<double>(get(den));
        return d == 0.0 ? 0.0 : static_cast<double>(get(num)) / d;
    }

    /** The named histogram, created empty on first use. */
    Distribution &
    dist(const std::string &name)
    {
        return dists_[name];
    }

    /** The named histogram, or null when never recorded. */
    const Distribution *
    findDist(const std::string &name) const
    {
        auto it = dists_.find(name);
        return it == dists_.end() ? nullptr : &it->second;
    }

    /**
     * Accumulates every stat of @p other into this set: counters sum,
     * gauges overwrite, distributions merge bucket-wise.
     */
    void
    merge(const StatSet &other)
    {
        mergePrefixed(other, std::string());
    }

    /** merge() with @p prefix prepended to every incoming name (the
     *  GpuSystem aggregation: "sm_" + "issued_alu" etc.). */
    void
    mergePrefixed(const StatSet &other, const std::string &prefix)
    {
        for (const auto &[k, v] : other.counters_) {
            const std::string name = prefix + k;
            if (other.gauges_.count(k) != 0) {
                counters_[name] = v;
                gauges_.insert(name);
            } else {
                counters_[name] += v;
            }
        }
        for (const auto &[k, d] : other.dists_)
            dists_[prefix + k].merge(d);
    }

    /** All counters and gauges, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** All distributions, sorted by name. */
    const std::map<std::string, Distribution> &allDists() const
    {
        return dists_;
    }

    void
    clear()
    {
        counters_.clear();
        gauges_.clear();
        dists_.clear();
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::set<std::string> gauges_;
    std::map<std::string, Distribution> dists_;
};

} // namespace caba

#endif // CABA_COMMON_STATS_H
