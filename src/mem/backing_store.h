/**
 * @file
 * Functional image of simulated global memory. Lines are synthesized on
 * first touch by the workload's data generator (so a multi-GB footprint
 * costs nothing), and an overlay holds lines mutated by stores: a dense
 * array of line states plus a flat index from address to position.
 * Each line carries a version so compressed images can be memoized
 * safely; version() runs on every compression-model lookup.
 */
#ifndef CABA_MEM_BACKING_STORE_H
#define CABA_MEM_BACKING_STORE_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace caba {

/** Fills @c out with the pristine 64 bytes at line-aligned address. */
using LineGenerator = std::function<void(Addr, std::uint8_t *)>;

/** Copy-on-write functional memory backed by a deterministic generator. */
class BackingStore
{
  public:
    explicit BackingStore(LineGenerator gen);

    /** Reads the current 64 bytes of @p line into @p out. */
    void read(Addr line, std::uint8_t *out) const;

    /** Overwrites the full line with @p data and bumps its version. */
    void write(Addr line, const std::uint8_t *data);

    /**
     * Mutates part of the line: the workload model for partial stores.
     * @p offset/@p size select the bytes; data is a deterministic
     * function of (line, version) so runs stay repeatable.
     */
    void writePartial(Addr line, int offset, int size);

    /** Version counter of @p line (0 = pristine). */
    std::uint64_t version(Addr line) const;

    /** Number of lines touched by stores. */
    std::size_t dirtyLines() const { return lines_.size(); }

  private:
    struct LineState
    {
        std::array<std::uint8_t, kLineSize> data;
        std::uint64_t version = 0;
    };

    LineState &materialize(Addr line);

    /** The overlay entry of @p line, or null for a pristine line. */
    const LineState *find(Addr line) const;

    LineGenerator gen_;
    FlatMap<std::uint32_t> index_;  ///< Line -> position in lines_.
    std::vector<LineState> lines_;
};

} // namespace caba

#endif // CABA_MEM_BACKING_STORE_H
