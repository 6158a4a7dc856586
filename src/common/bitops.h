/**
 * @file
 * Bit-level helpers used by the compression codecs: byte (de)serialization
 * of fixed-width little-endian words and range checks for signed deltas.
 */
#ifndef CABA_COMMON_BITOPS_H
#define CABA_COMMON_BITOPS_H

#include <cstdint>
#include <cstddef>
#include <cstring>

#include "common/log.h"

namespace caba {

/** Reads a little-endian unsigned value of @p size bytes (1,2,4,8). */
inline std::uint64_t
loadLe(const std::uint8_t *p, int size)
{
    // On little-endian hosts the power-of-two widths are single
    // (unaligned) loads via fixed-size memcpy — these sit in the
    // codecs' per-element inner loops.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    switch (size) {
      case 1: return *p;
      case 2: { std::uint16_t v; std::memcpy(&v, p, 2); return v; }
      case 4: { std::uint32_t v; std::memcpy(&v, p, 4); return v; }
      case 8: { std::uint64_t v; std::memcpy(&v, p, 8); return v; }
      default: break;
    }
#endif
    std::uint64_t v = 0;
    for (int i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Writes @p v little-endian into @p size bytes at @p p. */
inline void
storeLe(std::uint8_t *p, int size, std::uint64_t v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    switch (size) {
      case 1: *p = static_cast<std::uint8_t>(v); return;
      case 2: { const std::uint16_t w = static_cast<std::uint16_t>(v);
                std::memcpy(p, &w, 2); return; }
      case 4: { const std::uint32_t w = static_cast<std::uint32_t>(v);
                std::memcpy(p, &w, 4); return; }
      case 8: std::memcpy(p, &v, 8); return;
      default: break;
    }
#endif
    for (int i = 0; i < size; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Reads 8 bytes at @p p as one big-endian value. */
inline std::uint64_t
loadBe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

/** Writes @p v big-endian into the 8 bytes at @p p. */
inline void
storeBe64(std::uint8_t *p, std::uint64_t v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(p, &v, 8);
}

/**
 * True if the signed difference @p delta fits in @p bytes bytes, i.e. can
 * be represented as a sign-extended @p bytes-byte two's-complement value.
 */
inline bool
fitsSigned(std::int64_t delta, int bytes)
{
    if (bytes >= 8)
        return true;
    const std::int64_t lim = std::int64_t{1} << (8 * bytes - 1);
    return delta >= -lim && delta < lim;
}

/** True if the unsigned value @p v fits in @p bytes bytes. */
inline bool
fitsUnsigned(std::uint64_t v, int bytes)
{
    if (bytes >= 8)
        return true;
    return v < (std::uint64_t{1} << (8 * bytes));
}

/** Sign-extends the low @p bytes bytes of @p v to 64 bits. */
inline std::int64_t
signExtend(std::uint64_t v, int bytes)
{
    if (bytes >= 8)
        return static_cast<std::int64_t>(v);
    const int shift = 64 - 8 * bytes;
    return static_cast<std::int64_t>(v << shift) >> shift;
}

} // namespace caba

#endif // CABA_COMMON_BITOPS_H
