/**
 * @file
 * MSB-first bit packing helpers for the variable-length codecs (FPC and
 * C-Pack), whose compressed words are not byte aligned. Both sides move
 * a field with one 64-bit big-endian window access: a field of up to 32
 * bits starting at any bit offset 0-7 of a byte ends within that byte's
 * 8-byte window.
 */
#ifndef CABA_COMPRESS_BITSTREAM_H
#define CABA_COMPRESS_BITSTREAM_H

#include <cstdint>

#include "common/bitops.h"
#include "common/log.h"

namespace caba {

/**
 * Packs fields of up to 32 bits into a caller's buffer. The bits not
 * yet in a whole byte live in a 64-bit window whose top bit is the
 * first bit of the current byte; every put() stores the whole window
 * there, so the buffer needs kSlackBytes beyond the stream's capacity.
 * Bytes past byteCount() are scratch, and the last byte is zero-padded.
 */
class BitWriter
{
  public:
    /** Buffer bytes a window store may touch past the capacity. */
    static constexpr int kSlackBytes = 8;

    /** @p buf holds @p capacity_bytes of stream plus kSlackBytes. */
    BitWriter(std::uint8_t *buf, int capacity_bytes)
        : buf_(buf), capacity_bits_(capacity_bytes * 8)
    {}

    /** Appends the low @p bits bits of @p value, MSB first. */
    void
    put(std::uint32_t value, int bits)
    {
        CABA_CHECK(bits >= 0 && bits <= 32, "bad field width");
        CABA_CHECK(bit_count_ + bits <= capacity_bits_, "bitstream overrun");
        const int fill = bit_count_ & 7;
        // The low @p bits bits of value at the window's top (higher ones
        // shift out; no shift reaches 64), then behind the fill bits.
        window_ |= (std::uint64_t{value} << 32 << (32 - bits)) >> fill;
        storeBe64(buf_ + (bit_count_ >> 3), window_);
        // Drop the bytes that are now whole.
        window_ <<= (fill + bits) & ~7;
        bit_count_ += bits;
    }

    /** Total bits written so far. */
    int bitCount() const { return bit_count_; }

    /** Stream length in bytes, the last one zero-padded. */
    int byteCount() const { return (bit_count_ + 7) >> 3; }

    /** The packed bytes: byteCount() of them. */
    const std::uint8_t *data() const { return buf_; }

  private:
    std::uint8_t *buf_;
    int capacity_bits_;
    int bit_count_ = 0;
    std::uint64_t window_ = 0;
};

/**
 * Reads MSB-first fields from a byte buffer. A field is cut from the
 * 8-byte big-endian window at its first byte. Within 8 bytes of the end
 * that window comes from the stream's last 8 bytes (or all of a shorter
 * stream), loaded once up front, so no read passes @c size_bytes.
 */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, int size_bytes)
        : data_(data), size_bytes_(size_bytes), size_bits_(size_bytes * 8),
          tail_at_(size_bytes < 8 ? 0 : size_bytes - 8)
    {
        if (size_bytes >= 8) {
            tail_ = loadBe64(data + tail_at_);
        } else {
            for (int i = 0; i < size_bytes; ++i)
                tail_ |= std::uint64_t{data[i]} << (56 - 8 * i);
        }
    }

    /** Reads the next @p bits bits as an unsigned value. */
    std::uint32_t
    get(int bits)
    {
        CABA_CHECK(bits >= 0 && bits <= 32, "bad field width");
        CABA_CHECK(pos_ + bits <= size_bits_, "bitstream overrun");
        const std::uint64_t top = window(pos_ >> 3) << (pos_ & 7);
        pos_ += bits;
        // top >> (64 - bits), split so neither shift reaches 64.
        return static_cast<std::uint32_t>((top >> 32) >> (32 - bits));
    }

    int position() const { return pos_; }

  private:
    /** The 8 bytes from @p byte on, zero past the end of the stream. */
    std::uint64_t
    window(int byte) const
    {
        if (byte + 8 <= size_bytes_)
            return loadBe64(data_ + byte);
        // Shift by 8 * (byte - tail_at_), at most 64, in two halves.
        const int half = 4 * (byte - tail_at_);
        return tail_ << half << half;
    }

    const std::uint8_t *data_;
    int size_bytes_;
    int size_bits_;
    int tail_at_;
    std::uint64_t tail_ = 0;
    int pos_ = 0;
};

} // namespace caba

#endif // CABA_COMPRESS_BITSTREAM_H
