/**
 * @file
 * Test-only reference codecs: BDI, FPC, C-Pack and BestOfAll as they
 * were before the word-parallel rewrite in src/compress/, with their
 * byte-at-a-time BitWriter/BitReader. Nothing in the simulator links
 * them; the differential test holds the shipped codecs to these, byte
 * for byte. They keep the codec interface of that time (ref::Codec).
 */
#ifndef CABA_TESTS_REFERENCE_CODECS_H
#define CABA_TESTS_REFERENCE_CODECS_H

#include <cstdint>
#include <string>
#include <vector>

#include "compress/bdi.h"
#include "compress/codec.h"
#include "compress/registry.h"

namespace caba {
namespace ref {

/** Appends MSB-first fields of up to 32 bits to a growing byte vector. */
class BitWriter
{
  public:
    void put(std::uint32_t value, int bits);
    int bitCount() const { return bit_count_; }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    int bit_count_ = 0;
};

/** Reads MSB-first fields from a byte buffer, one byte at a time. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, int size_bytes)
        : data_(data), size_bits_(size_bytes * 8)
    {}

    std::uint32_t get(int bits);

  private:
    const std::uint8_t *data_;
    int size_bits_;
    int pos_ = 0;
};

/** The codec interface as it was: compress() and decompress() are the
 *  virtuals, and the decompression cost reads a whole CompressedLine. */
class Codec
{
  public:
    virtual ~Codec() = default;
    virtual std::string name() const = 0;
    virtual CompressedLine compress(const std::uint8_t *line) const = 0;
    virtual void decompress(const CompressedLine &cl,
                            std::uint8_t *out) const = 0;
    virtual int hwDecompressLatency() const = 0;
    virtual int hwCompressLatency() const = 0;
    virtual SubroutineCost decompressCost(const CompressedLine &cl) const = 0;
    virtual SubroutineCost compressCost() const = 0;
};

/** BDI: every base-delta encoding tried, the strictly smallest kept. */
class BdiCodec final : public Codec
{
  public:
    std::string name() const override { return "BDI"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;
    int hwDecompressLatency() const override { return 1; }
    int hwCompressLatency() const override { return 5; }
    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override { return {4, 2}; }

    bool tryEncode(const std::uint8_t *line, BdiEncoding enc,
                   CompressedLine *out) const;
};

class FpcCodec final : public Codec
{
  public:
    std::string name() const override { return "FPC"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;
    int hwDecompressLatency() const override { return 5; }
    int hwCompressLatency() const override { return 8; }
    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override { return {8, 2}; }
};

class CpackCodec final : public Codec
{
  public:
    std::string name() const override { return "C-Pack"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;
    int hwDecompressLatency() const override { return 9; }
    int hwCompressLatency() const override { return 16; }
    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override { return {10, 2}; }
};

/** Per-line best of the three reference codecs above. */
class BestOfAllCodec final : public Codec
{
  public:
    std::string name() const override { return "BestOfAll"; }
    CompressedLine compress(const std::uint8_t *line) const override;
    void decompress(const CompressedLine &cl,
                    std::uint8_t *out) const override;
    int hwDecompressLatency() const override { return 9; }
    int hwCompressLatency() const override { return 16; }
    SubroutineCost decompressCost(const CompressedLine &cl) const override;
    SubroutineCost compressCost() const override { return {22, 6}; }
};

/** The reference codec for @p algo (not Algorithm::None). */
const Codec &getCodec(Algorithm algo);

} // namespace ref
} // namespace caba

#endif // CABA_TESTS_REFERENCE_CODECS_H
