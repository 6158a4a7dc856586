#include "mem/compression_model.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/audit.h"
#include "common/flat_map.h"
#include "common/log.h"

namespace caba {

CompressionModel::CompressionModel(const BackingStore &store, Algorithm algo,
                                   bool verify, std::size_t memo_cap)
    : store_(store), algo_(algo), verify_(verify), memo_cap_(memo_cap)
{
    CABA_CHECK(memo_cap_ > 0, "memo capacity must be positive");
    CABA_CHECK(memo_cap_ <= static_cast<std::size_t>(INT32_MAX),
               "memo capacity exceeds the slot index range");
    if (algo_ == Algorithm::None)
        return;
    codec_ = &getCodec(algo_);
    // Reserved, not touched: pages are committed as slots fill.
    slots_.reserve(memo_cap_);
    chain_.reserve(memo_cap_);
    // One bucket per slot at capacity, so chains stay near one entry.
    const std::size_t nb = std::max<std::size_t>(2, std::bit_ceil(memo_cap_));
    buckets_.assign(nb, -1);
    bucket_shift_ = 64 - std::countr_zero(nb);
}

std::size_t
CompressionModel::bucketOf(Addr line) const
{
    return static_cast<std::size_t>(FibonacciHash{}(line) >> bucket_shift_);
}

std::int32_t
CompressionModel::find(Addr line) const
{
    for (std::int32_t s = buckets_[bucketOf(line)]; s >= 0;
         s = chain_[static_cast<std::size_t>(s)]) {
        if (slots_[static_cast<std::size_t>(s)].key == line)
            return s;
    }
    return -1;
}

void
CompressionModel::unlinkLru(std::int32_t s)
{
    Entry &e = slots_[static_cast<std::size_t>(s)];
    if (e.prev >= 0)
        slots_[static_cast<std::size_t>(e.prev)].next = e.next;
    else
        lru_front_ = e.next;
    if (e.next >= 0)
        slots_[static_cast<std::size_t>(e.next)].prev = e.prev;
    else
        lru_back_ = e.prev;
    e.prev = -1;
    e.next = -1;
}

void
CompressionModel::pushFront(std::int32_t s)
{
    Entry &e = slots_[static_cast<std::size_t>(s)];
    e.prev = -1;
    e.next = lru_front_;
    if (lru_front_ >= 0)
        slots_[static_cast<std::size_t>(lru_front_)].prev = s;
    else
        lru_back_ = s;
    lru_front_ = s;
}

std::int32_t
CompressionModel::evictLru()
{
    const std::int32_t s = lru_back_;
    CABA_CHECK(s >= 0, "memo LRU list empty at eviction");
    unlinkLru(s);
    Entry &e = slots_[static_cast<std::size_t>(s)];
    std::int32_t *link = &buckets_[bucketOf(e.key)];
    while (*link != s) {
        CABA_CHECK(*link >= 0, "memo index and LRU list out of sync");
        link = &chain_[static_cast<std::size_t>(*link)];
    }
    *link = chain_[static_cast<std::size_t>(s)];
    memo_bytes_ -= footprint(e);
    e.version = kNoImage;
    --live_;
    ++memo_evictions_;
    return s;
}

ImageSummary
CompressionModel::lookup(Addr line)
{
    CABA_CHECK(enabled(), "lookup on disabled compression model");
    std::int32_t s = find(line);
    if (s < 0) {
        if (live_ >= memo_cap_) {
            s = evictLru();
        } else {
            s = static_cast<std::int32_t>(slots_.size());
            slots_.emplace_back();
            chain_.push_back(-1);
        }
        const std::size_t b = bucketOf(line);
        slots_[static_cast<std::size_t>(s)].key = line;
        chain_[static_cast<std::size_t>(s)] = buckets_[b];
        buckets_[b] = s;
        pushFront(s);
        ++live_;
        peak_memo_entries_ = std::max(peak_memo_entries_, live_);
    } else if (s != lru_front_) {
        unlinkLru(s);
        pushFront(s);
    }
    Entry &e = slots_[static_cast<std::size_t>(s)];
    const std::uint64_t v = store_.version(line);
    if (e.version != v) {
        // The image lives on the stack just long enough to be measured
        // and, under verify, decoded back.
        std::uint8_t buf[kLineSize];
        std::uint8_t scratch[Codec::kScratchBytes];
        store_.read(line, buf);
        const LineView img = codec_->encode(buf, scratch);
        memo_bytes_ -= footprint(e);
        e.image = {img.size, img.encoding};
        e.version = v;
        memo_bytes_ += footprint(e);
        peak_memo_bytes_ = std::max(peak_memo_bytes_, memo_bytes_);
        const auto size = static_cast<std::uint64_t>(img.size);
        ++lines_compressed_;
        uncompressed_bytes_ += kLineSize;
        compressed_bytes_ += size;
        uncompressed_bursts_ += kBurstsPerLine;
        compressed_bursts_ += static_cast<std::uint64_t>(e.image.bursts());
        compressed_line_bytes_.record(size);
        if (verify_) {
            std::uint8_t out[kLineSize];
            codec_->decode(img, out);
            CABA_CHECK(std::memcmp(buf, out, kLineSize) == 0,
                       "codec round-trip mismatch in memory image");
        }
    }
    return e.image;
}

int
CompressionModel::compressedSize(Addr line)
{
    return enabled() ? lookup(line).size : kLineSize;
}

int
CompressionModel::bursts(Addr line)
{
    return enabled() ? lookup(line).bursts() : kBurstsPerLine;
}

StatSet
CompressionModel::stats() const
{
    StatSet s;
    if (lines_compressed_ > 0) {
        s.setCounter("lines_compressed", lines_compressed_);
        s.setCounter("uncompressed_bytes", uncompressed_bytes_);
        s.setCounter("compressed_bytes", compressed_bytes_);
        s.setCounter("uncompressed_bursts", uncompressed_bursts_);
        s.setCounter("compressed_bursts", compressed_bursts_);
        s.set("memo_peak_entries",
              static_cast<std::uint64_t>(peak_memo_entries_));
        s.set("memo_peak_bytes", static_cast<std::uint64_t>(peak_memo_bytes_));
        s.dist("compressed_line_bytes") = compressed_line_bytes_;
    }
    if (memo_evictions_ > 0)
        s.setCounter("memo_evictions", memo_evictions_);
    return s;
}

void
CompressionModel::audit(Audit &a) const
{
    a.checkLe("model", "compressed_bytes <= uncompressed_bytes",
              compressed_bytes_, uncompressed_bytes_);
    a.checkLe("model", "compressed_bursts <= uncompressed_bursts",
              compressed_bursts_, uncompressed_bursts_);
    // Every compression emits in [1, kLineSize] bytes, so totals bracket.
    a.checkLe("model", "compressed_bytes >= lines_compressed",
              lines_compressed_, compressed_bytes_);
    a.checkEq("model", "uncompressed_bytes == lines * kLineSize",
              uncompressed_bytes_, lines_compressed_ * kLineSize);
    a.checkLe("model", "memo entries <= capacity",
              static_cast<std::uint64_t>(live_),
              static_cast<std::uint64_t>(memo_cap_));
    // Walk the LRU list (bounded, in case a corrupt link closes a loop).
    std::uint64_t listed = 0;
    for (std::int32_t s = lru_front_; s >= 0 && listed <= live_;
         s = slots_[static_cast<std::size_t>(s)].next) {
        ++listed;
    }
    a.checkEq("model", "memo entries and LRU list agree",
              static_cast<std::uint64_t>(live_), listed);
}

} // namespace caba
