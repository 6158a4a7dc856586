#include "mem/backing_store.h"

#include <cstdint>
#include <cstring>

#include "common/log.h"
#include "common/rng.h"

namespace caba {

BackingStore::BackingStore(LineGenerator gen)
    : gen_(std::move(gen))
{
    CABA_CHECK(static_cast<bool>(gen_), "backing store needs a generator");
}

const BackingStore::LineState *
BackingStore::find(Addr line) const
{
    const std::uint32_t *pos = index_.find(line);
    return pos ? &lines_[*pos] : nullptr;
}

void
BackingStore::read(Addr line, std::uint8_t *out) const
{
    CABA_CHECK(line % kLineSize == 0, "unaligned line read");
    if (const LineState *st = find(line)) {
        std::memcpy(out, st->data.data(), kLineSize);
        return;
    }
    gen_(line, out);
}

BackingStore::LineState &
BackingStore::materialize(Addr line)
{
    const auto [pos, inserted] = index_.tryEmplace(line);
    if (!inserted)
        return lines_[*pos];
    CABA_CHECK(lines_.size() < UINT32_MAX, "overlay index overflow");
    *pos = static_cast<std::uint32_t>(lines_.size());
    LineState &st = lines_.emplace_back();
    gen_(line, st.data.data());
    return st;
}

void
BackingStore::write(Addr line, const std::uint8_t *data)
{
    CABA_CHECK(line % kLineSize == 0, "unaligned line write");
    LineState &st = materialize(line);
    std::memcpy(st.data.data(), data, kLineSize);
    ++st.version;
}

void
BackingStore::writePartial(Addr line, int offset, int size)
{
    CABA_CHECK(line % kLineSize == 0, "unaligned line write");
    CABA_CHECK(offset >= 0 && size > 0 && offset + size <= kLineSize,
               "partial write out of range");
    LineState &st = materialize(line);
    // Deterministic mutation: mix the line address and version so repeated
    // stores produce new-but-reproducible values with similar magnitude to
    // the surrounding data (keeps compressibility realistic).
    const std::uint64_t h = mixHash(line ^ (st.version + 1) * 0x9E37u);
    for (int i = 0; i < size; ++i)
        st.data[offset + i] ^= static_cast<std::uint8_t>(h >> ((i % 8) * 8));
    ++st.version;
}

std::uint64_t
BackingStore::version(Addr line) const
{
    const LineState *st = find(line);
    return st ? st->version : 0;
}

} // namespace caba
