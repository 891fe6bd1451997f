#include "mem/tagged_memory.hh"

#include <sys/mman.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "base/bitfield.hh"
#include "base/invariant.hh"
#include "base/logging.hh"

namespace capcheck
{

TaggedMemory::TaggedMemory(std::uint64_t size_bytes)
{
    if (size_bytes == 0 || size_bytes % capGranule != 0)
        fatal("TaggedMemory size must be a non-zero multiple of %llu",
              static_cast<unsigned long long>(capGranule));
    data = ZeroPages<std::uint8_t>(size_bytes);
    tags = ZeroPages<std::uint64_t>(
        divCeil(size_bytes / capGranule, tagWordBits));
}

void *
TaggedMemory::mapZeroed(std::uint64_t bytes)
{
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        fatal("TaggedMemory: cannot map %llu bytes: %s",
              static_cast<unsigned long long>(bytes), std::strerror(errno));
    return base;
}

void
TaggedMemory::unmap(void *base, std::uint64_t bytes) noexcept
{
    if (base)
        ::munmap(base, bytes);
}

void
TaggedMemory::rangeError(Addr addr, std::uint64_t len) const
{
    panic("TaggedMemory access out of range: 0x%llx+%llu",
          static_cast<unsigned long long>(addr),
          static_cast<unsigned long long>(len));
}

void
TaggedMemory::write(Addr addr, const void *src, std::uint64_t len)
{
    checkRange(addr, len);
    std::memcpy(data.data() + addr, src, len);
    clearTags(addr, len);
    if (paranoidChecks && len > 0) {
        // Postcondition of the tag discipline: a data write can never
        // leave a valid capability tag over the bytes it touched.
        const std::uint64_t first = addr / capGranule;
        const std::uint64_t last = (addr + len - 1) / capGranule;
        for (std::uint64_t g = first; g <= last; ++g)
            INVARIANT(!granuleTag(g), "data write left granule %llu tagged",
                      static_cast<unsigned long long>(g));
    }
}

void
TaggedMemory::writeRawDma(Addr addr, const void *src, std::uint64_t len)
{
    INVARIANT(!dmaTagBarrier,
              "tag-preserving raw DMA write (0x%llx+%llu) while a "
              "tag-clearing checker is interposed",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(len));
    checkRange(addr, len);
    std::memcpy(data.data() + addr, src, len);
}

void
TaggedMemory::writeCap(Addr addr, const cheri::Capability &cap)
{
    if (addr % capGranule != 0)
        panic("capability store to unaligned address 0x%llx",
              static_cast<unsigned long long>(addr));
    checkRange(addr, capGranule);

    std::uint64_t pesbt;
    std::uint64_t cursor;
    cap.compress(pesbt, cursor);
    std::memcpy(data.data() + addr, &cursor, 8);
    std::memcpy(data.data() + addr + 8, &pesbt, 8);
    const std::uint64_t g = addr / capGranule;
    const std::uint64_t bit = std::uint64_t{1} << (g % tagWordBits);
    std::uint64_t &word = tags.data()[g / tagWordBits];
    word = cap.tag() ? word | bit : word & ~bit;
}

cheri::Capability
TaggedMemory::readCap(Addr addr) const
{
    if (addr % capGranule != 0)
        panic("capability load from unaligned address 0x%llx",
              static_cast<unsigned long long>(addr));
    checkRange(addr, capGranule);

    std::uint64_t cursor;
    std::uint64_t pesbt;
    std::memcpy(&cursor, data.data() + addr, 8);
    std::memcpy(&pesbt, data.data() + addr + 8, 8);
    return cheri::Capability::fromCompressed(granuleTag(addr / capGranule),
                                             pesbt, cursor);
}

bool
TaggedMemory::tagAt(Addr addr) const
{
    checkRange(addr, 1);
    return granuleTag(addr / capGranule);
}

void
TaggedMemory::clearTags(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    checkRange(addr, len);
    const std::uint64_t first = addr / capGranule;
    const std::uint64_t last = (addr + len - 1) / capGranule;
    const std::uint64_t first_word = first / tagWordBits;
    const std::uint64_t last_word = last / tagWordBits;
    std::uint64_t *words = tags.data();
    for (std::uint64_t w = first_word; w <= last_word; ++w) {
        const std::uint64_t all = ~std::uint64_t{0};
        std::uint64_t mask = all;
        if (w == first_word)
            mask &= all << (first % tagWordBits);
        if (w == last_word)
            mask &= all >> (tagWordBits - 1 - last % tagWordBits);
        // Store only when a bit changes: a data write over untagged
        // memory must not fault in a page of the bitmap.
        if (words[w] & mask)
            words[w] &= ~mask;
    }
}

std::uint64_t
TaggedMemory::countTags() const
{
    std::uint64_t count = 0;
    const std::uint64_t *words = tags.data();
    for (std::uint64_t w = 0; w < tags.size(); ++w)
        count += static_cast<std::uint64_t>(std::popcount(words[w]));
    return count;
}

void
TaggedMemory::scrub(Addr addr, std::uint64_t len)
{
    checkRange(addr, len);
    std::memset(data.data() + addr, 0, len);
    clearTags(addr, len);
}

} // namespace capcheck
