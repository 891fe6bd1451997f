/**
 * @file
 * Byte-addressable shared main memory with CHERI capability tags: one
 * out-of-band tag bit per 16-byte granule (the "shadow section" of
 * Section 5.2.1). Tag discipline is enforced here rather than trusted to
 * callers: any data write clears the tags of every granule it touches;
 * only the dedicated capability-store path can set a tag, and only when
 * storing an aligned, valid capability.
 *
 * Data and tags live in private anonymous mappings that the OS zeroes
 * on demand: pages a run never touches cost nothing, and reads of them
 * see the kernel's shared zero page. Tags are a bitmap packed into
 * 64-bit words, so tag counts and range clears work a word at a time.
 */

#ifndef CAPCHECK_MEM_TAGGED_MEMORY_HH
#define CAPCHECK_MEM_TAGGED_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <utility>

#include "base/types.hh"
#include "cheri/capability.hh"

namespace capcheck
{

class TaggedMemory
{
  public:
    /** Bytes covered by one capability tag. */
    static constexpr std::uint64_t capGranule = 16;

    explicit TaggedMemory(std::uint64_t size_bytes);

    /** Move-only: the mappings have one owner. A moved-from memory
     *  has size 0, so any access to it is a range error. */
    TaggedMemory(TaggedMemory &&) noexcept = default;
    TaggedMemory &operator=(TaggedMemory &&) noexcept = default;

    std::uint64_t size() const { return data.size(); }

    /** @{ Data access. Writes clear every overlapping granule tag.
     *  read() is inline: it sits on the trace-generation and CPU-model
     *  hot paths (tens of millions of calls per sweep), where the
     *  cross-TU call cost dominated the memcpy. */
    void write(Addr addr, const void *src, std::uint64_t len);

    void
    read(Addr addr, void *dst, std::uint64_t len) const
    {
        checkRange(addr, len);
        std::memcpy(dst, data.data() + addr, len);
    }

    /**
     * Tag-oblivious DMA write: data bytes change but existing granule
     * tags are left untouched. This models a naive accelerator
     * integration whose DMA path bypasses the tag discipline — the
     * enabling condition for the Fig. 2 capability-forging attack.
     * Only the CapChecker's interposed path uses tag-clearing writes.
     */
    void writeRawDma(Addr addr, const void *src, std::uint64_t len);

    template <typename T>
    void
    writeValue(Addr addr, T value)
    {
        write(addr, &value, sizeof(T));
    }

    template <typename T>
    T
    readValue(Addr addr) const
    {
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }
    /** @} */

    /**
     * Store a capability at a 16-byte aligned address. The granule tag
     * is set only if @p cap is tagged; storing an untagged capability
     * writes its bytes and clears the tag.
     */
    void writeCap(Addr addr, const cheri::Capability &cap);

    /**
     * Load a capability from a 16-byte aligned address. The result is
     * tagged only if the granule tag is set.
     */
    cheri::Capability readCap(Addr addr) const;

    /** Tag of the granule containing @p addr. */
    bool tagAt(Addr addr) const;

    /** Clear the tags of all granules overlapping [addr, addr+len). */
    void clearTags(Addr addr, std::uint64_t len);

    /** Count of set tags over the whole memory (for audits/tests). */
    std::uint64_t countTags() const;

    /** Zero a region (and clear its tags) — driver buffer scrubbing. */
    void scrub(Addr addr, std::uint64_t len);

    /**
     * Arm the DMA tag barrier: with a tag-clearing checker (the
     * CapChecker) interposed on the accelerator path, the raw
     * tag-preserving DMA path cannot exist in the modelled hardware.
     * Once armed, writeRawDma() is an invariant violation — the
     * machine-checked form of the paper's anti-forgery property that
     * no accelerator-originated write carries a valid capability tag
     * into memory.
     */
    void setDmaTagBarrier(bool armed) { dmaTagBarrier = armed; }
    bool dmaTagBarrierArmed() const { return dmaTagBarrier; }

  private:
    /**
     * Owner of one private anonymous mapping of @p n Ts, zeroed by
     * the OS page by page on first touch and unmapped on destruction.
     * A moved-from mapping is empty.
     */
    template <typename T>
    class ZeroPages
    {
      public:
        ZeroPages() = default;
        explicit ZeroPages(std::uint64_t n)
            : base(static_cast<T *>(mapZeroed(n * sizeof(T)))), count(n)
        {}
        ~ZeroPages() { unmap(base, count * sizeof(T)); }

        ZeroPages(ZeroPages &&other) noexcept
            : base(std::exchange(other.base, nullptr)),
              count(std::exchange(other.count, 0))
        {}
        ZeroPages &
        operator=(ZeroPages &&other) noexcept
        {
            if (this != &other) {
                unmap(base, count * sizeof(T));
                base = std::exchange(other.base, nullptr);
                count = std::exchange(other.count, 0);
            }
            return *this;
        }

        T *data() { return base; }
        const T *data() const { return base; }
        std::uint64_t size() const { return count; }

      private:
        T *base = nullptr;
        std::uint64_t count = 0;
    };

    static void *mapZeroed(std::uint64_t bytes);
    static void unmap(void *base, std::uint64_t bytes) noexcept;

    static constexpr std::uint64_t tagWordBits = 64;

    bool
    granuleTag(std::uint64_t g) const
    {
        return (tags.data()[g / tagWordBits] >> (g % tagWordBits)) & 1;
    }

    void
    checkRange(Addr addr, std::uint64_t len) const
    {
        if (addr + len > data.size() || addr + len < addr)
            rangeError(addr, len);
    }
    [[noreturn]] void rangeError(Addr addr, std::uint64_t len) const;

    ZeroPages<std::uint8_t> data;
    ZeroPages<std::uint64_t> tags; ///< bit g % 64 of word g / 64
    bool dmaTagBarrier = false;
};

} // namespace capcheck

#endif // CAPCHECK_MEM_TAGGED_MEMORY_HH
