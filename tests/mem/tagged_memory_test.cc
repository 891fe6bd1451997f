#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <utility>

#include "base/logging.hh"
#include "mem/tagged_memory.hh"

namespace capcheck
{
namespace
{

using cheri::Capability;
using cheri::permDataRW;

TEST(TaggedMemory, DataRoundTrip)
{
    TaggedMemory mem(4096);
    mem.writeValue<std::uint32_t>(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.readValue<std::uint32_t>(0x100), 0xdeadbeefu);

    const char text[] = "capability";
    mem.write(0x200, text, sizeof(text));
    char back[sizeof(text)];
    mem.read(0x200, back, sizeof(back));
    EXPECT_STREQ(back, "capability");
}

TEST(TaggedMemory, CapStoreSetsTagAndRoundTrips)
{
    TaggedMemory mem(4096);
    const Capability cap =
        Capability::root().setBounds(0x40, 0x80).andPerms(permDataRW);
    mem.writeCap(0x10 * 16, cap);

    EXPECT_TRUE(mem.tagAt(0x100));
    const Capability back = mem.readCap(0x100);
    EXPECT_TRUE(back.tag());
    EXPECT_EQ(back.base(), cap.base());
    EXPECT_EQ(back.top(), cap.top());
    EXPECT_EQ(back.perms(), cap.perms());
}

TEST(TaggedMemory, UntaggedCapStoreClearsTag)
{
    TaggedMemory mem(4096);
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    EXPECT_TRUE(mem.tagAt(0x100));
    mem.writeCap(0x100, Capability::root().setBounds(0, 16).cleared());
    EXPECT_FALSE(mem.tagAt(0x100));
}

TEST(TaggedMemory, DataWriteClearsOverlappingTags)
{
    // This is the anti-forgery rule: any plain-data write to a granule
    // holding a capability invalidates it.
    TaggedMemory mem(4096);
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    mem.writeCap(0x110, Capability::root().setBounds(16, 16));

    // A one-byte write into the first granule kills only that tag.
    mem.writeValue<std::uint8_t>(0x10f, 0xff);
    EXPECT_FALSE(mem.tagAt(0x100));
    EXPECT_TRUE(mem.tagAt(0x110));

    // A straddling write kills the second too.
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    mem.writeValue<std::uint64_t>(0x10c, 0);
    EXPECT_FALSE(mem.tagAt(0x100));
    EXPECT_FALSE(mem.tagAt(0x110));
}

TEST(TaggedMemory, ReadCapOfClearedGranuleIsUntagged)
{
    TaggedMemory mem(4096);
    const Capability cap = Capability::root().setBounds(0x40, 0x40);
    mem.writeCap(0x100, cap);
    mem.writeValue<std::uint64_t>(0x100, 0x4141414141414141ull);

    const Capability forged = mem.readCap(0x100);
    EXPECT_FALSE(forged.tag()); // bytes changed, rights did not survive
}

TEST(TaggedMemory, CountAndClearTags)
{
    TaggedMemory mem(4096);
    EXPECT_EQ(mem.countTags(), 0u);
    for (int i = 0; i < 4; ++i)
        mem.writeCap(0x100 + i * 16,
                     Capability::root().setBounds(0, 16));
    EXPECT_EQ(mem.countTags(), 4u);
    mem.clearTags(0x100, 32);
    EXPECT_EQ(mem.countTags(), 2u);
}

TEST(TaggedMemory, ScrubZeroesAndClears)
{
    TaggedMemory mem(4096);
    mem.writeValue<std::uint64_t>(0x100, ~0ull);
    mem.writeCap(0x110, Capability::root().setBounds(0, 16));
    mem.scrub(0x100, 0x40);
    EXPECT_EQ(mem.readValue<std::uint64_t>(0x100), 0u);
    EXPECT_FALSE(mem.tagAt(0x110));
}

TEST(TaggedMemory, UnalignedCapAccessPanics)
{
    TaggedMemory mem(4096);
    EXPECT_THROW(mem.writeCap(0x101, Capability::root()), SimError);
    EXPECT_THROW((void)mem.readCap(0x108), SimError);
}

TEST(TaggedMemory, OutOfRangePanics)
{
    TaggedMemory mem(4096);
    EXPECT_THROW(mem.writeValue<std::uint64_t>(4092, 0), SimError);
    std::uint8_t byte;
    EXPECT_THROW(mem.read(4096, &byte, 1), SimError);
}

TEST(TaggedMemory, SizeMustBeGranuleAligned)
{
    EXPECT_THROW(TaggedMemory bad(100), SimError);
    EXPECT_THROW(TaggedMemory empty(0), SimError);
}

long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

constexpr std::uint64_t bigBytes = 64ull << 20; // the SocConfig default

TEST(TaggedMemory, ConstructionTouchesNoPages)
{
    // 64 MiB is 16,384 pages; the OS zeroes them on first touch, so
    // building (and dropping) the memory faults in next to none. The
    // bound leaves room for a sanitizer runtime's own shadow pages
    // (ThreadSanitizer faults in ~150 per 64 MiB mapping).
    const long before = minorFaults();
    {
        TaggedMemory mem(bigBytes);
        EXPECT_EQ(mem.size(), bigBytes);
    }
    EXPECT_LT(minorFaults() - before, 256);
}

TEST(TaggedMemory, UntouchedMemoryReadsZero)
{
    TaggedMemory mem(bigBytes);
    mem.writeValue<std::uint64_t>(0, ~0ull);
    EXPECT_EQ(mem.readValue<std::uint64_t>(bigBytes - 8), 0u);
    EXPECT_FALSE(mem.tagAt(bigBytes - 1));
    const Capability top = mem.readCap(bigBytes - 16);
    EXPECT_FALSE(top.tag());
    EXPECT_EQ(top.addr(), 0u);
}

TEST(TaggedMemory, CountTagsIsExactAtBothEnds)
{
    TaggedMemory mem(bigBytes);
    EXPECT_EQ(mem.countTags(), 0u);
    mem.writeCap(0, Capability::root().setBounds(0, 16));
    mem.writeCap(bigBytes - 16, Capability::root().setBounds(0, 16));
    EXPECT_EQ(mem.countTags(), 2u);
    EXPECT_TRUE(mem.tagAt(bigBytes - 1));
    mem.clearTags(16, bigBytes - 16);
    EXPECT_EQ(mem.countTags(), 1u);
    EXPECT_TRUE(mem.tagAt(0));
}

TEST(TaggedMemory, MoveTransfersDataAndTags)
{
    TaggedMemory mem(4096);
    mem.writeValue<std::uint32_t>(0x20, 0xfeedu);
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    mem.setDmaTagBarrier(true);

    // The moved-from memory is not used again.
    TaggedMemory moved(std::move(mem));
    EXPECT_EQ(moved.size(), 4096u);
    EXPECT_EQ(moved.readValue<std::uint32_t>(0x20), 0xfeedu);
    EXPECT_TRUE(moved.tagAt(0x100));
    EXPECT_EQ(moved.countTags(), 1u);
    EXPECT_TRUE(moved.dmaTagBarrierArmed());

    TaggedMemory assigned(16);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 4096u);
    EXPECT_TRUE(assigned.readCap(0x100).tag());
}

} // namespace
} // namespace capcheck
