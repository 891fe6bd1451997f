/**
 * @file
 * Model-based fuzzer for tagged memory (src/mem/tagged_memory.cc). A
 * small memory (8 KiB: 512 granules, eight 64-granule tag words) is
 * driven with a random write/writeRawDma/writeCap/readCap/read/scrub/
 * clearTags/tagAt/countTags workload whose ranges cluster around
 * granule and tag-word boundaries, and compared after every operation
 * against a trivially-correct dense reference: one byte vector and
 * one bool per granule. Out-of-range and unaligned operations must
 * raise SimError and leave the memory unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "cheri/capability.hh"
#include "fuzz_env.hh"
#include "mem/tagged_memory.hh"

namespace capcheck
{
namespace
{

constexpr std::uint64_t memBytes = 8192;
constexpr std::uint64_t granule = TaggedMemory::capGranule;
/** Bytes covered by one 64-bit word of the tag bitmap. */
constexpr std::uint64_t tagWordBytes = 64 * granule;

/** The dense reference: what tagged memory means, with no packing. */
struct DenseModel
{
    std::vector<std::uint8_t> bytes = std::vector<std::uint8_t>(memBytes);
    std::vector<bool> tags = std::vector<bool>(memBytes / granule);

    void
    clearTags(Addr addr, std::uint64_t len)
    {
        if (len == 0)
            return;
        for (std::uint64_t g = addr / granule;
             g <= (addr + len - 1) / granule; ++g)
            tags[g] = false;
    }

    std::uint64_t
    countTags() const
    {
        return static_cast<std::uint64_t>(
            std::count(tags.begin(), tags.end(), true));
    }
};

/**
 * An address within @p reach bytes of a multiple of @p step, clamped
 * into memory, so ranges straddle the packing boundaries the bitmap
 * must get right.
 */
Addr
nearEdge(Rng &rng, std::uint64_t step, std::uint64_t reach)
{
    const Addr edge = rng.nextBounded(memBytes / step + 1) * step;
    const Addr shifted = edge + rng.nextBounded(2 * reach + 1);
    if (shifted < reach)
        return 0;
    return std::min<Addr>(shifted - reach, memBytes - 1);
}

Addr
randomAddr(Rng &rng)
{
    switch (rng.nextBounded(3)) {
      case 0:
        return rng.nextBounded(memBytes);
      case 1:
        return nearEdge(rng, granule, 2);
      default:
        return nearEdge(rng, tagWordBytes, granule);
    }
}

/** A length up to ~2.5 tag words, usually within memory from @p addr. */
std::uint64_t
randomLen(Rng &rng, Addr addr)
{
    std::uint64_t len = rng.nextBool(0.5)
                            ? rng.nextBounded(2 * granule + 1)
                            : rng.nextBounded(2560);
    // Mostly in range; the rest exercise the range check.
    if (!rng.nextBool(0.05))
        len = std::min<std::uint64_t>(len, memBytes - addr);
    return len;
}

Addr
randomGranuleAddr(Rng &rng)
{
    if (rng.nextBool(0.5))
        return rng.nextBounded(memBytes / granule) * granule;
    // Near tag-word edges: the first and last granule of a word.
    const Addr edge =
        rng.nextBounded(memBytes / tagWordBytes) * tagWordBytes;
    return rng.nextBool(0.5) ? edge : edge + tagWordBytes - granule;
}

cheri::Capability
randomCap(Rng &rng)
{
    const Addr base = fuzz::randomSized(rng);
    cheri::Capability cap =
        cheri::Capability::root().setBounds(base, fuzz::randomSized(rng));
    if (rng.nextBool(0.5))
        cap = cap.setAddr(fuzz::randomSized(rng));
    if (rng.nextBool(0.25))
        cap = cap.cleared();
    return cap;
}

/**
 * @p len random bytes plus one spare, so data() is never null: memcpy
 * requires valid pointers even when it copies nothing.
 */
std::vector<std::uint8_t>
randomBytes(Rng &rng, std::uint64_t len)
{
    std::vector<std::uint8_t> out(len + 1);
    for (std::uint8_t &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

bool
inRange(Addr addr, std::uint64_t len)
{
    return addr + len <= memBytes;
}

/** Every byte, every tag and the tag count must match the model. */
void
expectMatches(const TaggedMemory &mem, const DenseModel &model,
              std::uint64_t iter)
{
    std::vector<std::uint8_t> bytes(memBytes);
    mem.read(0, bytes.data(), memBytes);
    ASSERT_TRUE(bytes == model.bytes) << "iteration " << iter;
    for (std::uint64_t g = 0; g < model.tags.size(); ++g)
        ASSERT_EQ(mem.tagAt(g * granule), model.tags[g])
            << "iteration " << iter << ": granule " << g;
    ASSERT_EQ(mem.countTags(), model.countTags()) << "iteration " << iter;
}

TEST(TaggedMemoryFuzz, MatchesDenseModel)
{
    Rng rng(fuzz::seed() ^ 0x7a66ed);
    const std::uint64_t iters = fuzz::iterations();

    TaggedMemory mem(memBytes);
    DenseModel model;

    for (std::uint64_t i = 0; i < iters; ++i) {
        const Addr addr = randomAddr(rng);
        const std::uint64_t len = randomLen(rng, addr);
        const bool ok = inRange(addr, len);

        switch (rng.nextBounded(10)) {
          case 0: { // write: clears every overlapping tag
            const auto src = randomBytes(rng, len);
            if (!ok) {
                ASSERT_THROW(mem.write(addr, src.data(), len), SimError)
                    << "iteration " << i;
                break;
            }
            mem.write(addr, src.data(), len);
            std::copy_n(src.begin(), len, model.bytes.begin() + addr);
            model.clearTags(addr, len);
            break;
          }
          case 1: { // writeRawDma: bytes change, tags survive
            const auto src = randomBytes(rng, len);
            if (!ok) {
                ASSERT_THROW(mem.writeRawDma(addr, src.data(), len),
                             SimError)
                    << "iteration " << i;
                break;
            }
            mem.writeRawDma(addr, src.data(), len);
            std::copy_n(src.begin(), len, model.bytes.begin() + addr);
            break;
          }
          case 2:
          case 3: { // writeCap
            const cheri::Capability cap = randomCap(rng);
            if (rng.nextBool(0.05)) {
                const Addr bad = randomGranuleAddr(rng) +
                                 1 + rng.nextBounded(granule - 1);
                ASSERT_THROW(mem.writeCap(bad, cap), SimError)
                    << "iteration " << i;
                break;
            }
            const Addr at = randomGranuleAddr(rng);
            mem.writeCap(at, cap);
            std::uint64_t pesbt;
            std::uint64_t cursor;
            cap.compress(pesbt, cursor);
            std::memcpy(model.bytes.data() + at, &cursor, 8);
            std::memcpy(model.bytes.data() + at + 8, &pesbt, 8);
            model.tags[at / granule] = cap.tag();
            break;
          }
          case 4: { // readCap decodes the granule under its tag
            const Addr at = randomGranuleAddr(rng);
            std::uint64_t cursor;
            std::uint64_t pesbt;
            std::memcpy(&cursor, model.bytes.data() + at, 8);
            std::memcpy(&pesbt, model.bytes.data() + at + 8, 8);
            const cheri::Capability want =
                cheri::Capability::fromCompressed(model.tags[at / granule],
                                                  pesbt, cursor);
            ASSERT_TRUE(mem.readCap(at) == want)
                << "iteration " << i << ": readCap(0x" << std::hex << at
                << ")";
            if (rng.nextBool(0.05)) {
                ASSERT_THROW((void)mem.readCap(at + 8), SimError)
                    << "iteration " << i;
            }
            break;
          }
          case 5: { // read
            std::vector<std::uint8_t> dst(len + 1);
            if (!ok) {
                ASSERT_THROW(mem.read(addr, dst.data(), len), SimError)
                    << "iteration " << i;
                break;
            }
            mem.read(addr, dst.data(), len);
            ASSERT_TRUE(std::equal(dst.begin(), dst.begin() + len,
                                   model.bytes.begin() + addr))
                << "iteration " << i;
            break;
          }
          case 6: { // scrub
            if (!ok) {
                ASSERT_THROW(mem.scrub(addr, len), SimError)
                    << "iteration " << i;
                break;
            }
            mem.scrub(addr, len);
            std::fill_n(model.bytes.begin() + addr, len, 0);
            model.clearTags(addr, len);
            break;
          }
          case 7:
          case 8: { // clearTags: masks within and across tag words
            if (!ok) {
                ASSERT_THROW(mem.clearTags(addr, len), SimError)
                    << "iteration " << i;
                break;
            }
            mem.clearTags(addr, len);
            model.clearTags(addr, len);
            break;
          }
          default: { // tagAt, in and out of range
            if (rng.nextBool(0.05)) {
                ASSERT_THROW((void)mem.tagAt(memBytes + addr), SimError)
                    << "iteration " << i;
                break;
            }
            ASSERT_EQ(mem.tagAt(addr), model.tags[addr / granule])
                << "iteration " << i;
            break;
          }
        }

        expectMatches(mem, model, i);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace capcheck
