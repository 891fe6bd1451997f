/**
 * @file
 * Tests for the disk-backed result cache: round-trip fidelity,
 * persistence across instances, entries published by another instance
 * after this one opened, version/hash validation of on-disk entries,
 * hits that write nothing, and the per-entry claims that let
 * concurrent sweeps coalesce.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/disk_cache.hh"

using namespace capcheck;
using harness::DiskResultCache;

namespace
{

namespace fs = std::filesystem;

struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("capcheck_disk_cache_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }

    static inline int counter = 0;
};

system::RunResult
sampleResult(std::uint64_t cycles)
{
    system::RunResult r;
    r.benchmark = "aes";
    r.mode = system::SystemMode::ccpuCaccel;
    r.numTasks = 2;
    r.totalCycles = cycles;
    r.driverAllocCycles = cycles / 8;
    r.kernelCycles = cycles / 2;
    r.driverDeallocCycles = cycles / 16;
    r.initCycles = cycles / 4;
    r.functionallyCorrect = true;
    r.exceptions = 3;
    r.dmaBeats = cycles * 3;
    r.peakTableEntries = 5;
    r.statsJson = "{\n  \"x\": 1\n}";
    return r;
}

} // namespace

TEST(DiskResultCache, StoreLookupRoundTripsEveryField)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    const auto result = sampleResult(1000);
    cache.store(0xabcdef0123456789ull, result);
    const auto back = cache.lookup(0xabcdef0123456789ull);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result);
}

TEST(DiskResultCache, MissOnUnknownHash)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    EXPECT_FALSE(cache.lookup(42).has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.lookups, 1u);
    EXPECT_EQ(stats.hits, 0u);
}

TEST(DiskResultCache, EntriesSurviveANewInstance)
{
    TempDir dir;
    const auto result = sampleResult(77);
    {
        DiskResultCache first(dir.path.string());
        first.store(7, result);
    }
    // A second instance (a later process) serves what is on disk.
    DiskResultCache second(dir.path.string());
    const auto back = second.lookup(7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result);
    EXPECT_EQ(second.stats().hits, 1u);
}

TEST(DiskResultCache, ServesEntriesAnotherInstancePublishedLater)
{
    TempDir dir;
    const auto result = sampleResult(55);
    DiskResultCache a(dir.path.string());
    DiskResultCache b(dir.path.string());
    // b publishes after a opened the (empty) directory.
    ASSERT_TRUE(b.store(5, result));
    const auto back = a.lookup(5);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result);
    EXPECT_EQ(a.stats().hits, 1u);
}

TEST(DiskResultCache, HitLeavesTheEntryAndTheDirectoryUntouched)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    ASSERT_TRUE(cache.store(6, sampleResult(6)));
    // Backdate the entry so a rewrite would show even on a filesystem
    // with coarse timestamps.
    const fs::path entry = cache.pathFor(6);
    const auto old = fs::last_write_time(entry) - std::chrono::hours(1);
    fs::last_write_time(entry, old);

    const auto listing = [&dir] {
        std::vector<std::string> names;
        for (const auto &de : fs::directory_iterator(dir.path))
            names.push_back(de.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    };
    const auto before = listing();
    ASSERT_TRUE(cache.lookup(6).has_value());
    ASSERT_TRUE(DiskResultCache(dir.path.string()).lookup(6).has_value());
    EXPECT_EQ(fs::last_write_time(entry), old);
    EXPECT_EQ(listing(), before);
}

TEST(DiskResultCache, ClaimIsExclusiveUntilReleased)
{
    TempDir dir;
    DiskResultCache a(dir.path.string());
    DiskResultCache b(dir.path.string());
    auto held = a.claim(3, /*wait=*/false);
    ASSERT_TRUE(held.held());
    // Separate opens conflict even within one process.
    EXPECT_FALSE(b.claim(3, false).held());
    EXPECT_FALSE(a.claim(3, false).held());
    EXPECT_TRUE(b.claim(4, false).held()) << "claims are per entry";

    held.release(/*published=*/false);
    EXPECT_FALSE(held.held());
    EXPECT_TRUE(b.claim(3, false).held());
}

TEST(DiskResultCache, PublishedReleaseUnlinksTheLockFile)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    const fs::path lock =
        fs::path(cache.pathFor(8)).replace_extension(".lock");

    auto failed = cache.claim(8, false);
    ASSERT_TRUE(failed.held());
    EXPECT_TRUE(fs::exists(lock));
    failed.release(/*published=*/false);
    EXPECT_TRUE(fs::exists(lock)) << "no entry yet, so keep the lock";

    auto holder = cache.claim(8, false);
    ASSERT_TRUE(holder.held());
    ASSERT_TRUE(cache.store(8, sampleResult(8)));
    holder.release(/*published=*/true);
    EXPECT_FALSE(fs::exists(lock));
    EXPECT_TRUE(cache.lookup(8).has_value());
    EXPECT_TRUE(cache.claim(8, false).held());
}

TEST(DiskResultCache, CorruptEntryIsDroppedNotServed)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    cache.store(9, sampleResult(1));
    ASSERT_TRUE(cache.lookup(9).has_value());

    // Truncate the file behind the cache's back.
    std::ofstream(cache.pathFor(9),
                  std::ios::trunc)
        << "{\"version\": 1, \"hash\"";
    DiskResultCache fresh(dir.path.string());
    EXPECT_FALSE(fresh.lookup(9).has_value());
    // The poisoned file is gone, not retried forever.
    EXPECT_FALSE(fs::exists(fresh.pathFor(9)));
}

TEST(DiskResultCache, HashMismatchInsideTheFileIsAMiss)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    cache.store(0x1111, sampleResult(1));
    // Rename the entry so the name claims a different hash than the
    // body records.
    fs::rename(cache.pathFor(0x1111), cache.pathFor(0x2222));
    DiskResultCache fresh(dir.path.string());
    EXPECT_FALSE(fresh.lookup(0x2222).has_value());
}

TEST(DiskResultCache, ForeignFilesAreIgnored)
{
    TempDir dir;
    fs::create_directories(dir.path);
    std::ofstream(dir.path / "README.txt") << "not a cache entry";
    std::ofstream(dir.path / "zz.json") << "{}";
    DiskResultCache cache(dir.path.string());
    ASSERT_TRUE(cache.store(1, sampleResult(1)));
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(fs::exists(dir.path / "README.txt"));
    EXPECT_TRUE(fs::exists(dir.path / "zz.json"));
}

TEST(DiskResultCache, StatsCountHitsAndLookups)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    EXPECT_EQ(cache.stats().lookups, 0u);

    cache.store(1, sampleResult(1));
    cache.store(2, sampleResult(2));
    cache.lookup(1);
    cache.lookup(1);
    cache.lookup(99);
    EXPECT_EQ(cache.stats().lookups, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
}
