#include <gtest/gtest.h>

#include <sstream>

#include "base/json.hh"
#include "base/json_value.hh"
#include "base/stats.hh"

namespace capcheck::stats
{
namespace
{

TEST(Stats, ScalarArithmetic)
{
    StatGroup group("g");
    Scalar counter(group, "count", "a counter");
    ++counter;
    counter += 2.5;
    EXPECT_DOUBLE_EQ(counter.value(), 3.5);
    counter = 7;
    EXPECT_DOUBLE_EQ(counter.value(), 7);
    counter.reset();
    EXPECT_DOUBLE_EQ(counter.value(), 0);
}

TEST(Stats, GroupFindsStatsByLeafName)
{
    StatGroup group("g");
    Scalar a(group, "a", "first");
    Scalar b(group, "b", "second");
    EXPECT_EQ(group.find("a"), &a);
    EXPECT_EQ(group.find("b"), &b);
    EXPECT_EQ(group.find("c"), nullptr);
}

TEST(Stats, NestedGroupPaths)
{
    StatGroup root("soc");
    StatGroup child("capchecker", &root);
    EXPECT_EQ(child.path(), "soc.capchecker");
}

TEST(Stats, DumpShowsQualifiedNames)
{
    StatGroup root("soc");
    StatGroup child("mem", &root);
    Scalar reads(child, "reads", "read count");
    reads += 5;

    // The JSON dump qualifies each stat by nesting it in its groups.
    std::ostringstream os;
    json::JsonWriter w(os);
    root.dumpJson(w);
    const auto doc = json::parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const json::JsonValue *mem = doc->get("mem");
    ASSERT_NE(mem, nullptr);
    const json::JsonValue *value = mem->get("reads");
    ASSERT_NE(value, nullptr);
    EXPECT_DOUBLE_EQ(value->asNumber(), 5);
}

TEST(Stats, DistributionTracksMoments)
{
    StatGroup group("g");
    Distribution dist(group, "lat", "latency", 0, 100, 10);
    dist.sample(10);
    dist.sample(20);
    dist.sample(30);
    EXPECT_EQ(dist.samples(), 3u);
    EXPECT_DOUBLE_EQ(dist.mean(), 20);
    EXPECT_DOUBLE_EQ(dist.minSeen(), 10);
    EXPECT_DOUBLE_EQ(dist.maxSeen(), 30);
}

TEST(Stats, DistributionHandlesOutliers)
{
    StatGroup group("g");
    Distribution dist(group, "d", "", 0, 10, 5);
    dist.sample(-5);
    dist.sample(100);
    EXPECT_EQ(dist.samples(), 2u);
    EXPECT_DOUBLE_EQ(dist.minSeen(), -5);
    EXPECT_DOUBLE_EQ(dist.maxSeen(), 100);
}

TEST(Stats, DistributionReset)
{
    StatGroup group("g");
    Distribution dist(group, "d", "", 0, 10, 5);
    dist.sample(5);
    dist.reset();
    EXPECT_EQ(dist.samples(), 0u);
    EXPECT_DOUBLE_EQ(dist.mean(), 0);
}

TEST(Stats, DistributionJsonRoundTripsLosslessly)
{
    StatGroup group("g");
    Distribution dist(group, "d", "", 0, 10, 5);
    dist.sample(-5);   // underflow
    dist.sample(3);    // bucket 1
    dist.sample(100);  // overflow

    std::ostringstream os;
    json::JsonWriter w(os);
    dist.dumpJson(w);
    const std::string doc = os.str();

    // Everything needed to reconstruct the histogram exactly: bucket
    // geometry plus the out-of-range counts, not just the buckets.
    EXPECT_NE(doc.find("\"lo\": 0"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"hi\": 1e+01"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"underflow\": 1"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"overflow\": 1"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"buckets\""), std::string::npos) << doc;
}

TEST(Stats, HistogramBucketsByLog2)
{
    StatGroup group("g");
    Histogram h(group, "lat", "latency");
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(1000);

    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.minSeen(), 0u);
    EXPECT_EQ(h.maxSeen(), 1000u);
    EXPECT_EQ(h.sum(), 1006u);
    // {0} -> bucket 0, {1} -> bucket 1, {2,3} -> bucket 2,
    // 1000 -> bucket 10 ([512, 1024)).
    ASSERT_EQ(h.bucketCounts().size(), 11u);
    EXPECT_EQ(h.bucketCounts()[0], 1u);
    EXPECT_EQ(h.bucketCounts()[1], 1u);
    EXPECT_EQ(h.bucketCounts()[2], 2u);
    EXPECT_EQ(h.bucketCounts()[10], 1u);
    EXPECT_EQ(Histogram::bucketLow(10), 512u);
    EXPECT_EQ(Histogram::bucketHigh(10), 1024u);
}

TEST(Stats, HistogramQuantilesAreOrderedAndBounded)
{
    StatGroup group("g");
    Histogram h(group, "lat", "");
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);

    const double p50 = h.p50();
    const double p95 = h.p95();
    const double p99 = h.p99();
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 101.0);
    // The median of 1..100 lies in the [32, 64) bucket.
    EXPECT_GE(p50, 32.0);
    EXPECT_LT(p50, 64.0);
}

TEST(Stats, HistogramSingleValueQuantiles)
{
    StatGroup group("g");
    Histogram h(group, "lat", "");
    h.sample(42, 1000);
    // All samples share one bucket clipped to [min, max + 1): every
    // quantile must stay within one unit of the only value.
    EXPECT_GE(h.p50(), 42.0);
    EXPECT_LE(h.p99(), 43.0);
    EXPECT_EQ(h.samples(), 1000u);
}

TEST(Stats, HistogramJsonEmitsQuantilesAndSparseBuckets)
{
    StatGroup group("g");
    Histogram h(group, "lat", "");
    h.sample(5);
    h.sample(1000000);

    std::ostringstream os;
    json::JsonWriter w(os);
    h.dumpJson(w);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"p99\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"count\": 1"), std::string::npos) << doc;
    // Sparse encoding: empty buckets between 5 and 1e6 are omitted.
    EXPECT_EQ(doc.find("\"count\": 0"), std::string::npos) << doc;
}

TEST(Stats, HistogramReset)
{
    StatGroup group("g");
    Histogram h(group, "lat", "");
    h.sample(7);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_TRUE(h.bucketCounts().empty());
    EXPECT_DOUBLE_EQ(h.p99(), 0);
}

TEST(Stats, FindResolvesDottedPaths)
{
    StatGroup root("soc");
    StatGroup checker("capchecker", &root);
    StatGroup cache("cache", &checker);
    Scalar hits(cache, "hits", "");
    Scalar top(root, "cycles", "");

    EXPECT_EQ(root.find("cycles"), &top);
    EXPECT_EQ(root.find("capchecker.cache.hits"), &hits);
    // A leading segment naming the root itself is tolerated, so fully
    // qualified stat-dump paths resolve as-is.
    EXPECT_EQ(root.find("soc.capchecker.cache.hits"), &hits);
    EXPECT_EQ(checker.find("cache.hits"), &hits);
    EXPECT_EQ(root.find("capchecker.cache.misses"), nullptr);
    EXPECT_EQ(root.find("nosuch.cache.hits"), nullptr);
    EXPECT_EQ(root.findChild("capchecker"), &checker);
    EXPECT_EQ(root.findChild("mem"), nullptr);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup group("g");
    Scalar hits(group, "hits", "");
    Scalar total(group, "total", "");
    Formula ratio(group, "ratio", "hit ratio", [&] {
        return total.value() ? hits.value() / total.value() : 0;
    });

    EXPECT_DOUBLE_EQ(ratio.value(), 0);
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.75);
}

TEST(Stats, ResetAllRecurses)
{
    StatGroup root("r");
    StatGroup child("c", &root);
    Scalar a(root, "a", "");
    Scalar b(child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0);
    EXPECT_DOUBLE_EQ(b.value(), 0);
}

} // namespace
} // namespace capcheck::stats
