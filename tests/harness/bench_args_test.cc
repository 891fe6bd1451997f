/**
 * @file
 * Tests for the bench harness command line (bench/args.hh): both
 * spellings of every value flag land in the same SweepOptions, and
 * malformed numbers or unknown flags exit with status 2 before any
 * sweep starts.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/args.hh"

using namespace capcheck;
using bench::BenchOptions;

namespace
{

BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "harness");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseOptions(static_cast<int>(argv.size()),
                               argv.data());
}

} // namespace

TEST(BenchArgs, BothSpellingsOfEveryValueFlagAgree)
{
    const std::vector<std::pair<std::string, std::string>> flags = {
        {"--jobs", "3"},          {"--json-dir", "js"},
        {"--cache-dir", "cd"},    {"--trace-out", "tr"},
        {"--sample-interval", "50"}, {"--audit-log", "au"},
        {"--flight-out", "fl"},   {"--latency-json", "la"},
        {"--prof-out", "pr"},     {"--prof-folded", "fo"},
        {"--topn", "7"}};
    std::vector<std::string> separate, joined;
    for (const auto &[flag, value] : flags) {
        separate.push_back(flag);
        separate.push_back(value);
        joined.push_back(flag + "=" + value);
    }
    for (const auto &args : {separate, joined}) {
        const harness::SweepOptions s = parse(args).sweep;
        EXPECT_EQ(s.jobs, 3u);
        EXPECT_EQ(s.jsonDir, "js");
        EXPECT_EQ(s.cacheDir, "cd");
        EXPECT_EQ(s.traceDir, "tr");
        EXPECT_EQ(s.sampleInterval, 50u);
        EXPECT_EQ(s.auditDir, "au");
        EXPECT_EQ(s.flightDir, "fl");
        EXPECT_EQ(s.latencyDir, "la");
        EXPECT_EQ(s.profDir, "pr");
        EXPECT_EQ(s.foldedDir, "fo");
        EXPECT_EQ(s.topN, 7u);
    }
}

TEST(BenchArgs, SwitchesAndShortForms)
{
    const BenchOptions opts = parse({"-j", "2", "--no-cache", "-q"});
    EXPECT_EQ(opts.sweep.jobs, 2u);
    EXPECT_FALSE(opts.sweep.cacheEnabled);
    EXPECT_TRUE(opts.quiet);
    EXPECT_EQ(opts.sweep.progress, nullptr);
}

TEST(BenchArgs, MalformedNumbersExitTwoNamingTheFlag)
{
    // Each case exits in its own forked child; none starts a sweep.
    EXPECT_EXIT(parse({"--jobs", "abc"}), testing::ExitedWithCode(2),
                "--jobs: expected a non-negative integer, got 'abc'");
    EXPECT_EXIT(parse({"--jobs=-3"}), testing::ExitedWithCode(2),
                "--jobs: .*'-3'");
    EXPECT_EXIT(parse({"-j", "4x"}), testing::ExitedWithCode(2),
                "-j: .*'4x'");
    EXPECT_EXIT(parse({"--topn", "+5"}), testing::ExitedWithCode(2),
                "--topn: .*'\\+5'");
    EXPECT_EXIT(parse({"--topn=99999999999"}),
                testing::ExitedWithCode(2), "--topn: ");
    EXPECT_EXIT(parse({"--sample-interval", "-1"}),
                testing::ExitedWithCode(2), "--sample-interval: ");
    EXPECT_EXIT(parse({"--sample-interval="}),
                testing::ExitedWithCode(2), "--sample-interval: .*''");
}

TEST(BenchArgs, MisusedFlagsExitTwo)
{
    EXPECT_EXIT(parse({"--jobs"}), testing::ExitedWithCode(2),
                "--jobs needs an argument");
    EXPECT_EXIT(parse({"--no-cache=1"}), testing::ExitedWithCode(2),
                "--no-cache takes no argument");
    EXPECT_EXIT(parse({"--no-such-flag=5"}), testing::ExitedWithCode(2),
                "unknown option '--no-such-flag=5'");
}
