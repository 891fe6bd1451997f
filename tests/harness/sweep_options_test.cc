/**
 * @file
 * Tests for the unified SweepOptions struct: the fluent builder, the
 * environment-variable defaults, and the per-run observability path
 * derivation SweepRunner uses.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using harness::RunRequest;
using harness::SweepOptions;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

RunRequest
sampleRequest()
{
    return RunRequest::single("aes",
                              SocConfigBuilder()
                                  .mode(SystemMode::ccpuCaccel)
                                  .numInstances(2)
                                  .build());
}

/** setenv/unsetenv with restore-on-scope-exit. */
struct ScopedEnv
{
    std::string key;
    std::string saved;
    bool hadValue = false;

    ScopedEnv(const std::string &key, const char *value) : key(key)
    {
        if (const char *old = std::getenv(key.c_str())) {
            saved = old;
            hadValue = true;
        }
        if (value)
            ::setenv(key.c_str(), value, 1);
        else
            ::unsetenv(key.c_str());
    }
    ~ScopedEnv()
    {
        if (hadValue)
            ::setenv(key.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(key.c_str());
    }
};

} // namespace

TEST(SweepOptions, FluentBuilderReadsAsOneExpression)
{
    const SweepOptions opts = SweepOptions{}
                                  .withJobs(4)
                                  .withCache(false)
                                  .withJsonDir("out")
                                  .withTraceDir("tr")
                                  .withSampleInterval(100)
                                  .withAuditDir("au")
                                  .withFlightDir("fl")
                                  .withLatencyDir("la")
                                  .withTopN(3)
                                  .withCacheDir("/tmp/cache");
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_FALSE(opts.cacheEnabled);
    EXPECT_EQ(opts.jsonDir, "out");
    EXPECT_EQ(opts.traceDir, "tr");
    EXPECT_EQ(opts.sampleInterval, 100u);
    EXPECT_EQ(opts.auditDir, "au");
    EXPECT_EQ(opts.flightDir, "fl");
    EXPECT_EQ(opts.latencyDir, "la");
    EXPECT_EQ(opts.topN, 3u);
    EXPECT_EQ(opts.cacheDir, "/tmp/cache");
}

TEST(SweepOptions, DefaultsAreQuietInProcessAndCached)
{
    const SweepOptions opts;
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_TRUE(opts.cacheEnabled);
    EXPECT_EQ(opts.progress, nullptr);
    EXPECT_TRUE(opts.cacheDir.empty());
}

TEST(SweepOptions, FromEnvironmentReadsTheCapcheckVariables)
{
    ScopedEnv dir("CAPCHECK_CACHE_DIR", "/tmp/envcache");
    const SweepOptions opts = SweepOptions::fromEnvironment();
    EXPECT_EQ(opts.cacheDir, "/tmp/envcache");
}

TEST(SweepOptions, FromEnvironmentFallsBackToDefaults)
{
    ScopedEnv dir("CAPCHECK_CACHE_DIR", nullptr);
    const SweepOptions opts = SweepOptions::fromEnvironment();
    EXPECT_TRUE(opts.cacheDir.empty());
    EXPECT_EQ(opts.jobs, SweepOptions{}.jobs);
    EXPECT_EQ(opts.cacheEnabled, SweepOptions{}.cacheEnabled);
}

TEST(SweepOptions, ObsPathsAreKeyedByTheRequestHash)
{
    const RunRequest req = sampleRequest();
    const std::string hex = req.hashHex();
    const SweepOptions opts = SweepOptions{}
                                  .withTraceDir("tr")
                                  .withSampleInterval(50)
                                  .withAuditDir("au")
                                  .withFlightDir("fl")
                                  .withLatencyDir("la")
                                  .withTopN(7);
    const obs::ObsOptions oo = harness::obsOptionsFor(opts, req);
    EXPECT_EQ(oo.traceFile, "tr/run-" + hex + ".trace.json");
    EXPECT_EQ(oo.samplesFile, "tr/run-" + hex + ".samples.json");
    EXPECT_EQ(oo.sampleInterval, 50u);
    EXPECT_EQ(oo.auditFile, "au/run-" + hex + ".audit.jsonl");
    EXPECT_EQ(oo.flightFile, "fl/run-" + hex + ".flights.json");
    EXPECT_EQ(oo.latencyFile, "la/run-" + hex + ".latency.json");
    EXPECT_EQ(oo.topN, 7u);
}

TEST(SweepOptions, SamplesFallBackToJsonDirWithoutTraceDir)
{
    const RunRequest req = sampleRequest();
    const SweepOptions opts =
        SweepOptions{}.withJsonDir("out").withSampleInterval(10);
    const obs::ObsOptions oo = harness::obsOptionsFor(opts, req);
    EXPECT_EQ(oo.samplesFile,
              "out/run-" + req.hashHex() + ".samples.json");
    EXPECT_TRUE(oo.traceFile.empty());
}

TEST(SweepOptions, NoArtefactsSelectedMeansNoPaths)
{
    const obs::ObsOptions oo =
        harness::obsOptionsFor(SweepOptions{}, sampleRequest());
    EXPECT_TRUE(oo.traceFile.empty());
    EXPECT_TRUE(oo.samplesFile.empty());
    EXPECT_TRUE(oo.auditFile.empty());
    EXPECT_TRUE(oo.flightFile.empty());
    EXPECT_TRUE(oo.latencyFile.empty());
}
