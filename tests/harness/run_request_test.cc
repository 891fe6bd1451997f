/** @file Tests for RunRequest construction, hashing, and execution. */

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "harness/run_request.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::harness;
using system::SocConfig;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

SocConfig
smallConfig(SystemMode mode = SystemMode::ccpuAccel)
{
    return SocConfigBuilder().mode(mode).numInstances(2).build();
}

} // namespace

TEST(RunRequest, SingleResolvesZeroTasksAtConstruction)
{
    // The old runMode() helper deferred num_tasks = 0 resolution into
    // SocSystem; RunRequest resolves it immediately, so the stored
    // request always states its real task count.
    SocConfig cfg; // numInstances = 8
    const auto implicit = RunRequest::single("aes", cfg);
    const auto explicit8 = RunRequest::single("aes", cfg, 8);

    EXPECT_EQ(implicit.numTasks, 8u);
    EXPECT_EQ(implicit, explicit8);
    EXPECT_EQ(implicit.hash(), explicit8.hash());
}

TEST(RunRequest, TaskCountChangesHash)
{
    SocConfig cfg;
    EXPECT_NE(RunRequest::single("aes", cfg, 4).hash(),
              RunRequest::single("aes", cfg, 8).hash());
}

TEST(RunRequest, HashIsStableAcrossCalls)
{
    const auto req = RunRequest::single("gemm_ncubed", smallConfig());
    EXPECT_EQ(req.hash(), req.hash());
    EXPECT_EQ(req.hashHex().size(), 16u);
}

TEST(RunRequest, EveryConfigFieldFeedsTheHash)
{
    const auto base = RunRequest::single("aes", smallConfig());

    auto with = [](SocConfig cfg) {
        return RunRequest::single("aes", std::move(cfg), 2).hash();
    };

    SocConfig seed_cfg = smallConfig();
    seed_cfg.seed = 2;
    EXPECT_NE(base.hash(), with(seed_cfg));

    SocConfig lat_cfg = smallConfig();
    lat_cfg.memLatency = 31;
    EXPECT_NE(base.hash(), with(lat_cfg));

    SocConfig cost_cfg = smallConfig();
    cost_cfg.cpuCosts.missPenalty += 1;
    EXPECT_NE(base.hash(), with(cost_cfg));

    SocConfig drv_cfg = smallConfig();
    drv_cfg.driverCosts.capDerive += 1;
    EXPECT_NE(base.hash(), with(drv_cfg));
}

TEST(RunRequest, BenchmarkNameChangesHash)
{
    const auto cfg = smallConfig();
    EXPECT_NE(RunRequest::single("aes", cfg).hash(),
              RunRequest::single("fft_strided", cfg).hash());
}

TEST(RunRequest, MixedDiffersFromSingle)
{
    const auto cfg = smallConfig();
    const auto single = RunRequest::single("aes", cfg, 1);
    const auto mixed = RunRequest::mixed({"aes"}, cfg);

    // Same benchmark list and task count, but they were constructed
    // identically — these two really are the same experiment.
    EXPECT_FALSE(mixed.isMixed());
    EXPECT_EQ(single.hash(), mixed.hash());

    const auto two = RunRequest::mixed({"aes", "aes"}, cfg);
    EXPECT_TRUE(two.isMixed());
    EXPECT_EQ(two.numTasks, 2u);
    EXPECT_NE(two.hash(), single.hash());
}

TEST(RunRequest, LabelNamesTheExperiment)
{
    const auto req =
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel), 2);
    const std::string label = req.label();
    EXPECT_NE(label.find("aes"), std::string::npos);
    EXPECT_NE(label.find("tasks=2"), std::string::npos);
    EXPECT_NE(label.find("seed=1"), std::string::npos);
}

TEST(RunRequest, ExecuteRunsTheSimulation)
{
    const auto req = RunRequest::single("aes", smallConfig(), 1);
    const auto result = req.execute();
    EXPECT_TRUE(result.functionallyCorrect);
    EXPECT_GT(result.totalCycles, 0u);
    EXPECT_EQ(result.numTasks, 1u);
}

TEST(RunRequest, ExecuteIsDeterministic)
{
    const auto req = RunRequest::single("backprop", smallConfig(), 2);
    EXPECT_EQ(req.execute(), req.execute());
}

TEST(RunRequest, TopologyFileContentsFeedTheHash)
{
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("capcheck_hash_topo_" +
                           std::to_string(::getpid()) + ".json");
    SocConfig cfg = smallConfig();
    cfg.topologyFile = path.string();
    const auto req = RunRequest::single("aes", cfg);
    const auto hashOf = [&](const char *contents) {
        std::ofstream(path) << contents;
        return req.hash();
    };

    const std::uint64_t a = hashOf("{\"name\": \"a\"}");
    const std::uint64_t b = hashOf("{\"name\": \"b\"}");
    EXPECT_NE(a, b) << "an edited file must be a new experiment";
    EXPECT_EQ(hashOf("{\"name\": \"a\"}"), a);
    const std::uint64_t empty = hashOf("");

    // An unreadable file hashes to a fixed marker: stable, and unlike
    // any readable contents (an empty file included).
    fs::remove(path);
    const std::uint64_t missing = req.hash();
    EXPECT_EQ(req.hash(), missing);
    EXPECT_NE(missing, a);
    EXPECT_NE(missing, empty);
}

TEST(RunRequest, BuiltinTopologyHashesArePinned)
{
    // Cached results and run-<hash>.json names of builtin-topology
    // requests must survive changes to how topology files are hashed.
    EXPECT_EQ(RunRequest::single("aes", SocConfig{}).hashHex(),
              "03420ef36dbeed15");
}
