/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses: the
 * standard sweep command line (bench/args.hh), the SweepRunner it
 * configures, and config shorthands. All simulation points flow
 * through harness::RunRequest lists run by a SweepRunner, so every
 * harness parallelizes with --jobs, shares a result cache (on disk
 * too, with --cache-dir) and can emit the full set of observability
 * artefacts.
 */

#ifndef CAPCHECK_BENCH_COMMON_HH
#define CAPCHECK_BENCH_COMMON_HH

#include <iostream>
#include <string>

#include "base/table.hh"
#include "bench/args.hh"
#include "harness/sweep_runner.hh"
#include "system/soc_config_builder.hh"
#include "system/soc_system.hh"
#include "workloads/kernel.hh"

namespace capcheck::bench
{

inline void
printHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "\n=== " << what << " (reproduces " << paper_ref
              << ") ===\n";
}

/** Parse the standard command line and build the sweep runner. */
inline harness::SweepRunner
makeSweeper(int argc, char **argv)
{
    return harness::SweepRunner(parseOptions(argc, argv).sweep);
}

/**
 * Validated SocConfig for @p mode with default platform parameters.
 * Honours the harness-wide --topology flag: when one was parsed, every
 * accelerator-mode config (and therefore every RunRequest) elaborates
 * that file. CPU-only modes have no platform to shape, so harnesses
 * that mix cpu and accel points keep working under --topology.
 */
inline system::SocConfig
modeConfig(system::SystemMode mode, std::uint64_t seed = 1)
{
    return system::SocConfigBuilder()
        .mode(mode)
        .seed(seed)
        .topologyFile(system::modeUsesAccel(mode) &&
                              (!detail::cliTopologyNeedsChecker ||
                               system::modeUsesCapChecker(mode))
                          ? detail::cliTopologyFile
                          : std::string())
        .build();
}

} // namespace capcheck::bench

#endif // CAPCHECK_BENCH_COMMON_HH
