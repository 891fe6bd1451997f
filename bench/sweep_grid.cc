/**
 * @file
 * The full paper grid in one sweep: every benchmark under every
 * system mode (covering Figs. 7, 8 and 10), the 20 mixed-accelerator
 * systems of Fig. 9, and the Fig. 11 task-count sweep. Because the
 * points are the same RunRequests the individual figure harnesses
 * build, a shared --json-dir gives one results tree for all of them,
 * and repeated points (e.g. the cpu/ccpu+caccel columns shared by
 * Figs. 7 and 10) are served from the result cache.
 *
 * Usage: sweep_grid [--jobs N] [--json-dir DIR] [--no-cache]
 *                   [--quiet] [--quick]
 * --quick trims the grid to a spot-check subset (3 benchmarks, 4
 * mixed systems, 2 task counts) for smoke testing.
 */

#include <iostream>
#include <vector>

#include "base/random.hh"
#include "base/table.hh"
#include "bench/common.hh"

using namespace capcheck;
using system::SystemMode;

int
main(int argc, char **argv)
{
    // Strip our one extra flag, then reuse the standard option parser.
    bool quick = false;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::string(argv[i]) == "--quick")
            quick = true;
        else
            passthrough.push_back(argv[i]);
    }
    const auto opts = bench::parseOptions(
        static_cast<int>(passthrough.size()), passthrough.data());
    harness::SweepRunner runner(opts.sweep);

    bench::printHeader("Full experiment grid",
                       "Figs. 7-11 simulation points");

    const auto &all_names = workloads::allKernelNames();
    std::vector<std::string> names = all_names;
    unsigned mixed_systems = 20;
    std::vector<unsigned> task_counts = {1, 2, 3, 4, 5, 6, 7, 8};
    if (quick) {
        names = {"aes", "gemm_ncubed", "bfs_bulk"};
        mixed_systems = 4;
        task_counts = {1, 8};
    }

    std::vector<harness::RunRequest> requests;

    // Figs. 7/8/10: every benchmark under every mode.
    const SystemMode all_modes[] = {
        SystemMode::cpu, SystemMode::ccpu, SystemMode::cpuAccel,
        SystemMode::ccpuAccel, SystemMode::ccpuCaccel};
    for (const std::string &name : names)
        for (const SystemMode mode : all_modes)
            requests.push_back(harness::RunRequest::single(
                name, bench::modeConfig(mode)));

    // Fig. 9: mixed-accelerator systems (same seeds as fig9_mixed, so
    // the two harnesses share cache entries and JSON files).
    for (unsigned sys_id = 0; sys_id < mixed_systems; ++sys_id) {
        Rng rng(1000 + sys_id);
        std::vector<std::string> mix;
        for (unsigned i = 0; i < 8; ++i)
            mix.push_back(all_names[rng.nextBounded(all_names.size())]);

        const std::uint64_t seed = 42 + sys_id;
        requests.push_back(harness::RunRequest::mixed(
            mix, bench::modeConfig(SystemMode::ccpuAccel, seed)));
        requests.push_back(harness::RunRequest::mixed(
            mix, bench::modeConfig(SystemMode::ccpuCaccel, seed)));
    }

    // Fig. 11: gemm_ncubed across task counts.
    for (const unsigned tasks : task_counts)
        for (const SystemMode mode :
             {SystemMode::cpu, SystemMode::ccpuAccel,
              SystemMode::ccpuCaccel})
            requests.push_back(harness::RunRequest::single(
                "gemm_ncubed", bench::modeConfig(mode), tasks));

    const auto outcomes = runner.run(requests, "sweep_grid");

    std::uint64_t failures = 0;
    std::uint64_t exceptions = 0;
    for (const auto &out : outcomes) {
        failures += !out.result.functionallyCorrect;
        exceptions += out.result.exceptions;
    }

    TextTable table({"Metric", "Value"});
    table.addRow({"grid points", std::to_string(outcomes.size())});
    table.addRow({"simulations executed",
                  std::to_string(runner.simulationsExecuted())});
    table.addRow({"cache hits", std::to_string(runner.cacheHits())});
    table.addRow({"worker threads", std::to_string(runner.jobs())});
    table.addRow({"functional failures", std::to_string(failures)});
    table.addRow({"capability exceptions", std::to_string(exceptions)});
    table.print(std::cout);

    if (!opts.sweep.jsonDir.empty())
        std::cout << "\nJSON results under " << opts.sweep.jsonDir
                  << " (sweep_grid.manifest.json lists every point).\n";

    return failures ? 1 : 0;
}
