/**
 * @file
 * Results of one benchmark run on one system configuration — the raw
 * material for Figs. 7-11.
 */

#ifndef CAPCHECK_SYSTEM_RUN_RESULT_HH
#define CAPCHECK_SYSTEM_RUN_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "system/soc_config.hh"

namespace capcheck::system
{

struct RunResult
{
    std::string benchmark;
    SystemMode mode = SystemMode::cpu;
    unsigned numTasks = 0;

    /** Wall-clock cycles of the measured region. */
    Cycles totalCycles = 0;

    /** @{ Breakdown (Fig. 10). */
    Cycles driverAllocCycles = 0;
    Cycles kernelCycles = 0; ///< CPU execution or accelerator span
    Cycles driverDeallocCycles = 0;
    /** @} */

    /** Application-side input initialization (not in totalCycles;
     *  identical across configurations). */
    Cycles initCycles = 0;

    bool functionallyCorrect = false;
    unsigned exceptions = 0;
    std::uint64_t dmaBeats = 0;
    std::size_t peakTableEntries = 0;

    /** Platform statistics as a JSON object (when
     *  SocConfig::collectStats). */
    std::string statsJson;

    /** This run's speedup relative to @p baseline (Fig. 7). */
    double speedupVs(const RunResult &baseline) const;

    /** Fractional overhead of this run relative to @p baseline. */
    double overheadVs(const RunResult &baseline) const;

    /**
     * Field-by-field equality; the determinism contract is that a
     * request re-run on any thread count compares equal.
     */
    bool operator==(const RunResult &other) const = default;
};

double geometricMean(const std::vector<double> &values);

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_RUN_RESULT_HH
