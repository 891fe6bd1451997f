/**
 * @file
 * Observability walkthrough: run a protected benchmark with platform
 * statistics collection, print the statistics tree, then trigger a
 * protection exception on purpose and show how software traces it
 * (the global flag, the exception log, and the capability table's
 * per-entry exception bits).
 *
 *   ./inspect [benchmark]          (default: spmv_crs)
 *
 * Debug tracing of the run itself:
 *   CAPCHECK_DEBUG=CapChecker,Driver ./inspect
 */

#include <iostream>
#include <string>

#include "base/trace.hh"
#include "capchecker/capchecker.hh"
#include "system/soc_system.hh"

using namespace capcheck;
using namespace capcheck::system;

int
main(int argc, char **argv)
{
    trace::DebugFlag::applyEnvironment();
    const std::string benchmark = argc > 1 ? argv[1] : "spmv_crs";

    // --- Part 1: a protected run with statistics. ---
    SocConfig cfg;
    cfg.mode = SystemMode::ccpuCaccel;
    cfg.collectStats = true;
    const RunResult r = SocSystem(cfg).runBenchmark(benchmark);

    std::cout << "=== " << benchmark << " on ccpu+caccel: "
              << r.totalCycles << " cycles, "
              << (r.functionallyCorrect ? "correct" : "WRONG") << ", "
              << r.exceptions << " exceptions ===\n\n"
              << "Platform statistics:\n"
              << r.statsJson << "\n";

    // --- Part 2: what software sees when an access is blocked. ---
    std::cout << "=== Triggering a violation on a standalone "
                 "CapChecker ===\n";
    capchecker::CapChecker checker;
    checker.installCapability(/*task=*/3, /*obj=*/0,
                              cheri::Capability::root()
                                  .setBounds(0x10000, 0x100)
                                  .andPerms(cheri::permDataRO));

    MemRequest attack;
    attack.cmd = MemCmd::write; // read-only buffer
    attack.addr = 0x10040;
    attack.size = 8;
    attack.task = 3;
    attack.object = 0;
    const auto verdict = checker.check(attack);

    std::cout << "  verdict: "
              << (verdict.allowed ? "allowed" : "denied") << " ("
              << verdict.reason << ")\n"
              << "  global exception flag: "
              << (checker.exceptionFlagSet() ? "set" : "clear") << "\n";
    for (const auto &record : checker.exceptionLog()) {
        std::cout << "  exception log: task " << record.task
                  << ", object " << record.object << ", "
                  << memCmdName(record.cmd) << " @0x" << std::hex
                  << record.addr << std::dec << ": " << record.reason
                  << "\n";
    }
    for (const unsigned idx : checker.capTable().exceptionEntries()) {
        std::cout << "  table entry " << idx
                  << " has its exception bit set -> the driver can "
                     "identify the faulting pointer\n";
    }
    return r.functionallyCorrect ? 0 : 1;
}
