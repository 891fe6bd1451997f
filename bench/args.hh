/**
 * @file
 * The one command-line parser for every bench harness. All sweep
 * knobs — parallelism, caching (in memory and, with --cache-dir, on
 * disk, shared by concurrent sweeps), JSON output and the
 * observability artefact selectors — land in a single
 * harness::SweepOptions that configures the SweepRunner. Environment
 * defaults (CAPCHECK_CACHE_DIR, CAPCHECK_CACHE_MAX_BYTES) are applied
 * first; explicit flags win.
 */

#ifndef CAPCHECK_BENCH_ARGS_HH
#define CAPCHECK_BENCH_ARGS_HH

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "base/trace.hh"
#include "harness/sweep_options.hh"
#include "system/topology.hh"

namespace capcheck::bench
{

namespace detail
{
/**
 * The --topology file from the last parseOptions() call. modeConfig()
 * folds it into every SocConfig so one flag retargets a whole
 * harness's sweep without touching each request-building loop.
 */
inline std::string cliTopologyFile; // NOLINT(cert-err58-cpp)
/**
 * True when the loaded file forces a checker scheme ("capchecker" /
 * "checker_bank" rather than "auto"): such a shape can only elaborate
 * under modes with a CHERI CPU, so modeConfig() keeps the builtin
 * shape for the non-CHERI points instead of fataling mid-sweep.
 */
inline bool cliTopologyNeedsChecker = false;
} // namespace detail

/** The options every bench harness accepts. */
struct BenchOptions
{
    /** Everything the SweepRunner consumes, parsed in one place. */
    harness::SweepOptions sweep;

    bool quiet = false; ///< --quiet silences progress lines

    /** --topology FILE: JSON platform topology for every run. */
    std::string topology;
    /** --dump-topology[=MODE]: print canonical topology JSON, exit. */
    bool dumpTopology = false;
    /** Builtin dumped when no --topology file names one. */
    std::string dumpTopologyMode = "ccpu+caccel";
};

inline void
printUsage(const char *argv0)
{
    std::cout
        << "usage: " << argv0
        << " [--jobs N] [--json-dir DIR] [--no-cache] [--quiet]\n"
        << "       [--cache-dir DIR] [--cache-max-bytes N]\n"
        << "       [--trace-out DIR] [--sample-interval N]"
        << " [--audit-log DIR]\n"
        << "       [--flight-out DIR] [--latency-json DIR] [--topn N]"
        << " [--debug-flags LIST]\n"
        << "       [--prof-out DIR] [--prof-folded DIR]\n"
        << "       [--topology FILE] [--dump-topology]\n"
        << "  --jobs N            worker threads (default: all cores)\n"
        << "  --json-dir DIR      write run-<hash>.json + manifest\n"
        << "  --no-cache          re-simulate repeated requests\n"
        << "  --quiet             no per-run progress lines on stderr\n"
        << "  --cache-dir DIR     disk-backed result cache shared\n"
        << "                      across runs; concurrent sweeps on\n"
        << "                      one DIR simulate each point once\n"
        << "                      (or set CAPCHECK_CACHE_DIR)\n"
        << "  --cache-max-bytes N LRU byte cap of the disk cache\n"
        << "                      (default 1 GiB, 0 = unbounded)\n"
        << "  --trace-out DIR     write run-<hash>.trace.json Chrome\n"
        << "                      trace timelines (Perfetto-loadable)\n"
        << "  --sample-interval N snapshot stats every N cycles into\n"
        << "                      run-<hash>.samples.json\n"
        << "  --audit-log DIR     write run-<hash>.audit.jsonl\n"
        << "                      security audit logs\n"
        << "  --flight-out DIR    write run-<hash>.flights.json tables\n"
        << "                      of the slowest DMA requests with\n"
        << "                      per-hop latency breakdowns\n"
        << "  --latency-json DIR  write run-<hash>.latency.json log2\n"
        << "                      latency histograms (p50/p95/p99) and\n"
        << "                      per-component cycle attribution\n"
        << "  --topn N            slowest flights kept per run (10)\n"
        << "  --prof-out DIR      write run-<hash>.prof.json host-time\n"
        << "                      profiles (per-domain self/total nanos\n"
        << "                      and share-of-run; read with 'capstat\n"
        << "                      prof'). Host wall-clock: enabling it\n"
        << "                      never changes the simulated outputs\n"
        << "  --prof-folded DIR   write run-<hash>.folded stacks for\n"
        << "                      flamegraph.pl / speedscope\n"
        << "  --topology FILE     load the platform topology from a\n"
        << "                      JSON file instead of the builtin\n"
        << "                      shape for each mode\n"
        << "  --dump-topology     print the (builtin or loaded)\n"
        << "                      topology as canonical JSON and exit\n"
        << "  --debug-flags LIST  enable debug flags (? lists them)\n";
}

inline BenchOptions
parseOptions(int argc, char **argv)
{
    // Honour CAPCHECK_DEBUG in every harness, not just the examples.
    trace::DebugFlag::applyEnvironment();

    BenchOptions opts;
    opts.sweep = harness::SweepOptions::fromEnvironment();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs an argument\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            opts.sweep.jobs =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.sweep.jobs = static_cast<unsigned>(
                std::atoi(arg.c_str() + std::strlen("--jobs=")));
        } else if (arg == "--json-dir") {
            opts.sweep.jsonDir = next();
        } else if (arg.rfind("--json-dir=", 0) == 0) {
            opts.sweep.jsonDir =
                arg.substr(std::strlen("--json-dir="));
        } else if (arg == "--no-cache") {
            opts.sweep.cacheEnabled = false;
        } else if (arg == "--cache-dir") {
            opts.sweep.cacheDir = next();
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            opts.sweep.cacheDir =
                arg.substr(std::strlen("--cache-dir="));
        } else if (arg == "--cache-max-bytes") {
            opts.sweep.cacheMaxBytes =
                std::strtoull(next(), nullptr, 10);
        } else if (arg.rfind("--cache-max-bytes=", 0) == 0) {
            opts.sweep.cacheMaxBytes = std::strtoull(
                arg.c_str() + std::strlen("--cache-max-bytes="),
                nullptr, 10);
        } else if (arg == "--trace-out") {
            opts.sweep.traceDir = next();
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opts.sweep.traceDir =
                arg.substr(std::strlen("--trace-out="));
        } else if (arg == "--sample-interval") {
            opts.sweep.sampleInterval =
                static_cast<Cycles>(std::atoll(next()));
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            opts.sweep.sampleInterval = static_cast<Cycles>(std::atoll(
                arg.c_str() + std::strlen("--sample-interval=")));
        } else if (arg == "--audit-log") {
            opts.sweep.auditDir = next();
        } else if (arg.rfind("--audit-log=", 0) == 0) {
            opts.sweep.auditDir =
                arg.substr(std::strlen("--audit-log="));
        } else if (arg == "--flight-out") {
            opts.sweep.flightDir = next();
        } else if (arg.rfind("--flight-out=", 0) == 0) {
            opts.sweep.flightDir =
                arg.substr(std::strlen("--flight-out="));
        } else if (arg == "--latency-json") {
            opts.sweep.latencyDir = next();
        } else if (arg.rfind("--latency-json=", 0) == 0) {
            opts.sweep.latencyDir =
                arg.substr(std::strlen("--latency-json="));
        } else if (arg == "--prof-out") {
            opts.sweep.profDir = next();
        } else if (arg.rfind("--prof-out=", 0) == 0) {
            opts.sweep.profDir =
                arg.substr(std::strlen("--prof-out="));
        } else if (arg == "--prof-folded") {
            opts.sweep.foldedDir = next();
        } else if (arg.rfind("--prof-folded=", 0) == 0) {
            opts.sweep.foldedDir =
                arg.substr(std::strlen("--prof-folded="));
        } else if (arg == "--topology") {
            opts.topology = next();
        } else if (arg.rfind("--topology=", 0) == 0) {
            opts.topology = arg.substr(std::strlen("--topology="));
        } else if (arg == "--dump-topology" ||
                   arg.rfind("--dump-topology=", 0) == 0) {
            opts.dumpTopology = true;
            if (arg.rfind("--dump-topology=", 0) == 0) {
                opts.dumpTopologyMode =
                    arg.substr(std::strlen("--dump-topology="));
                bool known = false;
                for (const std::string &n :
                     system::Topology::builtinNames())
                    known = known || n == opts.dumpTopologyMode;
                if (!known) {
                    std::cerr << "unknown --dump-topology mode '"
                              << opts.dumpTopologyMode
                              << "'; choices:";
                    for (const std::string &n :
                         system::Topology::builtinNames())
                        std::cerr << " " << n;
                    std::cerr << "\n";
                    std::exit(2);
                }
            }
        } else if (arg == "--topn") {
            opts.sweep.topN =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg.rfind("--topn=", 0) == 0) {
            opts.sweep.topN = static_cast<unsigned>(
                std::atoi(arg.c_str() + std::strlen("--topn=")));
        } else if (arg == "--debug-flags") {
            const std::string list = next();
            if (list == "?") {
                trace::DebugFlag::listFlags(std::cout);
                std::exit(0);
            }
            trace::DebugFlag::applyList(list);
        } else if (arg.rfind("--debug-flags=", 0) == 0) {
            const std::string list =
                arg.substr(std::strlen("--debug-flags="));
            if (list == "?") {
                trace::DebugFlag::listFlags(std::cout);
                std::exit(0);
            }
            trace::DebugFlag::applyList(list);
        } else if (arg == "--quiet" || arg == "-q") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            printUsage(argv[0]);
            std::exit(2);
        }
    }
    opts.sweep.progress = opts.quiet ? nullptr : &std::cerr;
    detail::cliTopologyFile = opts.topology;
    if (!opts.topology.empty() && !opts.dumpTopology) {
        // Fail at the command line, not mid-sweep: a missing or
        // malformed file is an argument error, not a simulation one.
        try {
            const system::Topology topo =
                system::Topology::loadFile(opts.topology);
            for (const system::TopologyNode &node : topo.nodes) {
                if (node.kind != "protect")
                    continue;
                const json::JsonValue *scheme =
                    node.params.get("scheme");
                if (scheme && (scheme->asString() == "capchecker" ||
                               scheme->asString() == "checker_bank"))
                    detail::cliTopologyNeedsChecker = true;
            }
        } catch (const system::TopologyError &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }
    if (opts.dumpTopology) {
        try {
            const system::Topology topo =
                !opts.topology.empty()
                    ? system::Topology::loadFile(opts.topology)
                    : system::Topology::builtinByName(
                          opts.dumpTopologyMode);
            std::cout << topo.toJsonText();
            std::exit(0);
        } catch (const system::TopologyError &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }
    return opts;
}

} // namespace capcheck::bench

#endif // CAPCHECK_BENCH_ARGS_HH
