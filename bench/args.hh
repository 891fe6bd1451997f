/**
 * @file
 * The one command-line parser for every bench harness. All sweep
 * knobs — parallelism, caching (in memory and, with --cache-dir, on
 * disk, shared by concurrent sweeps), JSON output and the
 * observability artefact selectors — land in a single
 * harness::SweepOptions that configures the SweepRunner. The
 * environment default (CAPCHECK_CACHE_DIR) is applied first; explicit
 * flags win. Every value flag takes both "--flag V" and "--flag=V";
 * numeric values must be non-negative integers, or the harness exits
 * with status 2 naming the flag.
 */

#ifndef CAPCHECK_BENCH_ARGS_HH
#define CAPCHECK_BENCH_ARGS_HH

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>

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
        << "       [--cache-dir DIR]\n"
        << "       [--trace-out DIR] [--sample-interval N]"
        << " [--audit-log DIR]\n"
        << "       [--flight-out DIR] [--latency-json DIR] [--topn N]"
        << " [--debug-flags LIST]\n"
        << "       [--prof-out DIR] [--prof-folded DIR]\n"
        << "       [--topology FILE] [--dump-topology[=MODE]]\n"
        << "  --jobs N            worker threads (default: all cores)\n"
        << "  --json-dir DIR      write run-<hash>.json + manifest\n"
        << "  --no-cache          re-simulate repeated requests\n"
        << "  --quiet             no per-run progress lines on stderr\n"
        << "  --cache-dir DIR     disk-backed result cache shared\n"
        << "                      across runs; concurrent sweeps on\n"
        << "                      one DIR simulate each point once\n"
        << "                      (or set CAPCHECK_CACHE_DIR);\n"
        << "                      entries are never evicted\n"
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

/**
 * @p text as a non-negative integer; exits 2, naming @p flag, on
 * anything else (a sign, trailing characters, an empty string or an
 * out-of-range value).
 */
template <typename T>
T
parseCount(const std::string &flag, const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end) {
        std::cerr << flag << ": expected a non-negative integer, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

inline BenchOptions
parseOptions(int argc, char **argv)
{
    // Honour CAPCHECK_DEBUG in every harness, not just the examples.
    trace::DebugFlag::applyEnvironment();

    BenchOptions opts;
    opts.sweep = harness::SweepOptions::fromEnvironment();
    for (int i = 1; i < argc; ++i) {
        // "--flag=V" and "--flag V" are one spelling from here on.
        std::string arg = argv[i];
        std::optional<std::string> inline_value;
        if (const auto eq = arg.find('=');
            arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg.resize(eq);
        }
        auto value = [&]() -> std::string {
            if (inline_value)
                return *inline_value;
            if (i + 1 >= argc) {
                std::cerr << arg << " needs an argument\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto noValue = [&]() {
            if (inline_value) {
                std::cerr << arg << " takes no argument\n";
                std::exit(2);
            }
        };
        if (arg == "--jobs" || arg == "-j") {
            opts.sweep.jobs = parseCount<unsigned>(arg, value());
        } else if (arg == "--json-dir") {
            opts.sweep.jsonDir = value();
        } else if (arg == "--no-cache") {
            noValue();
            opts.sweep.cacheEnabled = false;
        } else if (arg == "--cache-dir") {
            opts.sweep.cacheDir = value();
        } else if (arg == "--trace-out") {
            opts.sweep.traceDir = value();
        } else if (arg == "--sample-interval") {
            opts.sweep.sampleInterval = parseCount<Cycles>(arg, value());
        } else if (arg == "--audit-log") {
            opts.sweep.auditDir = value();
        } else if (arg == "--flight-out") {
            opts.sweep.flightDir = value();
        } else if (arg == "--latency-json") {
            opts.sweep.latencyDir = value();
        } else if (arg == "--prof-out") {
            opts.sweep.profDir = value();
        } else if (arg == "--prof-folded") {
            opts.sweep.foldedDir = value();
        } else if (arg == "--topology") {
            opts.topology = value();
        } else if (arg == "--dump-topology") {
            // The mode is optional, so only the "=MODE" spelling.
            opts.dumpTopology = true;
            if (inline_value) {
                opts.dumpTopologyMode = *inline_value;
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
            opts.sweep.topN = parseCount<unsigned>(arg, value());
        } else if (arg == "--debug-flags") {
            const std::string list = value();
            if (list == "?") {
                trace::DebugFlag::listFlags(std::cout);
                std::exit(0);
            }
            trace::DebugFlag::applyList(list);
        } else if (arg == "--quiet" || arg == "-q") {
            noValue();
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            std::cerr << "unknown option '" << argv[i] << "'\n";
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
