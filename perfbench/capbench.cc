/**
 * @file
 * capbench: the measuring half of the repository benchmark. It builds
 * one named workload of simulation points from a seed, runs it through
 * the library's public API and writes every raw sample to one JSON
 * document; perfbench/run.py turns that document into the reported
 * metrics and checks the simulated results.
 *
 * Usage: capbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --dir DIR --out FILE
 *
 * Both modes first run and time the set-up (setUp), then repeat it.
 *
 * Untraced (--trace 0): runs whole passes of the workload through
 * harness::SweepRunner with a fixed worker count in a closed loop
 * until the next pass would overrun S seconds (at least one pass). Each pass uses a fresh runner, so only in-grid duplicates
 * are served from its result cache.
 *
 * Traced (--trace 1): one worker. Every point is submitted alone to a
 * SweepRunner (untraced wall and cache flags), then run again inside a
 * root span that holds benchmark-side child spans around the layers'
 * public entry points: topology load + elaboration, tagged-memory
 * construction, and RunRequest::execute under a host-time profile
 * session with the flight recorder on. Spans stay in memory and the
 * document is written once at exit.
 *
 * Every point uses the default SocConfig except for knobs of the
 * modelled hardware (mode, provenance, table and cache entries,
 * topology, instance and task counts) and the input-data seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/json_value.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "harness/sweep_runner.hh"
#include "mem/tagged_memory.hh"
#include "obs/prof.hh"
#include "sim/eventq.hh"
#include "system/elaborator.hh"
#include "system/soc_config_builder.hh"
#include "system/topogen.hh"
#include "system/topology.hh"
#include "workloads/kernel.hh"

using namespace capcheck;
using system::SystemMode;

namespace
{

using Clock = std::chrono::steady_clock;

/** Taken during static initialization, as close to process start as
 *  the program can observe; the first set-up sample starts here. */
const Clock::time_point processStart = Clock::now();

/** Fixed worker count of the untraced loop, equal on every commit. */
constexpr unsigned untracedJobs = 4;

/**
 * Set-up is repeated on this many fresh threads in turn, for this long
 * on each after one untimed warm-up; the report uses the median. Timed on one thread alone, the
 * microseconds set-up takes settled at one of two speeds for a whole
 * process, so the median of a run followed that coin toss; fresh
 * stacks and malloc arenas average it out.
 */
constexpr unsigned setupThreads = 8;
constexpr double setupSecondsPerThread = 0.03;

/** Seed that reproduces the paper grid's own seeds and the committed
 *  reference results. */
constexpr std::uint64_t defaultSeed = 1;

std::uint64_t
nanosSince(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                             processStart)
            .count());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One simulation point with a seed-independent name. */
struct Point
{
    std::string key;
    harness::RunRequest request;
    /** Key of the unprotected twin this point's simulated overhead is
     *  measured against; empty when the point has none. */
    std::string twin;
};

system::SocConfig
hardware(SystemMode mode, std::uint64_t input_seed)
{
    system::SocConfig cfg;
    cfg.mode = mode;
    cfg.seed = input_seed;
    return cfg;
}

/**
 * paper-grid: the 159 points of the full figure grid (the 20 mixed
 * systems of Fig. 9, Figs. 7/8/10, the Fig. 11 task sweep). At the
 * default seed every request hashes equal to the one the figure
 * harnesses build. The traced run visits points from the end of the
 * list, so the order puts there the task sweep (whose 8-task points
 * recur in Fig. 7) and then Fig. 7 mode by mode, the CPU-only modes
 * last.
 */
std::vector<Point>
paperGrid(std::uint64_t seed)
{
    const auto &names = workloads::allKernelNames();
    std::vector<Point> points;

    for (unsigned sys_id = 0; sys_id < 20; ++sys_id) {
        Rng rng(1000 * seed + sys_id);
        std::vector<std::string> mix;
        for (unsigned i = 0; i < 8; ++i)
            mix.push_back(names[rng.nextBounded(names.size())]);
        const std::uint64_t input_seed = 41 + seed + sys_id;
        for (const SystemMode mode :
             {SystemMode::ccpuAccel, SystemMode::ccpuCaccel}) {
            Point p;
            p.key = "fig9/sys" + std::to_string(sys_id) + "/" +
                    system::systemModeName(mode);
            p.request = harness::RunRequest::mixed(
                mix, hardware(mode, input_seed));
            points.push_back(std::move(p));
        }
    }

    for (const SystemMode mode :
         {SystemMode::cpu, SystemMode::ccpu, SystemMode::cpuAccel,
          SystemMode::ccpuAccel, SystemMode::ccpuCaccel}) {
        for (const std::string &name : names) {
            Point p;
            p.key = "fig7/" + name + "/" + system::systemModeName(mode);
            p.request =
                harness::RunRequest::single(name, hardware(mode, seed));
            if (mode == SystemMode::ccpuCaccel)
                p.twin = "fig7/" + name + "/" +
                         system::systemModeName(SystemMode::ccpuAccel);
            points.push_back(std::move(p));
        }
    }

    for (unsigned tasks = 1; tasks <= 8; ++tasks) {
        for (const SystemMode mode :
             {SystemMode::cpu, SystemMode::ccpuAccel,
              SystemMode::ccpuCaccel}) {
            Point p;
            p.key = "fig11/t" + std::to_string(tasks) + "/" +
                    system::systemModeName(mode);
            p.request = harness::RunRequest::single(
                "gemm_ncubed", hardware(mode, seed), tasks);
            points.push_back(std::move(p));
        }
    }
    return points;
}

/**
 * Write @p topo to @p path unless the file already holds exactly that
 * text; throws on I/O failure. Rewriting an identical file would time
 * the file system's truncate-and-journal tail rather than the program.
 */
std::string
writeTopology(const system::Topology &topo, const std::string &path)
{
    const std::string text = topo.toJsonText();
    {
        std::ifstream is(path, std::ios::binary);
        const std::string current((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
        if (is.is_open() && current == text)
            return path;
    }
    std::ofstream os(path);
    os << text;
    if (!os)
        throw std::runtime_error("cannot write topology " + path);
    return path;
}

/**
 * scale-tree: DMA-streaming kernels on generated two-level,
 * two-channel crossbar trees of 16 and 32 accelerators, one task per
 * accelerator, under a checker bank, a shared CapChecker, and no
 * checker (the unprotected twin of both). The larger trees come first
 * so the worker pool drains evenly; the traced run, which starts from
 * the end, covers both kernels on the 16-accelerator trees.
 */
std::vector<Point>
scaleTree(std::uint64_t seed, const std::string &dir)
{
    struct Scheme
    {
        const char *name;
        const char *scheme;
        SystemMode mode;
        unsigned banks;
    };
    const Scheme schemes[] = {
        {"bank", "checker_bank", SystemMode::ccpuCaccel, 4},
        {"shared", "capchecker", SystemMode::ccpuCaccel, 0},
        {"none", "none", SystemMode::ccpuAccel, 0},
    };
    std::vector<Point> points;
    for (const unsigned accels : {32u, 16u}) {
        for (const Scheme &s : schemes) {
            system::TopoGenParams params;
            params.accels = accels;
            params.levels = 2;
            params.fanout = 4;
            params.channels = 2;
            params.banks = s.banks;
            params.scheme = s.scheme;
            // Fixed jitter (the seed scale_sweep uses): the jitter moves
            // the interleave stride and crossbar burst budgets, which
            // moves the simulated overhead by more than any bound.
            params.seed = 42;
            const std::string path = writeTopology(
                system::generateTopology(params),
                dir + "/scale-" + s.name + "-a" +
                    std::to_string(accels) + ".json");
            // Load it back: set-up includes the parse a user's sweep
            // pays when it names the file.
            (void)system::Topology::loadFile(path);

            for (const char *kernel : {"kmp", "stencil3d"}) {
                system::SocConfig cfg = hardware(s.mode, seed);
                cfg.numInstances = accels;
                cfg.topologyFile = path;
                Point p;
                const std::string base = std::string("scale/") +
                                         kernel + "/a" +
                                         std::to_string(accels) + "/";
                p.key = base + s.name;
                p.request =
                    harness::RunRequest::single(kernel, cfg, accels);
                if (s.mode == SystemMode::ccpuCaccel)
                    p.twin = base + "none";
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

/**
 * cap-churn: DMA-bound kernels under capability pressure. Undersized
 * capability caches make lookups miss and walk the table, undersized
 * tables make the driver run tasks in install/revoke waves, task
 * counts above the instance count queue tasks, and both provenance
 * granularities appear. Each kernel and task count also runs
 * unprotected, as the twin of its pressured points.
 */
std::vector<Point>
capChurn(std::uint64_t seed)
{
    struct Pressure
    {
        const char *name;
        capchecker::Provenance provenance;
        unsigned tableEntries;
        unsigned cacheEntries;
        unsigned tasks;
    };
    const Pressure pressures[] = {
        {"c4-fine-t8", capchecker::Provenance::fine, 256, 4, 8},
        {"c8-coarse-t16", capchecker::Provenance::coarse, 256, 8, 16},
        {"tab16-fine-t16", capchecker::Provenance::fine, 16, 0, 16},
        {"tab24-c8-coarse-t12", capchecker::Provenance::coarse, 24, 8,
         12},
    };
    std::vector<Point> points;
    for (const char *kernel : {"kmp", "stencil3d", "spmv_crs"}) {
        const std::string base = std::string("churn/") + kernel + "/";
        for (const Pressure &pr : pressures) {
            system::SocConfig cfg =
                hardware(SystemMode::ccpuCaccel, seed);
            cfg.provenance = pr.provenance;
            cfg.capTableEntries = pr.tableEntries;
            cfg.capCacheEntries = pr.cacheEntries;
            Point p;
            p.key = base + pr.name;
            p.request = harness::RunRequest::single(kernel, cfg, pr.tasks);
            p.twin = base + "none-t" + std::to_string(pr.tasks);
            points.push_back(std::move(p));
        }
        for (const unsigned tasks : {8u, 12u, 16u}) {
            Point p;
            p.key = base + "none-t" + std::to_string(tasks);
            p.request = harness::RunRequest::single(
                kernel, hardware(SystemMode::ccpuAccel, seed), tasks);
            points.push_back(std::move(p));
        }
    }
    return points;
}

const std::vector<std::string> workloadNames = {"paper-grid",
                                                "scale-tree",
                                                "cap-churn"};

/** Everything a run needs before its first point is submitted. */
std::vector<Point>
setUp(const std::string &workload, std::uint64_t seed,
      const std::string &dir)
{
    std::vector<Point> points;
    if (workload == "paper-grid")
        points = paperGrid(seed);
    else if (workload == "scale-tree")
        points = scaleTree(seed, dir);
    else
        points = capChurn(seed);
    for (const Point &p : points) {
        const std::string errors =
            system::validationErrors(p.request.config);
        if (!errors.empty())
            throw std::runtime_error(p.key + ": " + errors);
    }
    return points;
}

std::vector<harness::RunRequest>
requestsOf(const std::vector<Point> &points)
{
    std::vector<harness::RunRequest> out;
    out.reserve(points.size());
    for (const Point &p : points)
        out.push_back(p.request);
    return out;
}

/** Options built field by field, never from the environment, so no
 *  disk cache, daemon or debug output can reach the run. */
harness::SweepOptions
isolatedOptions(unsigned jobs)
{
    harness::SweepOptions opts;
    opts.jobs = jobs;
    return opts;
}

void
writeResult(json::JsonWriter &w, const system::RunResult &r)
{
    w.key("correct").value(r.functionallyCorrect);
    w.key("totalCycles").value(std::uint64_t{r.totalCycles});
    w.key("dmaBeats").value(r.dmaBeats);
    w.key("exceptions").value(r.exceptions);
    w.key("peakTableEntries")
        .value(static_cast<std::uint64_t>(r.peakTableEntries));
    w.key("driverAllocCycles").value(std::uint64_t{r.driverAllocCycles});
}

/** Unique request hashes in @p points (duplicates hit the cache). */
std::size_t
uniqueCount(const std::vector<Point> &points)
{
    std::vector<std::uint64_t> hashes;
    for (const Point &p : points)
        hashes.push_back(p.request.hash());
    std::sort(hashes.begin(), hashes.end());
    return static_cast<std::size_t>(
        std::unique(hashes.begin(), hashes.end()) - hashes.begin());
}

void
runUntraced(json::JsonWriter &w, const std::vector<Point> &points,
            const std::string &workload, double seconds)
{
    const std::vector<harness::RunRequest> requests = requestsOf(points);
    const std::size_t unique = uniqueCount(points);
    const auto t_start = Clock::now();
    double elapsed = 0;
    unsigned passes = 0;

    w.key("passes").beginArray();
    // Closed loop over whole passes: start another only while the mean
    // pass so far still fits in the time budget.
    while (passes == 0 || elapsed + elapsed / passes <= seconds) {
        harness::SweepRunner runner(isolatedOptions(untracedJobs));
        const auto t0 = Clock::now();
        const auto outcomes = runner.run(requests, workload);
        const auto t1 = Clock::now();
        ++passes;
        elapsed = secondsBetween(t_start, t1);

        w.beginObject();
        w.key("wallSeconds").value(secondsBetween(t0, t1));
        w.key("executed").value(runner.simulationsExecuted());
        w.key("expectedExecuted").value(std::uint64_t{unique});
        w.key("outcomes").beginArray();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            w.beginObject();
            w.key("point").value(std::uint64_t{i});
            w.key("cacheHit").value(outcomes[i].cacheHit);
            w.key("wallMillis").value(outcomes[i].wallMillis);
            writeResult(w, outcomes[i].result);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

/** A benchmark-side span; parent is an index into the span list. */
struct Span
{
    std::string name;
    std::size_t point = 0;
    std::int64_t parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

class SpanBook
{
  public:
    std::size_t
    open(std::string name, std::size_t point, std::int64_t parent)
    {
        spans.push_back(Span{std::move(name), point, parent,
                             nanosSince(Clock::now()), 0});
        return spans.size() - 1;
    }

    void close(std::size_t id) { spans[id].endNs = nanosSince(Clock::now()); }

    void
    write(json::JsonWriter &w) const
    {
        w.key("spans").beginArray();
        for (const Span &s : spans) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("point").value(std::uint64_t{s.point});
            w.key("parent").value(s.parent);
            w.key("startNs").value(s.startNs);
            w.key("endNs").value(s.endNs);
            w.endObject();
        }
        w.endArray();
    }

  private:
    std::vector<Span> spans;
};

struct Usage
{
    double sysMs = 0;
    std::uint64_t minorFaults = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return Usage{ms(ru.ru_stime),
                 static_cast<std::uint64_t>(ru.ru_minflt)};
}

/** Sum of "stallCycles" over the stat groups of a stats JSON tree
 *  that also count @p marker: "checked" picks the check stages,
 *  "grants" the crossbars. */
double
stallCycles(const json::JsonValue &node, const std::string &marker)
{
    const json::JsonValue *stalls = node.get("stallCycles");
    if (node.get(marker) && stalls && stalls->isNumber())
        return stalls->asNumber();
    double sum = 0;
    for (const auto &member : node.members()) {
        if (member.second.isObject())
            sum += stallCycles(member.second, marker);
    }
    return sum;
}

double
numberAt(const json::JsonValue &doc, const std::string &path)
{
    const json::JsonValue *v = doc.at(path);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

void
runTraced(json::JsonWriter &w, const std::vector<Point> &points,
          const std::string &workload, double seconds,
          const std::string &dir)
{
    harness::SweepRunner runner(isolatedOptions(1));
    SpanBook book;
    const std::string latency_file = dir + "/traced.latency.json";
    const auto t_start = Clock::now();

    // Reverse list order: the lists put their longest points first for
    // the worker pool, so a time-limited traced run starts with the
    // short ones and covers more of the workload.
    w.key("tracedPoints").beginArray();
    for (std::size_t n = 0; n < points.size(); ++n) {
        if (n > 0 && secondsBetween(t_start, Clock::now()) >= seconds)
            break;
        const std::size_t i = points.size() - 1 - n;
        const harness::RunRequest &req = points[i].request;

        const auto b0 = Clock::now();
        const harness::RunOutcome outcome =
            runner.run({req}, workload).front();
        const double batch_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - b0)
                .count();

        w.beginObject();
        w.key("point").value(std::uint64_t{i});
        w.key("cacheHit").value(outcome.cacheHit);
        w.key("batchMillis").value(batch_ms);
        w.key("wallMillis").value(outcome.wallMillis);
        if (outcome.cacheHit) {
            writeResult(w, outcome.result);
            w.endObject();
            continue;
        }

        const Usage u0 = usageNow();
        const std::size_t root = book.open("point", i, -1);
        const bool accel = system::modeUsesAccel(req.config.mode);
        if (accel) {
            const std::size_t s = book.open(
                "system.elaborate", i, static_cast<std::int64_t>(root));
            const system::Topology topo =
                req.config.topologyFile.empty()
                    ? system::Topology::builtin(req.config.mode)
                    : system::Topology::loadFile(req.config.topologyFile);
            EventQueue eq;
            stats::StatGroup stat_root("soc");
            const system::Elaborator elaborator(eq, &stat_root,
                                                req.config);
            const unsigned tasks =
                req.isMixed()
                    ? static_cast<unsigned>(req.benchmarks.size())
                    : req.numTasks;
            (void)elaborator.elaborate(topo, tasks);
            book.close(s);
        }
        {
            const std::size_t s = book.open(
                "mem.construct", i, static_cast<std::int64_t>(root));
            { TaggedMemory mem(req.config.memBytes); }
            book.close(s);
        }

        // Statistics collection is a host-side switch: it adds the
        // stats dump to this run without changing simulated state.
        harness::RunRequest traced = req;
        traced.config.collectStats = true;
        obs::ObsOptions obs_opts;
        obs_opts.latencyFile = latency_file;
        obs_opts.runLabel = points[i].key;
        prof::RunProfile profile;
        system::RunResult result;
        const std::size_t exec = book.open(
            "harness.execute", i, static_cast<std::int64_t>(root));
        {
            prof::ProfileSession session(profile);
            result = traced.execute(obs_opts);
        }
        book.close(exec);
        book.close(root);
        const Usage u1 = usageNow();

        writeResult(w, result);
        w.key("cpuOnly").value(!accel);
        w.key("rootSpan").value(std::uint64_t{root});
        w.key("executeSpan").value(std::uint64_t{exec});
        w.key("sysMs").value(u1.sysMs - u0.sysMs);
        w.key("minorFaults").value(u1.minorFaults - u0.minorFaults);
        w.key("profileWallNanos").value(profile.wallNanos());
        w.key("domains").beginObject();
        for (const auto &d : profile.domainTotals()) {
            w.key(d.domain).beginObject();
            w.key("selfNanos").value(d.selfNanos);
            w.key("calls").value(d.calls);
            w.endObject();
        }
        w.endObject();

        w.key("flight").beginObject();
        if (accel) {
            const auto doc = json::parseJsonFile(latency_file);
            if (!doc)
                throw std::runtime_error("unreadable " + latency_file);
            for (const char *path :
                 {"flights.cacheHits", "flights.cacheMisses",
                  "flights.endToEnd.sum", "flights.endToEnd.samples",
                  "flights.hops.xbarWait.sum", "flights.hops.check.sum",
                  "flights.hops.mem.sum"})
                w.key(path).value(numberAt(*doc, path));
        }
        w.endObject();

        double check_stalls = 0;
        double xbar_stalls = 0;
        if (accel) {
            const auto stats = json::parseJson(result.statsJson);
            if (!stats)
                throw std::runtime_error(points[i].key +
                                         ": unreadable stats JSON");
            check_stalls = stallCycles(*stats, "checked");
            xbar_stalls = stallCycles(*stats, "grants");
        }
        w.key("checkStallCycles").value(check_stalls);
        w.key("xbarStallCycles").value(xbar_stalls);
        w.endObject();
    }
    w.endArray();
    book.write(w);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size() || text.empty() || text[0] == '-')
        throw std::invalid_argument(flag + ": not a whole number: " +
                                    text);
    return v;
}

int
usage(const std::string &why)
{
    std::cerr << "capbench: " << why
              << "\nusage: capbench --workload paper-grid|scale-tree|"
                 "cap-churn --seed N --seconds S --trace 0|1 --dir DIR "
                 "--out FILE\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, dir, out;
    std::optional<std::uint64_t> seed, seconds, trace;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                return usage(flag + " needs a value");
            const std::string val = argv[++i];
            if (flag == "--workload")
                workload = val;
            else if (flag == "--seed")
                seed = parseUnsigned(flag, val);
            else if (flag == "--seconds")
                seconds = parseUnsigned(flag, val);
            else if (flag == "--trace")
                trace = parseUnsigned(flag, val);
            else if (flag == "--dir")
                dir = val;
            else if (flag == "--out")
                out = val;
            else
                return usage("unknown flag " + flag);
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (std::find(workloadNames.begin(), workloadNames.end(), workload) ==
        workloadNames.end())
        return usage("unknown workload '" + workload + "'");
    if (!seed || !seconds || *seconds == 0 || !trace || *trace > 1 ||
        dir.empty() || out.empty())
        return usage("missing or invalid arguments");

    try {
        std::filesystem::create_directories(dir);

        // The set-up whose points the run uses, timed from process start.
        const std::vector<Point> points = setUp(workload, *seed, dir);
        std::vector<double> setup_seconds = {
            secondsBetween(processStart, Clock::now())};
        std::exception_ptr setup_error;
        for (unsigned t = 0; t < setupThreads && !setup_error; ++t) {
            std::thread([&] {
                try {
                    // Untimed first pass: the thread's fresh malloc arena
                    // faults its pages in here.
                    (void)setUp(workload, *seed, dir);
                    const auto start = Clock::now();
                    do {
                        const auto t0 = Clock::now();
                        (void)setUp(workload, *seed, dir);
                        setup_seconds.push_back(
                            secondsBetween(t0, Clock::now()));
                    } while (secondsBetween(start, Clock::now()) <
                             setupSecondsPerThread);
                } catch (...) {
                    setup_error = std::current_exception();
                }
            }).join();
        }
        if (setup_error)
            std::rethrow_exception(setup_error);

        std::ostringstream doc;
        json::JsonWriter w(doc);
        w.beginObject();
        w.key("workload").value(workload);
        w.key("seed").value(*seed);
        w.key("defaultSeed").value(*seed == defaultSeed);
        w.key("traced").value(*trace == 1);
        w.key("jobs").value(*trace == 1 ? 1u : untracedJobs);
        w.key("setupSeconds").beginArray();
        for (const double s : setup_seconds)
            w.value(s);
        w.endArray();
        w.key("points").beginArray();
        for (const Point &p : points) {
            w.beginObject();
            w.key("key").value(p.key);
            w.key("twin").value(p.twin);
            w.key("capCacheEntries").value(p.request.config.capCacheEntries);
            w.endObject();
        }
        w.endArray();

        if (*trace == 1)
            runTraced(w, points, workload, static_cast<double>(*seconds),
                      dir);
        else
            runUntraced(w, points, workload,
                        static_cast<double>(*seconds));

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        w.key("peakRssKb").value(static_cast<std::uint64_t>(ru.ru_maxrss));
        w.endObject();

        std::ofstream os(out);
        os << doc.str() << "\n";
        if (!os) {
            std::cerr << "capbench: cannot write " << out << "\n";
            return 1;
        }
    } catch (const std::exception &e) {
        std::cerr << "capbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
