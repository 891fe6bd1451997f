#include "harness/sweep_options.hh"

#include <cstdlib>

#include "harness/run_request.hh"

namespace capcheck::harness
{

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions opts;
    if (const char *dir = std::getenv("CAPCHECK_CACHE_DIR"))
        opts.cacheDir = dir;
    return opts;
}

obs::ObsOptions
obsOptionsFor(const SweepOptions &opts, const RunRequest &request)
{
    obs::ObsOptions oo;
    const std::string hex = request.hashHex();
    if (!opts.traceDir.empty())
        oo.traceFile = opts.traceDir + "/run-" + hex + ".trace.json";
    if (opts.sampleInterval > 0) {
        const std::string &dir =
            !opts.traceDir.empty() ? opts.traceDir : opts.jsonDir;
        if (!dir.empty()) {
            oo.samplesFile = dir + "/run-" + hex + ".samples.json";
            oo.sampleInterval = opts.sampleInterval;
        }
    }
    if (!opts.auditDir.empty())
        oo.auditFile = opts.auditDir + "/run-" + hex + ".audit.jsonl";
    if (!opts.flightDir.empty())
        oo.flightFile = opts.flightDir + "/run-" + hex + ".flights.json";
    if (!opts.latencyDir.empty())
        oo.latencyFile =
            opts.latencyDir + "/run-" + hex + ".latency.json";
    if (!opts.profDir.empty())
        oo.profileFile = opts.profDir + "/run-" + hex + ".prof.json";
    if (!opts.foldedDir.empty())
        oo.foldedFile = opts.foldedDir + "/run-" + hex + ".folded";
    if (oo.flightRecording() || oo.profiling()) {
        oo.topN = opts.topN;
        oo.runLabel = request.label();
    }
    return oo;
}

} // namespace capcheck::harness
