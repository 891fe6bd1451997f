#include "harness/result_json.hh"

#include <sstream>

namespace capcheck::harness
{

void
writeConfigJson(json::JsonWriter &w, const system::SocConfig &cfg)
{
    w.beginObject();
    w.key("mode").value(system::systemModeName(cfg.mode));
    w.key("provenance").value(
        capchecker::provenanceName(cfg.provenance));
    w.key("numInstances").value(cfg.numInstances);
    w.key("capTableEntries").value(cfg.capTableEntries);
    w.key("checkCycles").value(std::uint64_t{cfg.checkCycles});
    w.key("perAccelCheckers").value(cfg.perAccelCheckers);
    w.key("capCacheEntries").value(cfg.capCacheEntries);
    w.key("capCacheWalkCycles")
        .value(std::uint64_t{cfg.capCacheWalkCycles});
    w.key("memLatency").value(std::uint64_t{cfg.memLatency});
    w.key("memBytes").value(std::uint64_t{cfg.memBytes});
    w.key("xbarMaxBurst").value(cfg.xbarMaxBurst);
    w.key("guardBytes").value(std::uint64_t{cfg.guardBytes});
    w.key("collectStats").value(cfg.collectStats);
    w.key("seed").value(std::uint64_t{cfg.seed});
    if (!cfg.topologyFile.empty())
        w.key("topologyFile").value(cfg.topologyFile);
    w.endObject();
}

namespace
{

/**
 * Every RunResult field. The run document splices the stats object
 * in raw under "stats"; the @p wire encoding keeps it as an escaped
 * string instead, so the dump survives a round trip byte for byte
 * (re-parsing spliced JSON would re-format its numbers).
 */
void
writeResultFields(json::JsonWriter &w, const system::RunResult &r,
                  bool wire)
{
    w.key("benchmark").value(r.benchmark);
    w.key("mode").value(system::systemModeName(r.mode));
    w.key("numTasks").value(r.numTasks);
    w.key("totalCycles").value(std::uint64_t{r.totalCycles});
    w.key("driverAllocCycles")
        .value(std::uint64_t{r.driverAllocCycles});
    w.key("kernelCycles").value(std::uint64_t{r.kernelCycles});
    w.key("driverDeallocCycles")
        .value(std::uint64_t{r.driverDeallocCycles});
    w.key("initCycles").value(std::uint64_t{r.initCycles});
    w.key("functionallyCorrect").value(r.functionallyCorrect);
    w.key("exceptions").value(r.exceptions);
    w.key("dmaBeats").value(std::uint64_t{r.dmaBeats});
    w.key("peakTableEntries")
        .value(std::uint64_t{r.peakTableEntries});
    if (wire)
        w.key("statsJson").value(r.statsJson);
    else if (!r.statsJson.empty())
        w.key("stats").rawValue(r.statsJson);
}

} // namespace

void
writeRunJson(json::JsonWriter &w, const RunRequest &request,
             const system::RunResult &result)
{
    w.beginObject();
    w.key("requestHash").value(request.hashHex());
    w.key("benchmarks").beginArray();
    for (const std::string &b : request.benchmarks)
        w.value(b);
    w.endArray();
    w.key("numTasks").value(request.numTasks);
    w.key("config");
    writeConfigJson(w, request.config);
    w.key("result").beginObject();
    writeResultFields(w, result, false);
    w.endObject();
    w.endObject();
}

std::string
runJson(const RunRequest &request, const system::RunResult &result)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    writeRunJson(w, request, result);
    os << '\n';
    return os.str();
}

namespace
{

/**
 * Typed field extraction for the parse direction. Each reader records
 * the first missing/ill-typed key into *err and returns a default, so
 * callers can fail once at the end with a precise message.
 */
struct FieldReader
{
    const json::JsonValue &v;
    std::string *err;

    void
    fail(const std::string &key, const char *want) const
    {
        if (err && err->empty())
            *err = "field '" + key + "': expected " + want;
    }

    std::uint64_t
    u64(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isNumber()) {
            fail(key, "number");
            return 0;
        }
        return static_cast<std::uint64_t>(f->asNumber());
    }

    unsigned u32(const std::string &key)
    {
        return static_cast<unsigned>(u64(key));
    }

    bool
    boolean(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isBool()) {
            fail(key, "bool");
            return false;
        }
        return f->asBool();
    }

    std::string
    str(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isString()) {
            fail(key, "string");
            return {};
        }
        return f->asString();
    }
};

} // namespace

void
writeResultWireJson(json::JsonWriter &w,
                    const system::RunResult &result)
{
    w.beginObject();
    writeResultFields(w, result, true);
    w.endObject();
}

std::optional<system::RunResult>
resultFromWireJson(const json::JsonValue &v, std::string *error)
{
    std::string err;
    if (!v.isObject())
        err = "result: expected object";
    system::RunResult r;
    if (err.empty()) {
        FieldReader f{v, &err};
        r.benchmark = f.str("benchmark");
        if (!system::systemModeFromName(f.str("mode"), r.mode))
            err = "field 'mode': unknown system mode";
        r.numTasks = f.u32("numTasks");
        r.totalCycles = f.u64("totalCycles");
        r.driverAllocCycles = f.u64("driverAllocCycles");
        r.kernelCycles = f.u64("kernelCycles");
        r.driverDeallocCycles = f.u64("driverDeallocCycles");
        r.initCycles = f.u64("initCycles");
        r.functionallyCorrect = f.boolean("functionallyCorrect");
        r.exceptions = f.u32("exceptions");
        r.dmaBeats = f.u64("dmaBeats");
        r.peakTableEntries = f.u64("peakTableEntries");
        r.statsJson = f.str("statsJson");
    }
    if (!err.empty()) {
        if (error)
            *error = err;
        return std::nullopt;
    }
    return r;
}

double
SweepProfile::utilization() const
{
    if (workers == 0 || sweepWallMillis <= 0)
        return 0;
    return simWallMillis / (sweepWallMillis * workers);
}

std::string
manifestJson(const std::string &sweep_name,
             const std::vector<RunOutcome> &outcomes,
             const SweepProfile *profile)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("sweep").value(sweep_name);
    w.key("runs").value(std::uint64_t{outcomes.size()});
    w.key("entries").beginArray();
    for (const RunOutcome &o : outcomes) {
        w.beginObject();
        w.key("requestHash").value(o.request.hashHex());
        w.key("label").value(o.request.label());
        w.key("cacheHit").value(o.cacheHit);
        w.key("totalCycles")
            .value(std::uint64_t{o.result.totalCycles});
        w.key("functionallyCorrect")
            .value(o.result.functionallyCorrect);
        w.key("exceptions").value(o.result.exceptions);
        if (profile)
            w.key("wallMillis").value(o.wallMillis);
        w.endObject();
    }
    w.endArray();
    if (profile) {
        w.key("profile").beginObject();
        w.key("workers").value(profile->workers);
        w.key("executed").value(std::uint64_t{profile->executed});
        w.key("cacheHits").value(std::uint64_t{profile->cacheHits});
        w.key("simWallMillis").value(profile->simWallMillis);
        w.key("sweepWallMillis").value(profile->sweepWallMillis);
        w.key("runWall").beginObject();
        w.key("minMillis").value(profile->runWallMinMillis);
        w.key("p50Millis").value(profile->runWallP50Millis);
        w.key("maxMillis").value(profile->runWallMaxMillis);
        w.endObject();
        w.key("workerUtilization").value(profile->utilization());
        const auto writeCacheStats = [&w](const CacheStats &c) {
            w.beginObject();
            w.key("hits").value(std::uint64_t{c.hits});
            w.key("lookups").value(std::uint64_t{c.lookups});
            w.endObject();
        };
        w.key("cache").beginObject();
        w.key("memory");
        writeCacheStats(profile->memCache);
        if (profile->diskCachePresent) {
            w.key("disk");
            writeCacheStats(profile->diskCache);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace capcheck::harness
