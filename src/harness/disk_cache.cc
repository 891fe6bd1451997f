#include "harness/disk_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/json.hh"
#include "base/json_value.hh"
#include "obs/prof.hh"
#include "base/logging.hh"
#include "harness/result_json.hh"

namespace fs = std::filesystem;

namespace capcheck::harness
{

namespace
{

std::string
hashHex(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace

DiskResultCache::DiskResultCache(std::string cache_dir)
    : dir(std::move(cache_dir))
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn("disk cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
    }
}

std::string
DiskResultCache::pathFor(std::uint64_t hash) const
{
    return dir + "/" + hashHex(hash) + ".json";
}

std::optional<system::RunResult>
DiskResultCache::lookup(std::uint64_t hash)
{
    PROF_SCOPE("harness", "cache.disk.lookup");
    ++lookupCount;

    const std::string path = pathFor(hash);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::stringstream text;
    text << is.rdbuf();
    std::optional<system::RunResult> result;
    const auto doc = json::parseJson(text.str(), nullptr);
    if (doc) {
        const json::JsonValue *version = doc->get("version");
        const json::JsonValue *stored = doc->get("hash");
        const json::JsonValue *entry = doc->get("result");
        if (version && version->isNumber() &&
            static_cast<unsigned>(version->asNumber()) ==
                formatVersion &&
            stored && stored->isString() &&
            stored->asString() == hashHex(hash) && entry) {
            result = resultFromWireJson(*entry, nullptr);
        }
    }

    if (!result) {
        // A stale version, a foreign document, or a torn write from a
        // pre-atomic-rename tool: remove it so the caller re-simulates
        // and overwrites it.
        std::error_code ec;
        fs::remove(path, ec);
        return std::nullopt;
    }
    ++hitCount;
    return result;
}

bool
DiskResultCache::store(std::uint64_t hash,
                       const system::RunResult &result)
{
    PROF_SCOPE("harness", "cache.disk.store");
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("version").value(formatVersion);
    w.key("hash").value(hashHex(hash));
    w.key("result");
    writeResultWireJson(w, result);
    w.endObject();
    os << '\n';
    const std::string body = os.str();

    // Unique per process and per call, so writers never share a
    // temporary even when they store the same hash.
    static std::atomic<std::uint64_t> tmpSerial{0};
    const std::string path = pathFor(hash);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(tmpSerial++);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("disk cache: cannot write '%s'", tmp.c_str());
            return false;
        }
        out << body;
        if (!out.flush()) {
            warn("disk cache: short write to '%s'", tmp.c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("disk cache: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

DiskResultCache::Claim::Claim(Claim &&other) noexcept
    : fd(std::exchange(other.fd, -1)), path(std::move(other.path))
{
}

void
DiskResultCache::Claim::release(bool published)
{
    if (fd < 0)
        return;
    // Unlink before closing: whoever opened the old file and wakes up
    // on it finds the path gone (or naming a newer file) and retries.
    if (published)
        ::unlink(path.c_str());
    ::close(fd);
    fd = -1;
}

DiskResultCache::Claim
DiskResultCache::claim(std::uint64_t hash, bool wait)
{
    Claim c;
    c.path = dir + "/" + hashHex(hash) + ".lock";
    while (true) {
        const int fd =
            ::open(c.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0) {
            warn("disk cache: cannot open '%s': %s", c.path.c_str(),
                 std::strerror(errno));
            return c;
        }
        int rc;
        do {
            rc = ::flock(fd, wait ? LOCK_EX : LOCK_EX | LOCK_NB);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            if (errno != EWOULDBLOCK) {
                warn("disk cache: cannot lock '%s': %s", c.path.c_str(),
                     std::strerror(errno));
            }
            ::close(fd);
            return c;
        }
        // The previous holder may have published and unlinked the
        // file after our open(); a lock on that orphan guards nothing.
        struct stat locked, current;
        if (::fstat(fd, &locked) == 0 &&
            ::stat(c.path.c_str(), &current) == 0 &&
            locked.st_dev == current.st_dev &&
            locked.st_ino == current.st_ino) {
            c.fd = fd;
            return c;
        }
        ::close(fd);
    }
}

CacheStats
DiskResultCache::stats() const
{
    CacheStats s;
    s.hits = hitCount;
    s.lookups = lookupCount;
    return s;
}

} // namespace capcheck::harness
