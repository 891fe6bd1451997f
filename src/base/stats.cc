#include "base/stats.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "base/json.hh"
#include "base/logging.hh"

namespace capcheck::stats
{

StatBase::StatBase(StatGroup &group, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    group.addStat(this);
}

void
Scalar::dumpJson(json::JsonWriter &w) const
{
    w.value(_value);
}

Distribution::Distribution(StatGroup &group, std::string name,
                           std::string desc, double min, double max,
                           std::size_t num_buckets)
    : StatBase(group, std::move(name), std::move(desc)),
      lo(min), hi(max),
      bucketWidth((max - min) / static_cast<double>(num_buckets)),
      buckets(num_buckets, 0)
{
    if (num_buckets == 0 || max <= min)
        panic("Distribution %s: bad bucket configuration", this->name());
    reset();
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (_samples == 0) {
        _minSeen = v;
        _maxSeen = v;
    } else {
        _minSeen = std::min(_minSeen, v);
        _maxSeen = std::max(_maxSeen, v);
    }
    _samples += count;
    sum += v * static_cast<double>(count);

    if (v < lo) {
        underflow += count;
    } else if (v >= hi) {
        overflow += count;
    } else {
        auto idx = static_cast<std::size_t>((v - lo) / bucketWidth);
        idx = std::min(idx, buckets.size() - 1);
        buckets[idx] += count;
    }
}

double
Distribution::mean() const
{
    return _samples ? sum / static_cast<double>(_samples) : 0;
}

void
Distribution::dumpJson(json::JsonWriter &w) const
{
    w.beginObject();
    w.key("samples").value(_samples);
    w.key("mean").value(mean());
    w.key("min").value(_minSeen);
    w.key("max").value(_maxSeen);
    // Bucket geometry, so the document round-trips losslessly: bucket
    // i covers [lo + i*width, lo + (i+1)*width), with out-of-range
    // samples in the underflow/overflow counts.
    w.key("lo").value(lo);
    w.key("hi").value(hi);
    w.key("underflow").value(underflow);
    w.key("overflow").value(overflow);
    w.key("buckets").beginArray();
    for (const std::uint64_t b : buckets)
        w.value(b);
    w.endArray();
    w.endObject();
}

void
Distribution::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    underflow = 0;
    overflow = 0;
    _samples = 0;
    sum = 0;
    _minSeen = 0;
    _maxSeen = 0;
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (_samples == 0) {
        _minSeen = v;
        _maxSeen = v;
    } else {
        _minSeen = std::min(_minSeen, v);
        _maxSeen = std::max(_maxSeen, v);
    }
    _samples += count;
    _sum += v * count;

    const std::size_t bucket = static_cast<std::size_t>(
        std::bit_width(v));
    if (bucket >= buckets.size())
        buckets.resize(bucket + 1, 0);
    buckets[bucket] += count;
}

double
Histogram::mean() const
{
    return _samples ? static_cast<double>(_sum) /
                          static_cast<double>(_samples)
                    : 0;
}

std::uint64_t
Histogram::bucketLow(std::size_t b)
{
    return b <= 1 ? (b == 0 ? 0 : 1) : std::uint64_t{1} << (b - 1);
}

std::uint64_t
Histogram::bucketHigh(std::size_t b)
{
    return b == 0 ? 1 : std::uint64_t{1} << b;
}

double
Histogram::quantile(double p) const
{
    if (_samples == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    // The p-quantile is the value of the ceil(p * N)-th sample (1-based)
    // in sorted order; interpolate linearly inside its bucket.
    const double target = p * static_cast<double>(_samples);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        const auto before = static_cast<double>(seen);
        seen += buckets[b];
        if (static_cast<double>(seen) < target)
            continue;
        // Clip the bucket's nominal range to the observed min/max so
        // single-bucket tails do not overshoot maxSeen.
        const double lo = std::max<double>(
            static_cast<double>(bucketLow(b)),
            static_cast<double>(_minSeen));
        const double hi = std::min<double>(
            static_cast<double>(bucketHigh(b)),
            static_cast<double>(_maxSeen) + 1);
        const double frac =
            (target - before) / static_cast<double>(buckets[b]);
        return lo + (hi - lo) * frac;
    }
    return static_cast<double>(_maxSeen);
}

void
Histogram::dumpJson(json::JsonWriter &w) const
{
    w.beginObject();
    w.key("samples").value(_samples);
    w.key("sum").value(_sum);
    w.key("mean").value(mean());
    w.key("min").value(_minSeen);
    w.key("max").value(_maxSeen);
    w.key("p50").value(p50());
    w.key("p95").value(p95());
    w.key("p99").value(p99());
    w.key("buckets").beginArray();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        w.beginObject();
        w.key("lo").value(bucketLow(b));
        w.key("hi").value(bucketHigh(b));
        w.key("count").value(buckets[b]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
Histogram::reset()
{
    buckets.clear();
    _samples = 0;
    _sum = 0;
    _minSeen = 0;
    _maxSeen = 0;
}

Formula::Formula(StatGroup &group, std::string name, std::string desc,
                 std::function<double()> fn)
    : StatBase(group, std::move(name), std::move(desc)), fn(std::move(fn))
{
}

void
Formula::dumpJson(json::JsonWriter &w) const
{
    w.value(value());
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), parent(parent)
{
    if (parent)
        parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent)
        parent->removeChild(this);
}

std::string
StatGroup::path() const
{
    if (!parent || parent->path().empty())
        return _name;
    return parent->path() + "." + _name;
}

void
StatGroup::addStat(StatBase *stat)
{
    statList.push_back(stat);
}

void
StatGroup::addChild(StatGroup *child)
{
    children.push_back(child);
}

void
StatGroup::removeChild(StatGroup *child)
{
    std::erase(children, child);
}

const StatGroup *
StatGroup::findChild(const std::string &name) const
{
    for (const auto *child : children) {
        if (child->name() == name)
            return child;
    }
    return nullptr;
}

const StatBase *
StatGroup::find(const std::string &path) const
{
    const auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto *stat : statList) {
            if (stat->name() == path)
                return stat;
        }
        return nullptr;
    }

    const std::string head = path.substr(0, dot);
    const std::string rest = path.substr(dot + 1);
    if (const StatGroup *child = findChild(head))
        return child->find(rest);
    // Tolerate a fully qualified path starting at this group itself,
    // so root->find("soc.capchecker.cacheHits") works on root "soc".
    if (head == _name)
        return find(rest);
    return nullptr;
}

void
StatGroup::dumpJson(json::JsonWriter &w) const
{
    w.beginObject();
    for (const auto *stat : statList) {
        w.key(stat->name());
        stat->dumpJson(w);
    }
    for (const auto *child : children) {
        w.key(child->name());
        child->dumpJson(w);
    }
    w.endObject();
}

void
StatGroup::resetAll()
{
    for (auto *stat : statList)
        stat->reset();
    for (auto *child : children)
        child->resetAll();
}

} // namespace capcheck::stats
