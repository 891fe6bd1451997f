/**
 * @file
 * A small gem5-flavoured statistics package. Components own a StatGroup;
 * scalar counters, averages, distributions and derived formulas register
 * themselves with the group and can be dumped as JSON.
 */

#ifndef CAPCHECK_BASE_STATS_HH
#define CAPCHECK_BASE_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace capcheck::json
{
class JsonWriter;
}

namespace capcheck::stats
{

class StatGroup;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup &group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Write the statistic's value(s) as JSON in value position. */
    virtual void dumpJson(json::JsonWriter &w) const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** Monotonic (well, arbitrary) scalar counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { _value += 1; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void dumpJson(json::JsonWriter &w) const override;
    void reset() override { _value = 0; }

  private:
    double _value = 0;
};

/** Fixed-bucket distribution over [min, max]. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup &group, std::string name, std::string desc,
                 double min, double max, std::size_t num_buckets);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t samples() const { return _samples; }
    double mean() const;
    double minSeen() const { return _minSeen; }
    double maxSeen() const { return _maxSeen; }

    void dumpJson(json::JsonWriter &w) const override;
    void reset() override;

  private:
    double lo;
    double hi;
    double bucketWidth;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t _samples = 0;
    double sum = 0;
    double _minSeen = 0;
    double _maxSeen = 0;
};

/**
 * Log2-bucketed histogram over non-negative integer samples (cycle
 * counts). Bucket b holds values whose bit width is b, i.e. bucket 0
 * holds {0}, bucket 1 holds {1}, bucket b >= 2 holds [2^(b-1), 2^b).
 * Buckets grow on demand, so the histogram covers the full uint64
 * range without preconfiguration — the right shape for latencies whose
 * tail matters more than their mean. Quantiles are estimated by linear
 * interpolation within the containing bucket, which makes p50/p95/p99
 * deterministic functions of the sample multiset.
 */
class Histogram : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t samples() const { return _samples; }
    double mean() const;
    std::uint64_t minSeen() const { return _minSeen; }
    std::uint64_t maxSeen() const { return _maxSeen; }
    std::uint64_t sum() const { return _sum; }

    /**
     * Estimated value below which fraction @p p of samples fall
     * (0 < p <= 1). Exact for the bucket; linear within it.
     */
    double quantile(double p) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const std::vector<std::uint64_t> &bucketCounts() const
    {
        return buckets;
    }

    /** @{ Inclusive-low / exclusive-high bounds of bucket @p b. */
    static std::uint64_t bucketLow(std::size_t b);
    static std::uint64_t bucketHigh(std::size_t b);
    /** @} */

    void dumpJson(json::JsonWriter &w) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _minSeen = 0;
    std::uint64_t _maxSeen = 0;
};

/** Value computed on demand from other state (e.g. a ratio of scalars). */
class Formula : public StatBase
{
  public:
    Formula(StatGroup &group, std::string name, std::string desc,
            std::function<double()> fn);

    double value() const { return fn ? fn() : 0; }

    void dumpJson(json::JsonWriter &w) const override;
    void reset() override {}

  private:
    std::function<double()> fn;
};

/**
 * A named collection of statistics. Groups nest; dumpJson() walks the
 * tree.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Fully qualified dotted path from the root group. */
    std::string path() const;

    void addStat(StatBase *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    /**
     * Find a statistic by leaf name or dotted path. A path descends
     * child groups ("capchecker.cacheHits"); for convenience a leading
     * segment equal to this group's own name is skipped, so the fully
     * qualified "soc.capchecker.cacheHits" resolves from the "soc"
     * root too. Returns nullptr if any segment is absent.
     */
    const StatBase *find(const std::string &path) const;

    /** Direct child group named @p name; nullptr if absent. */
    const StatGroup *findChild(const std::string &name) const;

    /**
     * Write the group as a JSON object in value position: one member
     * per stat ({"value": ..., "desc": ...} leaves) plus one nested
     * object per child group.
     */
    void dumpJson(json::JsonWriter &w) const;

    /** Recursively reset all stats. */
    void resetAll();

  private:
    std::string _name;
    StatGroup *parent;
    std::vector<StatBase *> statList;
    std::vector<StatGroup *> children;
};

} // namespace capcheck::stats

#endif // CAPCHECK_BASE_STATS_HH
