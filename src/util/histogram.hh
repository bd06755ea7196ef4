/**
 * @file
 * Simple bucketed histogram with summary statistics; backs the
 * feature-statistics figures (victim age, preuse-vs-reuse deltas,
 * victim recency, hits at eviction).
 */

#ifndef RLR_UTIL_HISTOGRAM_HH
#define RLR_UTIL_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rlr::util
{

/**
 * Fixed-width-bucket histogram over [0, bucket_width * nbuckets);
 * samples past the end accumulate in an overflow bucket.
 */
class Histogram
{
  public:
    /** @param nbuckets number of regular buckets
     *  @param bucket_width width of each bucket */
    explicit Histogram(size_t nbuckets = 64, uint64_t bucket_width = 1);

    /** Record one sample. */
    void sample(uint64_t value, uint64_t count = 1);

    /** Merge another histogram; `fatal` on shape mismatch. */
    void merge(const Histogram &other);

    /** Remove all samples. */
    void reset();

    uint64_t count() const { return count_; }
    double mean() const;
    /** Smallest value v such that >= q of the mass is <= v. */
    uint64_t quantile(double q) const;
    uint64_t bucketCount(size_t i) const { return buckets_[i]; }
    uint64_t overflowCount() const { return overflow_; }
    size_t numBuckets() const { return buckets_.size(); }
    uint64_t bucketWidth() const { return width_; }

    /** Render as an ASCII bar chart (for bench output). */
    std::string render(size_t max_width = 50) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t width_;
    uint64_t overflow_;
    uint64_t count_;
    uint64_t sum_;
};

} // namespace rlr::util

#endif // RLR_UTIL_HISTOGRAM_HH
