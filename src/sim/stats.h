/**
 * @file
 * Lightweight named statistics, in the spirit of gem5's stats package.
 *
 * A StatSet is a flat registry of named doubles owned by a model
 * component. Components expose their StatSet so tests and benches can
 * assert on counters (bytes moved, conflicts, hits) without bespoke
 * accessors for every quantity.
 */

#ifndef SN40L_SIM_STATS_H
#define SN40L_SIM_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace sn40l::sim {

/**
 * A recorder for per-event samples (latencies, queue depths, batch
 * sizes) that answers order statistics after the fact.
 *
 * Storage is two-mode so million-sample runs stay memory-bounded:
 *
 *  - Exact (up to @p max_exact_samples, default 64Ki): every sample is
 *    kept verbatim and quantile() interpolates between closest ranks,
 *    exactly as a full sort would. Runs below the threshold are
 *    bit-identical to the historical all-samples behaviour.
 *
 *  - Reservoir (beyond the threshold): the sample buffer becomes a
 *    fixed-size uniform reservoir (Vitter's Algorithm R, driven by a
 *    private deterministic Rng) and quantile() answers from it, while
 *    count/sum/mean/min/max stay exact via running accumulators.
 *    Memory is O(max_exact_samples) regardless of how many samples
 *    are recorded.
 *
 * Recording is O(1); min()/max()/mean() are O(1); quantile() sorts
 * lazily and caches the sorted view until the next record().
 */
class Distribution
{
  public:
    /** Sample count beyond which storage switches to the reservoir. */
    static constexpr std::size_t kDefaultMaxExactSamples = 65536;

    explicit Distribution(std::string name = "",
                          std::size_t max_exact_samples =
                              kDefaultMaxExactSamples);

    void record(double sample);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const; ///< exact running minimum, O(1)
    double max() const; ///< exact running maximum, O(1)

    /**
     * The @p q quantile by linear interpolation between closest ranks;
     * 0.0 when no samples were recorded. In reservoir mode the result
     * is an estimate from the uniform sample (clamped to the exact
     * [min, max]). @p q outside [0, 1] is a caller bug: FatalError.
     */
    double quantile(double q) const;

    /**
     * Fold @p other into this distribution, as if every sample ever
     * recorded into @p other had been recorded here too.
     *
     * count/sum/mean/min/max are always exact after a merge. The
     * sample buffer is exact — bit-identical to single-recorder
     * quantiles — while the combined count fits max_exact_samples.
     * Beyond that the merged buffer is a proportional uniform
     * subsample of the two buffers (each element keeps inclusion
     * probability ~k/n), so quantiles carry the usual reservoir rank
     * error of O(1/sqrt(k)) — about 0.4% of rank at the default 64Ki
     * capacity; the regression test in test_stats_rng.cc locks <= 1%
     * quantile error on merged lognormals. The subsampling draws come
     * from this distribution's private reservoir Rng, so merges are
     * deterministic and order-dependent (merge in a fixed order for
     * reproducible results).
     *
     * Merging distributions with different max_exact_samples is a
     * caller bug (their reservoirs are incomparable subsamples):
     * FatalError.
     */
    void merge(const Distribution &other);

    /** @return true while every sample is still stored verbatim. */
    bool exact() const { return count_ <= maxExact_; }

    const std::string &name() const { return name_; }

    /**
     * The stored sample buffer: all samples in exact mode, the
     * uniform reservoir afterwards. Use count() — not samples().size()
     * — for the number of recorded samples.
     */
    const std::vector<double> &samples() const { return samples_; }

    void clear();

  private:
    std::string name_;
    std::size_t maxExact_;
    std::vector<double> samples_;
    mutable std::vector<double> sorted_; ///< lazy cache for quantile()
    mutable bool sortedValid_ = false;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    Rng reservoirRng_;
};

/**
 * Named counters of one component.
 *
 * Rule: a counter bumped on a per-event, per-request, per-batch or
 * per-load path is a handle — a `double &` resolved once through
 * counter() at construction and bumped through the reference. The
 * string-keyed inc()/max() cost a map lookup (and, for names past the
 * small-string buffer, a heap allocation) per call, so they stay on
 * control-plane and end-of-run paths only.
 */
class StatSet
{
  public:
    explicit StatSet(std::string owner = "") : owner_(std::move(owner)) {}

    /** Add @p delta (default 1) to the named counter, creating it at 0. */
    void inc(const std::string &name, double delta = 1.0);

    /** Set the named stat to an absolute value. */
    void set(const std::string &name, double value);

    /** Track a running maximum under @p name. */
    void max(const std::string &name, double value);

    /** @return the stat value, or 0.0 if never touched. */
    double get(const std::string &name) const;

    /** @return true if the stat has ever been touched. */
    bool has(const std::string &name) const;

    /**
     * Stable reference to the named stat (created at 0, so get() reads
     * the same as before the first bump). Hot-path components resolve
     * their counters once at construction and accumulate through the
     * reference, keeping the map lookup off the per-event path.
     * References stay valid for the StatSet's lifetime (clear()
     * empties the map, so don't mix clear() with cached references).
     */
    double &counter(const std::string &name) { return values_[name]; }

    const std::string &owner() const { return owner_; }

    /** Stable (sorted) list of stat names. */
    std::vector<std::string> names() const;

    /** Print "owner.name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    void clear() { values_.clear(); }

  private:
    std::string owner_;
    std::map<std::string, double> values_;
};

} // namespace sn40l::sim

#endif // SN40L_SIM_STATS_H
