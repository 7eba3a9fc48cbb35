#include "sim/stats.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::sim {

namespace {

/**
 * Fixed seed for every reservoir: sub-sampling must be reproducible
 * run to run, and independent of how many distributions a simulation
 * happens to construct.
 */
constexpr std::uint64_t kReservoirSeed = 0x5eed0fD157ULL;

} // namespace

Distribution::Distribution(std::string name, std::size_t max_exact_samples)
    : name_(std::move(name)), maxExact_(max_exact_samples),
      reservoirRng_(kReservoirSeed)
{
    if (maxExact_ == 0)
        fatal("Distribution " + name_ +
              ": max_exact_samples must be positive");
}

void
Distribution::record(double sample)
{
    if (count_ < maxExact_) {
        samples_.push_back(sample);
        selectionValid_ = false;
    } else {
        // Algorithm R: the n-th sample replaces a uniformly random
        // reservoir slot with probability maxExact_/n, keeping the
        // buffer a uniform sample of everything recorded so far.
        std::uint64_t j = reservoirRng_.uniformInt(count_ + 1);
        if (j < maxExact_) {
            samples_[static_cast<std::size_t>(j)] = sample;
            selectionValid_ = false;
        }
    }
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
}

void
Distribution::merge(const Distribution &other)
{
    if (maxExact_ != other.maxExact_)
        fatal("Distribution " + name_ + ": merging reservoir capacity " +
              std::to_string(maxExact_) + " with incompatible capacity " +
              std::to_string(other.maxExact_));
    if (other.count_ == 0)
        return;

    if (count_ + other.count_ <= maxExact_) {
        // Both sides still hold every sample verbatim: concatenation
        // is exact and stays exact.
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    } else {
        // At least one side overflows the exact threshold: build a
        // proportional uniform subsample of the two buffers. Each
        // buffer is itself a uniform sample of its stream, so drawing
        // round(k * n_i / n) elements without replacement from buffer
        // i keeps every original sample's inclusion probability at
        // ~k/n — a valid (stratified) uniform reservoir of the merged
        // stream. Tail fidelity beyond rank resolution 1/k is lost;
        // min/max/mean/count below stay exact regardless.
        double total = static_cast<double>(count_ + other.count_);
        std::size_t want_mine = static_cast<std::size_t>(
            static_cast<double>(maxExact_) *
                (static_cast<double>(count_) / total) +
            0.5);
        want_mine = std::min(want_mine, samples_.size());
        std::size_t want_theirs =
            std::min(maxExact_ - want_mine, other.samples_.size());

        auto subsample = [this](std::vector<double> buf, std::size_t k) {
            // Partial Fisher-Yates: the first k slots become a uniform
            // k-subset, in deterministic reservoir-Rng order.
            for (std::size_t i = 0; i < k; ++i) {
                std::size_t j = i + static_cast<std::size_t>(
                    reservoirRng_.uniformInt(buf.size() - i));
                std::swap(buf[i], buf[j]);
            }
            buf.resize(k);
            return buf;
        };
        std::vector<double> merged = subsample(samples_, want_mine);
        std::vector<double> theirs =
            subsample(other.samples_, want_theirs);
        merged.insert(merged.end(), theirs.begin(), theirs.end());
        samples_ = std::move(merged);
    }
    selectionValid_ = false;

    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Distribution::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
Distribution::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
Distribution::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
Distribution::quantile(double q) const
{
    if (q < 0.0 || q > 1.0)
        fatal("Distribution " + name_ + ": quantile " + std::to_string(q) +
              " outside [0, 1]");
    if (count_ == 0)
        return 0.0;
    if (q <= 0.0)
        return min();
    if (q >= 1.0)
        return max();
    if (!selectionValid_) {
        selection_ = samples_;
        selectionValid_ = true;
    }
    // Selection, not a sort: the element of rank lo, then the least
    // element above it, which is the sorted order's lo + 1. Both are
    // the values a full sort puts there, so the interpolation is
    // bit-identical, at O(n) per call; no caller reads more than three
    // quantiles of one distribution.
    double rank = q * static_cast<double>(selection_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    auto nth = selection_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(selection_.begin(), nth, selection_.end());
    double at_lo = *nth;
    double value = lo + 1 >= selection_.size()
        ? at_lo
        : at_lo + frac * (*std::min_element(nth + 1, selection_.end()) -
                          at_lo);
    // In reservoir mode the sample can miss the true extremes; the
    // exact running bounds are always authoritative.
    return std::clamp(value, min(), max());
}

void
Distribution::clear()
{
    samples_.clear();
    selection_.clear();
    selectionValid_ = false;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    reservoirRng_ = Rng(kReservoirSeed);
}

void
StatSet::inc(const std::string &name, double delta)
{
    values_[name] += delta;
}

void
StatSet::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
StatSet::max(const std::string &name, double value)
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second < value)
        values_[name] = value;
}

double
StatSet::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::vector<std::string>
StatSet::names() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &kv : values_) {
        if (!owner_.empty())
            os << owner_ << ".";
        os << kv.first << " " << kv.second << "\n";
    }
}

} // namespace sn40l::sim
