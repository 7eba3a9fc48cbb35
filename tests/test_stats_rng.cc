/** @file Unit tests for the stats registry and deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

using namespace sn40l;

namespace {

/** Deterministic standard normal via Box-Muller on sim::Rng. */
class NormalDraws
{
  public:
    explicit NormalDraws(std::uint64_t seed) : rng_(seed) {}

    double
    next()
    {
        if (have_) {
            have_ = false;
            return spare_;
        }
        double u1 = 0.0;
        while (u1 == 0.0)
            u1 = rng_.uniformDouble();
        double u2 = rng_.uniformDouble();
        double r = std::sqrt(-2.0 * std::log(u1));
        spare_ = r * std::sin(2.0 * M_PI * u2);
        have_ = true;
        return r * std::cos(2.0 * M_PI * u2);
    }

  private:
    sim::Rng rng_;
    double spare_ = 0.0;
    bool have_ = false;
};

} // namespace

TEST(StatSet, CountersAccumulate)
{
    sim::StatSet stats("unit");
    EXPECT_FALSE(stats.has("bytes"));
    EXPECT_DOUBLE_EQ(stats.get("bytes"), 0.0);
    stats.inc("bytes", 100);
    stats.inc("bytes", 28);
    EXPECT_DOUBLE_EQ(stats.get("bytes"), 128.0);
    EXPECT_TRUE(stats.has("bytes"));
}

TEST(StatSet, SetAndMax)
{
    sim::StatSet stats;
    stats.set("x", 5);
    stats.set("x", 3);
    EXPECT_DOUBLE_EQ(stats.get("x"), 3.0);
    stats.max("peak", 10);
    stats.max("peak", 4);
    stats.max("peak", 12);
    EXPECT_DOUBLE_EQ(stats.get("peak"), 12.0);
}

TEST(StatSet, DumpIsSortedAndPrefixed)
{
    sim::StatSet stats("hbm");
    stats.inc("zeta", 1);
    stats.inc("alpha", 2);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_EQ(os.str(), "hbm.alpha 2\nhbm.zeta 1\n");
}

TEST(Distribution, RunningMinMaxAreExact)
{
    sim::Distribution d("lat");
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    d.record(5.0);
    d.record(-3.0);
    d.record(7.5);
    d.record(1.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), 7.5);
    d.clear();
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    d.record(2.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 2.0);
}

TEST(Distribution, QuantileOutsideUnitIntervalIsFatal)
{
    sim::Distribution d("lat");
    d.record(1.0);
    d.record(2.0);
    EXPECT_THROW(d.quantile(-0.01), sim::FatalError);
    EXPECT_THROW(d.quantile(1.01), sim::FatalError);
    EXPECT_THROW(d.quantile(2.0), sim::FatalError);
    // The boundaries themselves stay legal.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 2.0);
}

TEST(Distribution, ExactModeMatchesUnboundedBelowThreshold)
{
    // Below the threshold the bounded distribution must be bit-
    // identical to one that never switches to the reservoir.
    sim::Distribution bounded("b", 1024);
    sim::Distribution unbounded(
        "u", std::numeric_limits<std::size_t>::max());
    sim::Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformDouble() * 42.0;
        bounded.record(v);
        unbounded.record(v);
    }
    EXPECT_TRUE(bounded.exact());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(bounded.quantile(q), unbounded.quantile(q));
    EXPECT_DOUBLE_EQ(bounded.mean(), unbounded.mean());
    EXPECT_DOUBLE_EQ(bounded.min(), unbounded.min());
    EXPECT_DOUBLE_EQ(bounded.max(), unbounded.max());
}

TEST(Distribution, ReservoirQuantilesTrackLognormalWithinOnePercent)
{
    // Latency-like heavy-tailed distribution: lognormal(mu=-1.5,
    // sigma=0.6). 400k samples through the default 64Ki reservoir vs
    // the exact path; quantile estimates must stay within 1% relative
    // error (the draw is deterministic, so this is a regression bound
    // on sampling quality, not a flaky statistical assertion).
    const int n = 400'000;
    sim::Distribution bounded("b");
    sim::Distribution exact("e",
                            std::numeric_limits<std::size_t>::max());
    NormalDraws normal(2024);
    for (int i = 0; i < n; ++i) {
        double v = std::exp(-1.5 + 0.6 * normal.next());
        bounded.record(v);
        exact.record(v);
    }
    EXPECT_FALSE(bounded.exact());
    EXPECT_EQ(bounded.count(), static_cast<std::uint64_t>(n));
    EXPECT_LE(bounded.samples().size(),
              sim::Distribution::kDefaultMaxExactSamples);
    // Mean/min/max/count stay exact regardless of mode.
    EXPECT_DOUBLE_EQ(bounded.mean(), exact.mean());
    EXPECT_DOUBLE_EQ(bounded.min(), exact.min());
    EXPECT_DOUBLE_EQ(bounded.max(), exact.max());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        double est = bounded.quantile(q);
        double ref = exact.quantile(q);
        EXPECT_NEAR(est, ref, 0.01 * ref)
            << "q=" << q << " est=" << est << " ref=" << ref;
    }
}

TEST(Distribution, ReservoirQuantilesTrackBimodalWithinOnePercent)
{
    // Bimodal mix (cache hit vs miss latencies): 80% around 10ms, 20%
    // around 250ms.
    const int n = 300'000;
    sim::Distribution bounded("b", 32768);
    sim::Distribution exact("e",
                            std::numeric_limits<std::size_t>::max());
    NormalDraws normal(77);
    sim::Rng pick(42);
    for (int i = 0; i < n; ++i) {
        double v = pick.uniformDouble() < 0.8
            ? 0.010 + 0.001 * normal.next()
            : 0.250 + 0.020 * normal.next();
        bounded.record(v);
        exact.record(v);
    }
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        double est = bounded.quantile(q);
        double ref = exact.quantile(q);
        EXPECT_NEAR(est, ref, 0.01 * std::abs(ref))
            << "q=" << q << " est=" << est << " ref=" << ref;
    }
}

TEST(Distribution, ReservoirIsDeterministic)
{
    sim::Distribution a("a", 256), b("b", 256);
    sim::Rng ra(5), rb(5);
    for (int i = 0; i < 10'000; ++i) {
        a.record(ra.uniformDouble());
        b.record(rb.uniformDouble());
    }
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

TEST(DistributionMerge, CountAlwaysEqualsSumOfParts)
{
    sim::Distribution merged("m", 512);
    sim::Rng rng(3);
    std::uint64_t total = 0;
    for (int part = 0; part < 5; ++part) {
        sim::Distribution d("p", 512);
        int n = 100 + part * 400; // crosses the 512 threshold mid-way
        for (int i = 0; i < n; ++i)
            d.record(rng.uniformDouble());
        total += static_cast<std::uint64_t>(n);
        merged.merge(d);
        EXPECT_EQ(merged.count(), total);
    }
    EXPECT_LE(merged.samples().size(), 512u);
}

TEST(DistributionMerge, ExactWhileCombinedFitsThreshold)
{
    // Two exact-mode parts whose union still fits: the merge must be
    // bit-identical to recording everything into one distribution.
    sim::Distribution a("a", 4096), b("b", 4096), one("o", 4096);
    sim::Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformDouble() * 7.0;
        a.record(v);
        one.record(v);
    }
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformDouble() * 7.0;
        b.record(v);
        one.record(v);
    }
    a.merge(b);
    EXPECT_TRUE(a.exact());
    EXPECT_EQ(a.count(), one.count());
    EXPECT_DOUBLE_EQ(a.sum(), one.sum());
    EXPECT_DOUBLE_EQ(a.min(), one.min());
    EXPECT_DOUBLE_EQ(a.max(), one.max());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), one.quantile(q));
}

TEST(DistributionMerge, MergedReservoirLognormalWithinOnePercent)
{
    // The documented accuracy bound on the lossy path: merge two
    // reservoir-mode (> 64Ki samples each) lognormal streams and
    // require <= 1% relative quantile error against the exact pooled
    // distribution. Deterministic draws make this a regression bound,
    // not a flaky statistical assertion.
    const int n = 100'000;
    sim::Distribution a("a"), b("b");
    sim::Distribution exact("e",
                            std::numeric_limits<std::size_t>::max());
    NormalDraws na(11), nb(12);
    for (int i = 0; i < n; ++i) {
        double va = std::exp(-1.5 + 0.6 * na.next());
        double vb = std::exp(-0.8 + 0.4 * nb.next());
        a.record(va);
        b.record(vb);
        exact.record(va);
        exact.record(vb);
    }
    EXPECT_FALSE(a.exact());
    EXPECT_FALSE(b.exact());
    a.merge(b);
    EXPECT_EQ(a.count(), static_cast<std::uint64_t>(2 * n));
    // Sums associate differently ((sumA)+(sumB) vs interleaved), so
    // the mean agrees to rounding, not bit-exactly.
    EXPECT_NEAR(a.mean(), exact.mean(), 1e-12 * exact.mean());
    EXPECT_DOUBLE_EQ(a.min(), exact.min());
    EXPECT_DOUBLE_EQ(a.max(), exact.max());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        double est = a.quantile(q);
        double ref = exact.quantile(q);
        EXPECT_NEAR(est, ref, 0.01 * ref)
            << "q=" << q << " est=" << est << " ref=" << ref;
    }
}

TEST(DistributionMerge, MixedModeMergeKeepsExactMoments)
{
    // Small exact part into a reservoir-mode part: moments stay exact
    // and the buffer stays bounded.
    sim::Distribution big("big", 1024), small("small", 1024);
    sim::Rng rng(23);
    for (int i = 0; i < 50'000; ++i)
        big.record(rng.uniformDouble());
    small.record(123.0); // far outside big's range
    small.record(-7.0);
    double want_sum = big.sum() + small.sum();
    big.merge(small);
    EXPECT_EQ(big.count(), 50'002u);
    EXPECT_DOUBLE_EQ(big.sum(), want_sum);
    EXPECT_DOUBLE_EQ(big.max(), 123.0);
    EXPECT_DOUBLE_EQ(big.min(), -7.0);
    EXPECT_LE(big.samples().size(), 1024u);
    // The exact extremes clamp quantiles even if the merged reservoir
    // dropped the outliers.
    EXPECT_DOUBLE_EQ(big.quantile(1.0), 123.0);
}

TEST(DistributionMerge, IncompatibleReservoirCapacitiesAreFatal)
{
    sim::Distribution a("a", 1024), b("b", 2048);
    a.record(1.0);
    b.record(2.0);
    EXPECT_THROW(a.merge(b), sim::FatalError);
    // Empty right-hand side with mismatched capacity is still a
    // caller bug — fail loudly rather than silently depending on
    // emptiness.
    sim::Distribution empty("e", 512);
    EXPECT_THROW(a.merge(empty), sim::FatalError);
}

TEST(DistributionMerge, MergeIntoEmptyAdoptsOther)
{
    sim::Distribution a("a", 256), b("b", 256);
    for (int i = 1; i <= 100; ++i)
        b.record(static_cast<double>(i));
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.5), 50.5);
}

TEST(Rng, ExponentialMeanAndDeterminism)
{
    sim::Rng a(31), b(31);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = a.exponential(0.25);
        EXPECT_GE(v, 0.0);
        EXPECT_DOUBLE_EQ(v, b.exponential(0.25));
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, GaussianMomentsAndLognormalPositivity)
{
    sim::Rng rng(57);
    double sum = 0.0, sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian();
        sum += v;
        sumsq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sumsq / n, 1.0, 0.05);
    sim::Rng ln(58);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(ln.lognormal(-1.0, 0.5), 0.0);
}

TEST(StatSet, CounterReferenceIsStable)
{
    sim::StatSet stats("hot");
    double &bytes = stats.counter("bytes");
    bytes += 128;
    stats.inc("other", 1); // map growth must not invalidate the ref
    bytes += 72;
    EXPECT_DOUBLE_EQ(stats.get("bytes"), 200.0);
    EXPECT_TRUE(stats.has("bytes"));
}

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    sim::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntInBounds)
{
    sim::Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    // All 10 values should appear in 1000 draws.
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntMatchesAlwaysModuloReference)
{
    // The reference computes the rejection threshold 2^64 mod bound
    // before every draw; uniformInt skips it when the draw is already
    // >= bound. Same draws consumed, same values returned.
    std::uint64_t rejections = 0;
    auto reference = [&](sim::Rng &rng, std::uint64_t bound) {
        std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            std::uint64_t r = rng.next();
            if (r >= threshold)
                return r % bound;
            ++rejections;
        }
    };

    constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> bounds = {1, 2, 3, std::uint64_t{1} << 63,
                                         (std::uint64_t{1} << 63) + 1, kTop};
    for (int k = 1; k < 64; ++k) {
        std::uint64_t p = std::uint64_t{1} << k;
        bounds.push_back(p - 1);
        bounds.push_back(p);
        bounds.push_back(p + 1);
    }
    sim::Rng pick(5);
    for (int i = 0; i < 200; ++i)
        bounds.push_back(pick.next() >> pick.uniformInt(64) | 1);

    for (std::size_t b = 0; b < bounds.size(); ++b) {
        sim::Rng got(1000 + b), want(1000 + b);
        for (int i = 0; i < 500; ++i)
            ASSERT_EQ(got.uniformInt(bounds[b]),
                      reference(want, bounds[b]))
                << "bound " << bounds[b] << " draw " << i;
        ASSERT_EQ(got.next(), want.next()) << "bound " << bounds[b];
    }
    // 2^63 + 1 rejects about half its draws (threshold 2^63 - 1).
    EXPECT_GT(rejections, 1000u);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    sim::Rng rng(9);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        double v = rng.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}
