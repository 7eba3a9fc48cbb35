#include "coe/router.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace sn40l::coe {

const char *
routingDistributionName(RoutingDistribution dist)
{
    switch (dist) {
      case RoutingDistribution::Uniform: return "uniform";
      case RoutingDistribution::Zipf: return "zipf";
      case RoutingDistribution::RoundRobin: return "round-robin";
    }
    sim::panic("routingDistributionName: unknown distribution");
}

RoutingDistribution
routingDistributionFromName(const std::string &name)
{
    if (name == "uniform")
        return RoutingDistribution::Uniform;
    if (name == "zipf")
        return RoutingDistribution::Zipf;
    if (name == "round-robin" || name == "roundrobin")
        return RoutingDistribution::RoundRobin;
    sim::fatal("unknown routing distribution '" + name +
               "' (expected uniform, zipf, or round-robin)");
}

Router::Router(int num_experts, RoutingDistribution dist,
               std::uint64_t seed, double zipf_s)
    : numExperts_(num_experts), dist_(dist), rng_(seed),
      model_(models::LlmConfig::llama2_7b())
{
    if (num_experts <= 0)
        sim::fatal("Router: need at least one expert");
    model_.name = "samba-coe-router";

    if (dist_ == RoutingDistribution::Zipf) {
        cdf_.resize(numExperts_);
        double sum = 0.0;
        for (int i = 0; i < numExperts_; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
            cdf_[i] = sum;
        }
        for (double &v : cdf_)
            v /= sum;
    }
}

int
Router::route()
{
    switch (dist_) {
      case RoutingDistribution::Uniform:
        return static_cast<int>(rng_.uniformInt(numExperts_));
      case RoutingDistribution::RoundRobin:
        return next_++ % numExperts_;
      case RoutingDistribution::Zipf: {
        // First i with u <= cdf_[i]. The CDF is non-decreasing, so the
        // binary search returns exactly the linear scan's index; a u
        // above the last entry (rounding) falls back to the last expert.
        double u = rng_.uniformDouble();
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        if (it == cdf_.end())
            return numExperts_ - 1;
        return static_cast<int>(it - cdf_.begin());
      }
    }
    sim::panic("Router::route: unknown distribution");
}

} // namespace sn40l::coe
