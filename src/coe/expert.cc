#include "coe/expert.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::coe {

ExpertZoo
ExpertZoo::uniform(int count, const models::LlmConfig &base)
{
    if (count <= 0)
        sim::fatal("ExpertZoo: need at least one expert");
    static const char *kDomains[] = {"math", "code", "law", "chinese",
                                     "german", "physics", "politics",
                                     "econ"};
    ExpertZoo zoo;
    zoo.reserve(count);
    for (int i = 0; i < count; ++i) {
        ExpertModel e;
        e.name = base.name + "-expert-" + std::to_string(i);
        e.domain = kDomains[i % (sizeof(kDomains) / sizeof(kDomains[0]))];
        e.config = base;
        e.bytes = base.weightBytes();
        zoo.add(std::move(e));
    }
    return zoo;
}

void
ExpertZoo::add(ExpertModel expert)
{
    expert.id = static_cast<int>(experts_.size());
    experts_.push_back(std::move(expert));
}

const ExpertModel &
ExpertZoo::expert(int id) const
{
    if (id < 0 || id >= size())
        sim::panic("ExpertZoo: bad expert id " + std::to_string(id));
    return experts_[id];
}

double
ExpertZoo::totalBytes() const
{
    double total = 0.0;
    for (const ExpertModel &e : experts_)
        total += e.bytes;
    return total;
}

double
ExpertZoo::maxExpertBytes() const
{
    double best = 0.0;
    for (const ExpertModel &e : experts_)
        best = std::max(best, e.bytes);
    return best;
}

} // namespace sn40l::coe
