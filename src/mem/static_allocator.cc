#include "mem/static_allocator.h"

#include <algorithm>
#include <numeric>

#include "sim/log.h"

namespace sn40l::mem {

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::HBM: return "hbm";
      case Tier::DDR: return "ddr";
    }
    sim::panic("tierName: unknown tier");
}

std::int64_t
placeWithLifetimeReuse(const std::vector<Symbol> &symbols,
                       const std::vector<bool> &include,
                       std::vector<std::int64_t> &offsets)
{
    if (include.size() != symbols.size())
        sim::panic("placeWithLifetimeReuse: include size mismatch");

    offsets.assign(symbols.size(), -1);

    // Greedy interval placement: process symbols ordered by first use
    // (then by descending size for determinism); each symbol takes the
    // lowest offset that does not collide with any already-placed
    // symbol whose lifetime overlaps.
    std::vector<std::size_t> order(symbols.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (symbols[a].firstUse != symbols[b].firstUse)
            return symbols[a].firstUse < symbols[b].firstUse;
        if (symbols[a].bytes != symbols[b].bytes)
            return symbols[a].bytes > symbols[b].bytes;
        return a < b;
    });

    // Placed intervals, kept ordered by (lo, hi). Walking them in that
    // order and skipping lifetimes that do not overlap visits exactly
    // the overlapping intervals sorted by offset, so the first-fit
    // scan needs no per-symbol collection or sort. Entries tied on lo
    // cannot change the answer: `candidate` only grows.
    struct Placed { std::int64_t lo, hi; int first, last; };
    std::vector<Placed> placed;
    placed.reserve(symbols.size());
    std::int64_t peak = 0;

    for (std::size_t idx : order) {
        if (!include[idx])
            continue;
        const Symbol &sym = symbols[idx];
        if (sym.bytes <= 0)
            sim::panic("placeWithLifetimeReuse: symbol '" + sym.name +
                       "' has non-positive size");
        if (sym.lastUse < sym.firstUse)
            sim::panic("placeWithLifetimeReuse: symbol '" + sym.name +
                       "' has inverted lifetime");

        std::int64_t candidate = 0;
        for (const Placed &p : placed) {
            if (p.last < sym.firstUse || p.first > sym.lastUse)
                continue;
            if (candidate + sym.bytes <= p.lo)
                break;
            candidate = std::max(candidate, p.hi);
        }

        offsets[idx] = candidate;
        Placed entry{candidate, candidate + sym.bytes, sym.firstUse,
                     sym.lastUse};
        auto at = std::upper_bound(
            placed.begin(), placed.end(), entry,
            [](const Placed &a, const Placed &b) {
                return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
        placed.insert(at, entry);
        peak = std::max(peak, entry.hi);
    }
    return peak;
}

MemoryPlan
planMemory(const std::vector<Symbol> &symbols, std::int64_t hbm_capacity,
           std::int64_t ddr_capacity)
{
    MemoryPlan plan;
    plan.placements.assign(symbols.size(), Placement{});

    std::vector<bool> in_hbm(symbols.size(), true);
    for (const Symbol &sym : symbols)
        plan.hbmBytesNoReuse += sym.bytes;

    // Spill candidates ordered by ascending bandwidth demand: the
    // symbols whose residence in HBM buys the least are evicted first.
    std::vector<std::size_t> spill_order(symbols.size());
    std::iota(spill_order.begin(), spill_order.end(), 0);
    std::sort(spill_order.begin(), spill_order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (symbols[a].transferFootprint !=
                      symbols[b].transferFootprint) {
                      return symbols[a].transferFootprint <
                             symbols[b].transferFootprint;
                  }
                  return a < b;
              });

    std::vector<std::int64_t> offsets;
    std::size_t next_spill = 0;
    for (;;) {
        std::int64_t peak = placeWithLifetimeReuse(symbols, in_hbm, offsets);
        if (peak <= hbm_capacity) {
            plan.hbmPeakBytes = peak;
            break;
        }
        // Spill at least the overflow before re-placing; lifetime
        // reuse can only shrink the footprint further, so this batch
        // heuristic stays conservative while avoiding O(spills)
        // placement passes.
        std::int64_t overflow = peak - hbm_capacity;
        std::int64_t freed = 0;
        while (freed < overflow) {
            if (next_spill >= symbols.size()) {
                sim::fatal("planMemory: symbols cannot fit in HBM even "
                           "after spilling everything");
            }
            std::size_t victim = spill_order[next_spill++];
            if (!in_hbm[victim])
                continue;
            in_hbm[victim] = false;
            freed += symbols[victim].bytes;
            plan.ddrBytes += symbols[victim].bytes;
            plan.spillTrafficBytes += symbols[victim].transferFootprint;
            ++plan.spilledSymbols;
        }
    }

    if (plan.ddrBytes > ddr_capacity)
        sim::fatal("planMemory: spilled symbols exceed DDR capacity");

    for (std::size_t i = 0; i < symbols.size(); ++i) {
        if (in_hbm[i]) {
            plan.placements[i] = {Tier::HBM, offsets[i]};
        } else {
            plan.placements[i] = {Tier::DDR, -1};
        }
    }
    return plan;
}

} // namespace sn40l::mem
