/**
 * @file
 * Tests for the free-list allocator (CoE runtime HBM region) and the
 * static lifetime-reuse planner with DDR spilling (Section V-A),
 * including differential tests of the free list against a map-based
 * first-fit reference and of the planner against a reference copy of
 * the sort-per-symbol placement it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/free_list_allocator.h"
#include "mem/static_allocator.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using mem::FreeListAllocator;
using mem::MemoryPlan;
using mem::Symbol;
using mem::Tier;

TEST(FreeListAllocator, BasicAllocFree)
{
    FreeListAllocator alloc(1024, 1);
    auto a = alloc.allocate(256);
    auto b = alloc.allocate(256);
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(alloc.usedBytes(), 512);
    alloc.free(*a);
    EXPECT_EQ(alloc.usedBytes(), 256);
    alloc.free(*b);
    EXPECT_EQ(alloc.usedBytes(), 0);
    EXPECT_EQ(alloc.largestFreeBlock(), 1024);
}

TEST(FreeListAllocator, AlignmentRoundsUp)
{
    FreeListAllocator alloc(4096, 256);
    auto a = alloc.allocate(1);
    ASSERT_TRUE(a);
    EXPECT_EQ(alloc.usedBytes(), 256);
    auto b = alloc.allocate(257);
    ASSERT_TRUE(b);
    EXPECT_EQ(alloc.usedBytes(), 256 + 512);
}

TEST(FreeListAllocator, ExternalFragmentationIsModeled)
{
    FreeListAllocator alloc(1000, 1);
    auto a = alloc.allocate(400);
    auto b = alloc.allocate(200);
    auto c = alloc.allocate(400);
    ASSERT_TRUE(a && b && c);
    alloc.free(*a);
    alloc.free(*c);
    // 800 bytes free but the largest hole is 400: a 500-byte request
    // must fail.
    EXPECT_EQ(alloc.freeBytes(), 800);
    EXPECT_EQ(alloc.largestFreeBlock(), 400);
    EXPECT_FALSE(alloc.allocate(500));
    EXPECT_GT(alloc.fragmentation(), 0.0);
}

TEST(FreeListAllocator, CoalescesNeighbours)
{
    FreeListAllocator alloc(1000, 1);
    auto a = alloc.allocate(400);
    auto b = alloc.allocate(200);
    auto c = alloc.allocate(400);
    ASSERT_TRUE(a && b && c);
    alloc.free(*a);
    alloc.free(*c);
    alloc.free(*b); // coalesces with both neighbours
    EXPECT_EQ(alloc.freeBlocks(), 1u);
    EXPECT_TRUE(alloc.allocate(1000));
}

TEST(FreeListAllocator, DoubleFreePanics)
{
    FreeListAllocator alloc(1024, 1);
    auto a = alloc.allocate(64);
    ASSERT_TRUE(a);
    alloc.free(*a);
    EXPECT_THROW(alloc.free(*a), sim::SimPanic);
    EXPECT_THROW(alloc.free(999), sim::SimPanic);
}

TEST(FreeListAllocator, RandomizedInvariants)
{
    // Property test: used + free == capacity, allocations never
    // overlap, frees always succeed for live blocks.
    sim::Rng rng(123);
    FreeListAllocator alloc(1 << 20, 64);
    std::vector<std::pair<std::int64_t, std::int64_t>> live; // offset,size

    for (int iter = 0; iter < 2000; ++iter) {
        bool do_alloc = live.empty() || rng.uniformDouble() < 0.6;
        if (do_alloc) {
            std::int64_t size =
                static_cast<std::int64_t>(rng.uniformInt(8192) + 1);
            auto off = alloc.allocate(size);
            if (off) {
                for (const auto &blk : live) {
                    bool overlap = *off < blk.first + blk.second &&
                                   blk.first < *off + size;
                    ASSERT_FALSE(overlap) << "allocation overlap";
                }
                live.emplace_back(*off, size);
            }
        } else {
            std::size_t idx = rng.uniformInt(live.size());
            alloc.free(live[idx].first);
            live.erase(live.begin() + static_cast<long>(idx));
        }
        ASSERT_EQ(alloc.usedBytes() + alloc.freeBytes(), alloc.capacity());
    }
}

namespace {

/**
 * The node-based first-fit free list FreeListAllocator replaced, kept
 * as the reference: free and allocated blocks in offset-keyed maps,
 * first fit in offset order, coalescing with both neighbours on free.
 */
class ReferenceFreeList
{
  public:
    ReferenceFreeList(std::int64_t capacity, std::int64_t alignment)
        : capacity_(capacity), alignment_(alignment)
    {
        free_[0] = capacity;
    }

    std::optional<std::int64_t>
    allocate(std::int64_t bytes)
    {
        std::int64_t need = (bytes + alignment_ - 1) & ~(alignment_ - 1);
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second < need)
                continue;
            std::int64_t offset = it->first;
            std::int64_t remainder = it->second - need;
            free_.erase(it);
            if (remainder > 0)
                free_[offset + need] = remainder;
            allocated_[offset] = need;
            used_ += need;
            return offset;
        }
        return std::nullopt;
    }

    void
    free(std::int64_t offset)
    {
        auto it = allocated_.find(offset);
        std::int64_t size = it->second;
        allocated_.erase(it);
        used_ -= size;
        auto ins = free_.emplace(offset, size).first;
        if (ins != free_.begin()) {
            auto prev = std::prev(ins);
            if (prev->first + prev->second == ins->first) {
                prev->second += ins->second;
                free_.erase(ins);
                ins = prev;
            }
        }
        auto next = std::next(ins);
        if (next != free_.end() && ins->first + ins->second == next->first) {
            ins->second += next->second;
            free_.erase(next);
        }
    }

    std::int64_t usedBytes() const { return used_; }
    std::size_t freeBlocks() const { return free_.size(); }
    std::size_t allocatedBlocks() const { return allocated_.size(); }

    std::int64_t
    largestFreeBlock() const
    {
        std::int64_t best = 0;
        for (const auto &kv : free_)
            best = std::max(best, kv.second);
        return best;
    }

    double
    fragmentation() const
    {
        std::int64_t free_total = capacity_ - used_;
        if (free_total <= 0)
            return 0.0;
        return 1.0 - static_cast<double>(largestFreeBlock()) /
                         static_cast<double>(free_total);
    }

  private:
    std::int64_t capacity_;
    std::int64_t alignment_;
    std::int64_t used_ = 0;
    std::map<std::int64_t, std::int64_t> free_;
    std::map<std::int64_t, std::int64_t> allocated_;
};

} // namespace

TEST(FreeListAllocator, MatchesMapReferenceOnRandomChurn)
{
    // Random alloc/free churn near capacity (so first fit skips
    // holes, allocations fail and frees coalesce on one or both
    // sides), compared with the reference after every step.
    struct Case
    {
        std::uint64_t seed;
        std::int64_t capacity;
        std::int64_t alignment;
        std::uint64_t maxBytes;
    };
    for (const Case &c : {Case{1, 1 << 16, 1, 4096},
                          Case{2, 1 << 20, 256, 65536},
                          Case{3, 1000, 8, 300},
                          Case{4, 1 << 24, 4096, 1 << 20}}) {
        SCOPED_TRACE(c.seed);
        sim::Rng rng(c.seed);
        FreeListAllocator fast(c.capacity, c.alignment);
        ReferenceFreeList ref(c.capacity, c.alignment);
        std::vector<std::int64_t> live;
        for (int step = 0; step < 20000; ++step) {
            if (live.empty() || rng.uniformDouble() < 0.55) {
                auto bytes =
                    static_cast<std::int64_t>(rng.uniformInt(c.maxBytes) + 1);
                std::optional<std::int64_t> a = fast.allocate(bytes);
                std::optional<std::int64_t> b = ref.allocate(bytes);
                ASSERT_EQ(a, b) << "step " << step;
                if (a)
                    live.push_back(*a);
            } else {
                std::size_t idx = rng.uniformInt(live.size());
                fast.free(live[idx]);
                ref.free(live[idx]);
                live[idx] = live.back();
                live.pop_back();
            }
            ASSERT_EQ(fast.usedBytes(), ref.usedBytes()) << "step " << step;
            ASSERT_EQ(fast.freeBlocks(), ref.freeBlocks()) << "step " << step;
            ASSERT_EQ(fast.allocatedBlocks(), ref.allocatedBlocks())
                << "step " << step;
            ASSERT_EQ(fast.largestFreeBlock(), ref.largestFreeBlock())
                << "step " << step;
            ASSERT_EQ(fast.fragmentation(), ref.fragmentation())
                << "step " << step;
        }
        // Free everything: both must coalesce back to one block.
        for (std::int64_t off : live) {
            fast.free(off);
            ref.free(off);
        }
        EXPECT_EQ(fast.freeBlocks(), 1u);
        EXPECT_EQ(ref.freeBlocks(), 1u);
        EXPECT_EQ(fast.largestFreeBlock(), c.capacity);
        EXPECT_THROW(fast.free(0), sim::SimPanic);
    }
}

namespace {

/** Check no two HBM-resident symbols with overlapping lifetimes share
 *  address space. */
void
expectNoOverlap(const std::vector<Symbol> &syms, const MemoryPlan &plan)
{
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (plan.placements[i].tier != Tier::HBM)
            continue;
        for (std::size_t j = i + 1; j < syms.size(); ++j) {
            if (plan.placements[j].tier != Tier::HBM)
                continue;
            bool life_overlap = !(syms[i].lastUse < syms[j].firstUse ||
                                  syms[j].lastUse < syms[i].firstUse);
            if (!life_overlap)
                continue;
            std::int64_t ai = plan.placements[i].offset;
            std::int64_t bi = ai + syms[i].bytes;
            std::int64_t aj = plan.placements[j].offset;
            std::int64_t bj = aj + syms[j].bytes;
            ASSERT_TRUE(bi <= aj || bj <= ai)
                << syms[i].name << " overlaps " << syms[j].name;
        }
    }
}

} // namespace

TEST(StaticAllocator, ReusesAddressesAcrossDisjointLifetimes)
{
    // Two 600-byte symbols with disjoint lifetimes fit in 1000 bytes.
    std::vector<Symbol> syms = {
        {"a", 600, 0, 1, 10.0, false},
        {"b", 600, 2, 3, 10.0, false},
    };
    MemoryPlan plan = mem::planMemory(syms, 1000, 1 << 20);
    EXPECT_EQ(plan.spilledSymbols, 0);
    EXPECT_EQ(plan.hbmPeakBytes, 600);
    EXPECT_EQ(plan.placements[0].offset, plan.placements[1].offset);
    expectNoOverlap(syms, plan);
}

TEST(StaticAllocator, OverlappingLifetimesDoNotShare)
{
    std::vector<Symbol> syms = {
        {"a", 600, 0, 5, 10.0, false},
        {"b", 600, 2, 3, 10.0, false},
    };
    MemoryPlan plan = mem::planMemory(syms, 2000, 1 << 20);
    EXPECT_EQ(plan.hbmPeakBytes, 1200);
    expectNoOverlap(syms, plan);
}

TEST(StaticAllocator, SpillsLowestBandwidthSymbolsFirst)
{
    // HBM holds only 1000 bytes; the low-footprint activation spills,
    // the high-footprint weight stays (Section V-A priority).
    std::vector<Symbol> syms = {
        {"weight", 800, 0, 9, 1e9, true},
        {"activation", 800, 0, 9, 1e3, false},
    };
    MemoryPlan plan = mem::planMemory(syms, 1000, 1 << 20);
    EXPECT_EQ(plan.spilledSymbols, 1);
    EXPECT_EQ(plan.placements[0].tier, Tier::HBM);
    EXPECT_EQ(plan.placements[1].tier, Tier::DDR);
    EXPECT_DOUBLE_EQ(plan.spillTrafficBytes, 1e3);
}

TEST(StaticAllocator, FatalWhenNothingFits)
{
    std::vector<Symbol> syms = {{"huge", 4096, 0, 0, 1.0, false}};
    EXPECT_THROW(mem::planMemory(syms, 1024, 2048), sim::FatalError);
}

TEST(StaticAllocator, RandomizedLifetimePlacementIsSound)
{
    sim::Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<Symbol> syms;
        int n = 30;
        for (int i = 0; i < n; ++i) {
            Symbol s;
            s.name = "s" + std::to_string(i);
            s.bytes = static_cast<std::int64_t>(rng.uniformInt(1000) + 1);
            s.firstUse = static_cast<int>(rng.uniformInt(20));
            s.lastUse = s.firstUse + static_cast<int>(rng.uniformInt(10));
            s.transferFootprint = rng.uniformDouble() * 1e6;
            syms.push_back(s);
        }
        MemoryPlan plan = mem::planMemory(syms, 8000, 1 << 20);
        expectNoOverlap(syms, plan);
        EXPECT_LE(plan.hbmPeakBytes, 8000);
        // Reuse never exceeds the no-reuse upper bound.
        EXPECT_LE(plan.hbmPeakBytes, plan.hbmBytesNoReuse);
    }
}

namespace reference {

// Verbatim copy of the placement that sorted a fresh `busy` list per
// symbol; mem::placeWithLifetimeReuse must give the same offsets.
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

    struct Placed { std::int64_t lo, hi; int first, last; };
    std::vector<Placed> placed;
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

        // Collect live intervals overlapping this symbol's lifetime,
        // then scan gaps in offset order.
        std::vector<std::pair<std::int64_t, std::int64_t>> busy;
        for (const Placed &p : placed) {
            bool overlaps = !(p.last < sym.firstUse || p.first > sym.lastUse);
            if (overlaps)
                busy.emplace_back(p.lo, p.hi);
        }
        std::sort(busy.begin(), busy.end());

        std::int64_t candidate = 0;
        for (const auto &range : busy) {
            if (candidate + sym.bytes <= range.first)
                break;
            candidate = std::max(candidate, range.second);
        }

        offsets[idx] = candidate;
        placed.push_back({candidate, candidate + sym.bytes,
                          sym.firstUse, sym.lastUse});
        peak = std::max(peak, candidate + sym.bytes);
    }
    return peak;
}

// mem::planMemory over the reference placement; @p passes counts its
// placement passes (1 + the number of spill rounds).
MemoryPlan
planMemory(const std::vector<Symbol> &symbols, std::int64_t hbm_capacity,
           std::int64_t ddr_capacity, int &passes)
{
    MemoryPlan plan;
    plan.placements.assign(symbols.size(), mem::Placement{});

    std::vector<bool> in_hbm(symbols.size(), true);
    for (const Symbol &sym : symbols)
        plan.hbmBytesNoReuse += sym.bytes;

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
    passes = 0;
    for (;;) {
        ++passes;
        std::int64_t peak =
            reference::placeWithLifetimeReuse(symbols, in_hbm, offsets);
        if (peak <= hbm_capacity) {
            plan.hbmPeakBytes = peak;
            break;
        }
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

} // namespace reference

namespace {

/**
 * A random symbol set shaped like a compiled program, with the cases
 * that stress first-fit placement: many whole-schedule symbols, ties
 * on firstUse and on bytes, sizes drawn from a few multiples so freed
 * holes are often refilled to the byte, and one-step lifetimes.
 */
std::vector<Symbol>
randomSymbols(sim::Rng &rng, int n)
{
    const int steps = 1 + static_cast<int>(rng.uniformInt(60));
    const double full_span = 0.9 * rng.uniformDouble();
    const double one_step = rng.uniformDouble();
    const bool few_sizes = rng.uniformInt(2) == 0;
    const int first_range = 1 + static_cast<int>(rng.uniformInt(
        static_cast<std::uint64_t>(steps)));
    std::vector<Symbol> syms;
    syms.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Symbol s;
        s.name = "s" + std::to_string(i);
        s.bytes = few_sizes
            ? 64 * static_cast<std::int64_t>(1 + rng.uniformInt(4))
            : static_cast<std::int64_t>(1 + rng.uniformInt(4096));
        if (rng.uniformDouble() < full_span) {
            s.firstUse = 0;
            s.lastUse = steps - 1;
        } else {
            s.firstUse = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(first_range)));
            s.lastUse = rng.uniformDouble() < one_step
                ? s.firstUse
                : s.firstUse + static_cast<int>(rng.uniformInt(
                                   static_cast<std::uint64_t>(steps)));
        }
        // Footprint ties too, so the spill order's index tie-break runs.
        s.transferFootprint = few_sizes
            ? static_cast<double>(rng.uniformInt(8))
            : rng.uniformDouble() * 1e6;
        syms.push_back(std::move(s));
    }
    return syms;
}

} // namespace

TEST(StaticAllocator, PlacementMatchesSortPerSymbolReference)
{
    sim::Rng rng(2024);
    int exact_fits = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        // Mostly small sets, with one in a hundred up to a compile's
        // size and beyond (a cold compile places ~430 symbols).
        int n = static_cast<int>(trial % 100 == 0 ? rng.uniformInt(1501)
                                                  : rng.uniformInt(121));
        std::vector<Symbol> syms = randomSymbols(rng, n);
        std::vector<bool> include(syms.size(), true);
        if (trial % 2 == 1) {
            double keep = rng.uniformDouble();
            for (std::size_t i = 0; i < include.size(); ++i)
                include[i] = rng.uniformDouble() < keep;
        }

        std::vector<std::int64_t> want, got;
        std::int64_t want_peak =
            reference::placeWithLifetimeReuse(syms, include, want);
        std::int64_t got_peak =
            mem::placeWithLifetimeReuse(syms, include, got);
        ASSERT_EQ(got_peak, want_peak) << "trial " << trial;
        ASSERT_EQ(got, want) << "trial " << trial;

        // Count symbols that filled a gap to the byte: they end exactly
        // where an earlier-placed, lifetime-overlapping symbol begins.
        if (n > 120)
            continue;
        auto placed_before = [&](std::size_t a, std::size_t b) {
            if (syms[a].firstUse != syms[b].firstUse)
                return syms[a].firstUse < syms[b].firstUse;
            if (syms[a].bytes != syms[b].bytes)
                return syms[a].bytes > syms[b].bytes;
            return a < b;
        };
        for (std::size_t i = 0; i < syms.size(); ++i) {
            for (std::size_t j = 0; got[i] >= 0 && j < syms.size(); ++j) {
                if (got[j] >= 0 && placed_before(j, i) &&
                    got[j] == got[i] + syms[i].bytes &&
                    syms[j].firstUse <= syms[i].lastUse &&
                    syms[i].firstUse <= syms[j].lastUse) {
                    ++exact_fits;
                    break;
                }
            }
        }
    }
    EXPECT_GT(exact_fits, 2000);
}

TEST(StaticAllocator, PlanMatchesReferenceAcrossSpillPasses)
{
    sim::Rng rng(4048);
    std::vector<int> passes_seen(8, 0);
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<Symbol> syms =
            randomSymbols(rng, static_cast<int>(rng.uniformInt(121)));
        // k one-step transients that share one address range and have
        // the lowest footprint: each spill round evicts one of them
        // without lowering the peak, so the plan takes k + 1 passes.
        int k = static_cast<int>(rng.uniformInt(6));
        for (int i = 0; i < k; ++i) {
            Symbol s;
            s.name = "t" + std::to_string(i);
            s.bytes = 1 << 20;
            s.firstUse = 1000 + i;
            s.lastUse = 1000 + i;
            s.transferFootprint = -1.0;
            syms.push_back(std::move(s));
        }
        std::vector<std::int64_t> scratch;
        std::int64_t full_peak = mem::placeWithLifetimeReuse(
            syms, std::vector<bool>(syms.size(), true), scratch);
        std::int64_t cap = k > 0
            ? (1 << 20) - 1
            : static_cast<std::int64_t>(
                  static_cast<double>(full_peak) *
                  (0.2 + 0.9 * rng.uniformDouble()));
        std::int64_t ddr =
            rng.uniformInt(4) == 0 ? full_peak / 3 : std::int64_t{1} << 40;

        int passes = 0;
        bool want_fatal = false, got_fatal = false;
        MemoryPlan want, got;
        try {
            want = reference::planMemory(syms, cap, ddr, passes);
        } catch (const sim::FatalError &) {
            want_fatal = true;
        }
        try {
            got = mem::planMemory(syms, cap, ddr);
        } catch (const sim::FatalError &) {
            got_fatal = true;
        }
        ASSERT_EQ(got_fatal, want_fatal) << "trial " << trial;
        if (want_fatal)
            continue;
        ++passes_seen[static_cast<std::size_t>(std::min(passes, 7))];
        ASSERT_EQ(got.hbmPeakBytes, want.hbmPeakBytes) << "trial " << trial;
        ASSERT_EQ(got.ddrBytes, want.ddrBytes);
        ASSERT_EQ(got.hbmBytesNoReuse, want.hbmBytesNoReuse);
        ASSERT_EQ(got.spilledSymbols, want.spilledSymbols);
        ASSERT_EQ(got.spillTrafficBytes, want.spillTrafficBytes);
        for (std::size_t i = 0; i < syms.size(); ++i) {
            ASSERT_EQ(got.placements[i].tier, want.placements[i].tier);
            ASSERT_EQ(got.placements[i].offset, want.placements[i].offset);
        }
    }
    // One to five spill rounds (two to six placement passes) all ran.
    for (int p = 2; p <= 6; ++p)
        EXPECT_GT(passes_seen[static_cast<std::size_t>(p)], 0)
            << p << " passes";
}
