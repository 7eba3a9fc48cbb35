#include "mem/free_list_allocator.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::mem {

FreeListAllocator::FreeListAllocator(std::int64_t capacity,
                                     std::int64_t alignment)
    : capacity_(capacity), alignment_(alignment)
{
    if (capacity <= 0)
        sim::fatal("FreeListAllocator: non-positive capacity");
    if (alignment <= 0 || (alignment & (alignment - 1)) != 0)
        sim::fatal("FreeListAllocator: alignment must be a power of two");
    free_.push_back({0, capacity});
}

std::int64_t
FreeListAllocator::align(std::int64_t bytes) const
{
    return (bytes + alignment_ - 1) & ~(alignment_ - 1);
}

std::optional<std::int64_t>
FreeListAllocator::allocate(std::int64_t bytes)
{
    if (bytes <= 0)
        sim::panic("FreeListAllocator: non-positive allocation");
    std::int64_t need = align(bytes);

    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->size < need)
            continue;
        std::int64_t offset = it->offset;
        // The remainder keeps the block's place in offset order.
        if (it->size > need)
            *it = {offset + need, it->size - need};
        else
            free_.erase(it);
        allocated_.insert(std::lower_bound(allocated_.begin(),
                                           allocated_.end(), offset,
                                           offsetBefore),
                          Block{offset, need});
        used_ += need;
        return offset;
    }
    return std::nullopt;
}

void
FreeListAllocator::free(std::int64_t offset)
{
    auto it = std::lower_bound(allocated_.begin(), allocated_.end(),
                               offset, offsetBefore);
    if (it == allocated_.end() || it->offset != offset)
        sim::panic("FreeListAllocator: freeing unallocated offset " +
                   std::to_string(offset));
    std::int64_t size = it->size;
    allocated_.erase(it);
    used_ -= size;

    // Insert and coalesce with neighbours.
    auto next = std::lower_bound(free_.begin(), free_.end(), offset,
                                 offsetBefore);
    bool joins_next = next != free_.end() && offset + size == next->offset;
    if (next != free_.begin()) {
        auto prev = std::prev(next);
        if (prev->offset + prev->size == offset) {
            prev->size += size;
            if (joins_next) {
                prev->size += next->size;
                free_.erase(next);
            }
            return;
        }
    }
    if (joins_next) {
        next->offset = offset;
        next->size += size;
        return;
    }
    free_.insert(next, Block{offset, size});
}

std::int64_t
FreeListAllocator::largestFreeBlock() const
{
    std::int64_t best = 0;
    for (const Block &b : free_)
        best = std::max(best, b.size);
    return best;
}

double
FreeListAllocator::fragmentation() const
{
    std::int64_t free_total = freeBytes();
    if (free_total <= 0)
        return 0.0;
    return 1.0 - static_cast<double>(largestFreeBlock()) /
                 static_cast<double>(free_total);
}

} // namespace sn40l::mem
