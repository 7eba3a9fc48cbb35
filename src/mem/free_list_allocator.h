/**
 * @file
 * First-fit free-list allocator over a byte range. Used by the CoE
 * runtime to manage the HBM expert region dynamically (Section V-B):
 * expert activations allocate blocks, evictions free them, and
 * fragmentation is observable through stats.
 */

#ifndef SN40L_MEM_FREE_LIST_ALLOCATOR_H
#define SN40L_MEM_FREE_LIST_ALLOCATOR_H

#include <cstdint>
#include <optional>
#include <vector>

namespace sn40l::mem {

class FreeListAllocator
{
  public:
    explicit FreeListAllocator(std::int64_t capacity,
                               std::int64_t alignment = 256);

    /**
     * Allocate @p bytes; @return the block offset, or std::nullopt if
     * no free block is large enough (even if total free space would
     * suffice — external fragmentation is modeled, not hidden).
     */
    std::optional<std::int64_t> allocate(std::int64_t bytes);

    /** Free a previously allocated block. Panics on a bad offset. */
    void free(std::int64_t offset);

    std::int64_t capacity() const { return capacity_; }
    std::int64_t usedBytes() const { return used_; }
    std::int64_t freeBytes() const { return capacity_ - used_; }
    std::int64_t largestFreeBlock() const;
    std::size_t allocatedBlocks() const { return allocated_.size(); }
    std::size_t freeBlocks() const { return free_.size(); }

    /** 1 - largestFree/totalFree; 0 when unfragmented or full. */
    double fragmentation() const;

  private:
    std::int64_t align(std::int64_t bytes) const;

    struct Block
    {
        std::int64_t offset;
        std::int64_t size;
    };

    static bool
    offsetBefore(const Block &b, std::int64_t offset)
    {
        return b.offset < offset;
    }

    std::int64_t capacity_;
    std::int64_t alignment_;
    std::int64_t used_ = 0;
    /**
     * Both lists are sorted by offset. They stay small (one entry per
     * resident expert or gap), so a flat vector's binary search and
     * short shifts beat a node-based map, and an allocate/free pair
     * reuses capacity instead of allocating a node each.
     */
    std::vector<Block> free_;      ///< disjoint, never adjacent
    std::vector<Block> allocated_;
};

} // namespace sn40l::mem

#endif // SN40L_MEM_FREE_LIST_ALLOCATOR_H
