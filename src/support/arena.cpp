#include "support/arena.h"

namespace isaria
{

void *
Arena::allocateSlow(std::size_t bytes, std::size_t align)
{
    // Walk forward through chunks retained by an earlier reset();
    // they are empty (used == 0) and may satisfy the request without
    // touching the heap.
    while (active_ + 1 < chunks_.size()) {
        ++active_;
        Chunk &chunk = chunks_[active_];
        std::size_t at = (chunk.used + align - 1) & ~(align - 1);
        if (at + bytes <= chunk.capacity) {
            chunk.used = at + bytes;
            bytesAllocated_ += bytes;
            ++allocations_;
            return chunk.data.get() + at;
        }
        // Too small for this request; skip it (it stays empty and is
        // revisited after the next reset).
    }

    // Fresh chunk: geometric growth from kMin to kMax, or a dedicated
    // chunk when a single request is larger than kMax. The chunk base
    // comes from operator new[], so it satisfies any fundamental
    // alignment without an offset (allocate() already rejected
    // over-aligned requests).
    std::size_t capacity = kMinChunkBytes;
    if (!chunks_.empty()) {
        std::size_t last = chunks_.back().capacity;
        capacity = last >= kMaxChunkBytes ? kMaxChunkBytes : last * 2;
    }
    if (bytes + align > capacity)
        capacity = bytes + align;

    Chunk chunk;
    chunk.data = std::make_unique<std::byte[]>(capacity);
    chunk.capacity = capacity;
    chunk.used = bytes;
    ++chunkAllocations_;
    chunks_.push_back(std::move(chunk));
    active_ = chunks_.size() - 1;
    bytesAllocated_ += bytes;
    ++allocations_;
    return chunks_.back().data.get();
}

} // namespace isaria
