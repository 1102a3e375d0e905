#ifndef ISARIA_SUPPORT_ARENA_H
#define ISARIA_SUPPORT_ARENA_H

/**
 * @file
 * Bump-pointer arena with chunked growth, and a non-owning vector
 * built on top of it.
 *
 * The e-graph's saturation loop is allocation-bound: every e-node
 * spill buffer, hash-cons payload, and op-index append used to be an
 * individual `new`. The Arena replaces those with pointer bumps into
 * geometrically-growing chunks (4 KiB doubling to 1 MiB; oversize
 * requests get a dedicated chunk). reset() rewinds every allocation
 * in O(chunks), retaining the chunks for reuse (the extractor
 * rewinds its index arena this way on every rebuild).
 *
 * Invariants:
 *  - Memory is never returned to the OS by reset(); chunks are
 *    reused. Only the destructor (or the object being moved from)
 *    frees them.
 *  - Every pointer handed out before reset() dangles after it.
 *  - allocations()/chunkAllocations() are monotonic (they survive
 *    reset), so they can serve as before/after deltas when counting
 *    allocator traffic; bytesAllocated() is the live frontier and
 *    rewinds with reset.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "support/panic.h"

namespace isaria
{

class Arena
{
  public:
    static constexpr std::size_t kMinChunkBytes = 4 * 1024;
    static constexpr std::size_t kMaxChunkBytes = 1024 * 1024;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;
    Arena(Arena &&) noexcept = default;
    Arena &operator=(Arena &&) noexcept = default;

    /** @p align must be a power of two. */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        ISARIA_ASSERT((align & (align - 1)) == 0,
                      "arena alignment must be a power of two");
        // Chunk bases come from operator new[], which only guarantees
        // fundamental alignment — an over-aligned request could slip
        // through the offset-only alignment below, so reject it here
        // on every path, not just in allocateSlow.
        ISARIA_ASSERT(align <= alignof(std::max_align_t),
                      "arena cannot serve over-aligned requests");
        if (!chunks_.empty()) {
            Chunk &chunk = chunks_[active_];
            std::size_t at = (chunk.used + align - 1) & ~(align - 1);
            if (at + bytes <= chunk.capacity) {
                chunk.used = at + bytes;
                bytesAllocated_ += bytes;
                ++allocations_;
                return chunk.data.get() + at;
            }
        }
        return allocateSlow(bytes, align);
    }

    template <typename T>
    T *
    allocateArray(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage is never destructed");
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /** Rewinds everything, retaining the chunks. */
    void
    reset()
    {
        for (Chunk &chunk : chunks_)
            chunk.used = 0;
        active_ = 0;
        bytesAllocated_ = 0;
    }

    /** Live bytes inside chunks (rewinds with reset). */
    std::uint64_t bytesAllocated() const { return bytesAllocated_; }

    /** Total chunk capacity resident (never shrinks). */
    std::uint64_t
    bytesReserved() const
    {
        std::uint64_t total = 0;
        for (const Chunk &chunk : chunks_)
            total += chunk.capacity;
        return total;
    }

    std::size_t numChunks() const { return chunks_.size(); }

    /** Monotonic count of allocate() calls (survives reset). */
    std::uint64_t allocations() const { return allocations_; }

    /** Monotonic count of chunks obtained from the heap. */
    std::uint64_t chunkAllocations() const { return chunkAllocations_; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    void *allocateSlow(std::size_t bytes, std::size_t align);

    std::vector<Chunk> chunks_;
    /** Index of the chunk currently being bumped (0 when empty). */
    std::size_t active_ = 0;
    std::uint64_t bytesAllocated_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t chunkAllocations_ = 0;
};

/**
 * A vector of trivially-copyable elements whose storage lives in an
 * Arena. It does not own its buffer: growth allocates a fresh arena
 * block and abandons the old one (bounded 2x churn), and destruction
 * frees nothing. After the owning arena is reset, call resetStorage()
 * before reuse — the old pointer would alias whatever the arena hands
 * out next.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ArenaVector elements are moved with memcpy");

  public:
    ArenaVector() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T operator[](std::size_t i) const { return data_[i]; }
    T &operator[](std::size_t i) { return data_[i]; }

    void
    push_back(Arena &arena, T value)
    {
        if (size_ == capacity_)
            grow(arena);
        data_[size_++] = value;
    }

    void clear() { size_ = 0; }

    /** Drops count to @p n (which must not exceed size()). */
    void
    truncate(std::size_t n)
    {
        ISARIA_ASSERT(n <= size_, "ArenaVector::truncate grows");
        size_ = static_cast<std::uint32_t>(n);
    }

    /** Forgets the buffer entirely (after the arena was reset). */
    void
    resetStorage()
    {
        data_ = nullptr;
        size_ = 0;
        capacity_ = 0;
    }

  private:
    void
    grow(Arena &arena)
    {
        std::uint32_t fresh = capacity_ ? capacity_ * 2 : 4;
        T *block = arena.allocateArray<T>(fresh);
        if (size_)
            std::memcpy(block, data_, size_ * sizeof(T));
        data_ = block;
        capacity_ = fresh;
    }

    T *data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;
};

/**
 * An Arena plus size-bucketed free lists, for node-based containers
 * (the e-graph's hash-cons table) whose erase/insert churn would
 * otherwise grow a pure bump allocator without bound. Deallocated
 * blocks are recycled by exact size; container node allocations are a
 * handful of distinct sizes, so the bucket map stays tiny.
 *
 * `enabled = false` routes every request straight to the global
 * allocator — the A/B switch the scaling benchmark uses to measure
 * the arena's allocator-traffic win.
 */
struct ArenaPool
{
    Arena arena;
    bool enabled = true;
    std::unordered_map<std::size_t, std::vector<void *>> freeBySize;

    void *
    allocate(std::size_t bytes)
    {
        if (!enabled)
            return ::operator new(bytes);
        auto it = freeBySize.find(bytes);
        if (it != freeBySize.end() && !it->second.empty()) {
            void *p = it->second.back();
            it->second.pop_back();
            return p;
        }
        return arena.allocate(bytes, alignof(std::max_align_t));
    }

    void
    deallocate(void *p, std::size_t bytes)
    {
        if (!enabled) {
            ::operator delete(p);
            return;
        }
        freeBySize[bytes].push_back(p);
    }
};

/**
 * Minimal std allocator over an ArenaPool (for the e-graph's memo
 * table). The pool must outlive every container using it; EGraph pins
 * its pool behind a unique_ptr so the allocator survives moves.
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    explicit PoolAllocator(ArenaPool *pool) : pool_(pool) {}

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &other) : pool_(other.pool())
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(pool_->allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        pool_->deallocate(p, n * sizeof(T));
    }

    ArenaPool *pool() const { return pool_; }

    bool
    operator==(const PoolAllocator &other) const
    {
        return pool_ == other.pool_;
    }
    bool
    operator!=(const PoolAllocator &other) const
    {
        return pool_ != other.pool_;
    }

  private:
    ArenaPool *pool_;
};

} // namespace isaria

#endif // ISARIA_SUPPORT_ARENA_H
