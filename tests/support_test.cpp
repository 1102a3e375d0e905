// Unit tests for the support module: rationals, rng, interner,
// thread pool, arena.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "egraph/enode.h"
#include "support/arena.h"
#include "support/interner.h"
#include "support/rational.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace isaria
{
namespace
{

TEST(Rational, DefaultIsZero)
{
    Rational r;
    EXPECT_TRUE(r.valid());
    EXPECT_EQ(r.num(), 0);
    EXPECT_EQ(r.den(), 1);
}

TEST(Rational, MakeNormalizes)
{
    Rational r = Rational::make(6, -4);
    EXPECT_TRUE(r.valid());
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
}

TEST(Rational, MakeZeroDenIsInvalid)
{
    EXPECT_FALSE(Rational::make(1, 0).valid());
}

TEST(Rational, Arithmetic)
{
    Rational half = Rational::make(1, 2);
    Rational third = Rational::make(1, 3);
    EXPECT_EQ(half + third, Rational::make(5, 6));
    EXPECT_EQ(half - third, Rational::make(1, 6));
    EXPECT_EQ(half * third, Rational::make(1, 6));
    EXPECT_EQ(half / third, Rational::make(3, 2));
    EXPECT_EQ(-half, Rational::make(-1, 2));
}

TEST(Rational, DivisionByZeroInvalid)
{
    EXPECT_FALSE((Rational(1) / Rational(0)).valid());
}

TEST(Rational, InvalidPropagates)
{
    Rational bad = Rational::invalid();
    EXPECT_FALSE((bad + Rational(1)).valid());
    EXPECT_FALSE((Rational(1) * bad).valid());
    EXPECT_FALSE((-bad).valid());
    EXPECT_FALSE(bad.sgn().valid());
    EXPECT_FALSE(bad.sqrt().valid());
}

TEST(Rational, InvalidNeverEqual)
{
    Rational bad = Rational::invalid();
    EXPECT_FALSE(bad == bad);
    EXPECT_FALSE(bad == Rational(0));
}

TEST(Rational, Sgn)
{
    EXPECT_EQ(Rational(5).sgn(), Rational(1));
    EXPECT_EQ(Rational(-5).sgn(), Rational(-1));
    EXPECT_EQ(Rational(0).sgn(), Rational(0));
    EXPECT_EQ(Rational::make(-3, 7).sgn(), Rational(-1));
}

TEST(Rational, SqrtPerfectSquares)
{
    EXPECT_EQ(Rational(9).sqrt(), Rational(3));
    EXPECT_EQ(Rational(0).sqrt(), Rational(0));
    EXPECT_EQ(Rational::make(9, 4).sqrt(), Rational::make(3, 2));
}

TEST(Rational, SqrtIrrationalOrNegativeInvalid)
{
    EXPECT_FALSE(Rational(2).sqrt().valid());
    EXPECT_FALSE(Rational(-4).sqrt().valid());
    EXPECT_FALSE(Rational::make(1, 3).sqrt().valid());
}

TEST(Rational, OverflowBecomesInvalid)
{
    Rational big(INT64_MAX - 1);
    EXPECT_FALSE((big * Rational(4)).valid());
    EXPECT_FALSE((big + big).valid());
    // Near-overflow values still work.
    EXPECT_EQ(Rational(INT64_MAX / 2) + Rational(INT64_MAX / 2),
              Rational(INT64_MAX - 1));
}

TEST(Rational, Ordering)
{
    EXPECT_TRUE(Rational::make(1, 3) < Rational::make(1, 2));
    EXPECT_TRUE(Rational(-1) < Rational(0));
    EXPECT_FALSE(Rational(2) < Rational(2));
}

TEST(Rational, ToString)
{
    EXPECT_EQ(Rational(7).toString(), "7");
    EXPECT_EQ(Rational::make(-1, 2).toString(), "-1/2");
    EXPECT_EQ(Rational::invalid().toString(), "#undef");
}

TEST(Rational, HashConsistentWithEquality)
{
    EXPECT_EQ(Rational::make(2, 4).hash(), Rational::make(1, 2).hash());
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Interner, RoundTrip)
{
    SymbolId a = internSymbol("alpha");
    SymbolId b = internSymbol("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(internSymbol("alpha"), a);
    EXPECT_EQ(symbolName(a), "alpha");
    EXPECT_EQ(symbolName(b), "beta");
}

TEST(Timer, DeadlineUnlimitedNeverExpires)
{
    Deadline d = Deadline::unlimited();
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingSeconds(), 1e9);
}

TEST(Timer, DeadlineExpires)
{
    Deadline d(1e-9);
    // Burn a little time.
    volatile unsigned sink = 0; // unsigned: the sum wraps, no UB
    for (unsigned i = 0; i < 100000; ++i)
        sink = sink + i;
    EXPECT_TRUE(d.expired());
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        constexpr std::size_t kTasks = 10'000;
        std::vector<std::atomic<int>> hits(kTasks);
        pool.parallelFor(kTasks,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < kTasks; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    for (int job = 0; job < 50; ++job) {
        pool.parallelFor(100, [&](std::size_t i) {
            sum.fetch_add(static_cast<std::int64_t>(i));
        });
    }
    EXPECT_EQ(sum.load(), 50 * (99 * 100 / 2));
}

TEST(ThreadPool, LateWorkerNeverJoinsTheNextJob)
{
    // Back-to-back 2-task jobs on a 4-worker pool: the caller and one
    // worker usually finish a job before the other workers wake, so a
    // late worker routinely finds its job already ended and the next
    // one being seeded. It must sit that generation out — joining it
    // would call through the cleared function or corrupt the next
    // job's pending count.
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    constexpr int kJobs = 20'000;
    for (int job = 0; job < kJobs; ++job) {
        pool.parallelFor(2, [&](std::size_t i) {
            sum.fetch_add(static_cast<std::int64_t>(i) + 1);
        });
    }
    EXPECT_EQ(sum.load(), std::int64_t{kJobs} * 3);
}

TEST(ThreadPool, StealsUnevenWork)
{
    // One chunk gets nearly all the work; stealing must still finish
    // every task (and a 1-task job runs inline).
    ThreadPool pool(3);
    std::atomic<std::size_t> done{0};
    pool.parallelFor(1, [&](std::size_t) { done.fetch_add(1); });
    pool.parallelFor(2, [&](std::size_t i) {
        if (i == 0) {
            volatile unsigned spin = 0; // unsigned: wraps, no UB
            for (unsigned k = 0; k < 2'000'000; ++k)
                spin = spin + k;
        }
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 3u);
}

TEST(ThreadPool, DefaultThreadsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

// ---------------------------------------------------------------------
// Arena: bump allocation, reset, pools, arena-backed containers. Also
// an ASan target (build with ISARIA_SANITIZE=address).

TEST(Arena, BumpAllocationAndChunkGrowth)
{
    Arena arena;
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    EXPECT_EQ(arena.numChunks(), 0u);

    // Fill well past the first 4KiB chunk.
    for (int i = 0; i < 1000; ++i) {
        auto *p = arena.allocateArray<std::uint64_t>(8);
        p[0] = static_cast<std::uint64_t>(i); // must be writable
        EXPECT_EQ(p[0], static_cast<std::uint64_t>(i));
    }
    EXPECT_GE(arena.bytesAllocated(), 1000u * 8 * sizeof(std::uint64_t));
    EXPECT_GT(arena.numChunks(), 1u);
    EXPECT_EQ(arena.allocations(), 1000u);
    EXPECT_GE(arena.bytesReserved(), arena.bytesAllocated());
}

TEST(Arena, OversizeAllocationGetsDedicatedChunk)
{
    Arena arena;
    const std::size_t big = 4u << 20; // 4 MiB > kMaxChunkBytes
    auto *p = static_cast<std::byte *>(arena.allocate(big, 16));
    ASSERT_NE(p, nullptr);
    p[0] = std::byte{1};
    p[big - 1] = std::byte{2}; // whole span must be addressable
    EXPECT_GE(arena.bytesReserved(), big);
}

TEST(Arena, ResetRewindsAndRetainsChunks)
{
    Arena arena;
    auto fill = [&] {
        for (int i = 0; i < 500; ++i)
            std::memset(arena.allocate(256, 8), 0xA5, 256);
    };
    fill();
    std::size_t chunksGrown = arena.numChunks();
    std::uint64_t chunkAllocs = arena.chunkAllocations();
    EXPECT_GT(chunksGrown, 1u);

    arena.reset();
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    // Chunks are retained for reuse, not freed.
    EXPECT_EQ(arena.numChunks(), chunksGrown);

    // Refilling the same volume reuses the retained chunks: no new
    // chunk allocations (this is the reuse loop ASan must bless).
    fill();
    EXPECT_EQ(arena.chunkAllocations(), chunkAllocs);
}

TEST(Arena, ArenaVectorGrowTruncateReset)
{
    Arena arena;
    ArenaVector<std::uint32_t> v;
    EXPECT_TRUE(v.empty());
    for (std::uint32_t i = 0; i < 1000; ++i)
        v.push_back(arena, i);
    ASSERT_EQ(v.size(), 1000u);
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(v[i], i);

    v.truncate(10);
    EXPECT_EQ(v.size(), 10u);
    EXPECT_EQ(v[9], 9u);

    // Growth abandons old blocks inside the arena; after a wholesale
    // reset the vector must forget its (now dangling) buffer.
    arena.reset();
    v.resetStorage();
    EXPECT_TRUE(v.empty());
    v.push_back(arena, 7u);
    EXPECT_EQ(v[0], 7u);
}

TEST(Arena, PoolRecyclesExactSizeBlocks)
{
    ArenaPool pool;
    void *a = pool.allocate(48);
    pool.deallocate(a, 48);
    // Same-size request must come from the free list, not the bump
    // frontier.
    EXPECT_EQ(pool.allocate(48), a);
    // Different size misses the bucket.
    EXPECT_NE(pool.allocate(64), a);
}

TEST(Arena, PoolDisabledRoutesToHeap)
{
    ArenaPool pool;
    pool.enabled = false;
    void *p = pool.allocate(32);
    ASSERT_NE(p, nullptr);
    pool.deallocate(p, 32);
    EXPECT_EQ(pool.arena.bytesAllocated(), 0u);
    EXPECT_TRUE(pool.freeBySize.empty());
}

TEST(Arena, ChildArraySpillOwnership)
{
    Arena arena;
    std::vector<EClassId> ids = {1, 2, 3, 4, 5, 6, 7};
    ChildArray wide;
    wide.assignArena(arena, ids.data(), ids.size());
    EXPECT_TRUE(wide.spilled());
    EXPECT_TRUE(wide.arenaOwned());
    ASSERT_EQ(wide.size(), 7u);
    EXPECT_EQ(wide[6], 7u);

    // Copies always own their storage (plain heap spill).
    ChildArray copy = wide;
    EXPECT_TRUE(copy.spilled());
    EXPECT_FALSE(copy.arenaOwned());
    EXPECT_TRUE(copy == wide);

    // Growth from an arena-owned buffer lands on the heap and leaves
    // the arena block behind — no delete of arena memory.
    wide.push_back(8);
    EXPECT_FALSE(wide.arenaOwned());
    EXPECT_EQ(wide.size(), 8u);
    EXPECT_EQ(wide[7], 8u);

    // Inline-sized assignArena stays inline (no spill at all).
    ChildArray small;
    small.assignArena(arena, ids.data(), 3);
    EXPECT_FALSE(small.spilled());
    EXPECT_FALSE(small.arenaOwned());
}

/** Property sweep: field axioms on a grid of small rationals. */
class RationalFieldTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(RationalFieldTest, RingAxioms)
{
    auto [ai, bi] = GetParam();
    Rational a = Rational::make(ai, 3);
    Rational b = Rational::make(bi, 2);
    Rational c = Rational::make(ai + bi, 5);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a - a, Rational(0));
}

INSTANTIATE_TEST_SUITE_P(Grid, RationalFieldTest,
                         ::testing::Combine(::testing::Range(-4, 5),
                                            ::testing::Range(-4, 5)));

} // namespace
} // namespace isaria
