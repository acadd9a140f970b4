// Scratch-arena semantics: zero-filled leases, buffer recycling, flat
// steady-state growth, and the zero-allocation guarantee of the waveform
// trial loop. The multi-thread cases double as the TSan exercise for the
// shared plan cache and the thread-local arena.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/workspace.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace vab::dsp {
namespace {

TEST(Workspace, LeaseIsExactSizeAndZeroed) {
  Workspace& ws = Workspace::local();
  {
    auto r = ws.take_r(17);
    ASSERT_EQ(r->size(), 17u);
    for (double v : *r) EXPECT_EQ(v, 0.0);
    // Dirty the buffer so the recycling test below means something.
    for (auto& v : *r) v = 3.25;
  }
  {
    auto c = ws.take_c(9);
    ASSERT_EQ(c->size(), 9u);
    for (const auto& v : *c) EXPECT_EQ(v, cplx{});
  }
  {
    auto b = ws.take_b(33);
    ASSERT_EQ(b->size(), 33u);
    for (auto v : *b) EXPECT_EQ(v, 0u);
  }
}

TEST(Workspace, RecycledBufferComesBackZeroed) {
  Workspace& ws = Workspace::local();
  {
    auto r = ws.take_r(64);
    for (auto& v : *r) v = -1.0;
  }
  // Same size: must be served from the pool and freshly zeroed.
  auto r2 = ws.take_r(64);
  for (double v : *r2) EXPECT_EQ(v, 0.0);
}

TEST(Workspace, SteadyStateGrowthIsFlat) {
  Workspace& ws = Workspace::local();
  // Warm the pool at this size.
  { auto warm = ws.take_r(4096); }
  const std::uint64_t grown = ws.grow_bytes();
  const std::uint64_t borrows0 = ws.borrows();
  for (int i = 0; i < 100; ++i) {
    auto r = ws.take_r(4096);
    (*r)[0] = static_cast<double>(i);
  }
  EXPECT_EQ(ws.grow_bytes(), grown) << "identical takes must not grow the arena";
  EXPECT_EQ(ws.borrows(), borrows0 + 100);
}

TEST(Workspace, ShrinkingTakeDoesNotGrow) {
  Workspace& ws = Workspace::local();
  { auto big = ws.take_c(2048); }
  const std::uint64_t grown = ws.grow_bytes();
  { auto small = ws.take_c(16); }
  EXPECT_EQ(ws.grow_bytes(), grown);
}

TEST(Workspace, MoveOnlyLeaseTransfersOwnership) {
  Workspace& ws = Workspace::local();
  auto a = ws.take_r(8);
  (*a)[3] = 7.0;
  auto b = std::move(a);
  EXPECT_EQ((*b)[3], 7.0);
  EXPECT_EQ(b->size(), 8u);
}

// The acceptance criterion of the perf PR: after one warm-up trial, the
// Monte-Carlo steady state performs zero arena allocations. grow_bytes() is
// the per-thread byte counter behind the obs metric, so asserting it flat
// here pins the "zero steady-state allocations in the trial loop" guarantee.
TEST(Workspace, WaveformTrialLoopAllocatesNothingSteadyState) {
  sim::Scenario sc;
  sc.range_m = 100.0;
  common::Rng payload_rng(11);
  const bitvec payload = payload_rng.random_bits(64);

  auto run_one = [&](unsigned seed) {
    common::Rng rng(seed);
    sim::WaveformSimulator wsim(sc, rng);
    return wsim.run_trial(payload);
  };

  run_one(100);  // warm-up: grows the arena to the trial's high-water mark
  const std::uint64_t grown = Workspace::local().grow_bytes();
  for (unsigned t = 0; t < 5; ++t) run_one(101 + t);
  EXPECT_EQ(Workspace::local().grow_bytes(), grown)
      << "steady-state waveform trials must not allocate from the arena";
}

// Arenas are strictly thread-local; concurrent use from many threads must
// neither race (TSan job runs this) nor cross-pollinate buffers between
// threads.
TEST(Workspace, ThreadLocalArenasAreIsolated) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> borrows(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &borrows] {
      Workspace& ws = Workspace::local();
      const std::uint64_t before = ws.borrows();
      for (int i = 0; i < 50; ++i) {
        auto r = ws.take_r(256 + static_cast<std::size_t>(t));
        auto c = ws.take_c(128);
        (*r)[0] = static_cast<double>(t);
        (*c)[0] = cplx{static_cast<double>(i), 0.0};
      }
      borrows[t] = ws.borrows() - before;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(borrows[t], 100u) << "thread " << t;
}

TEST(Workspace, ConcurrentPlanCacheUseIsRaceFreeAndCorrect) {
  constexpr int kThreads = 8;
  // Sizes nothing else in this binary builds: the threads are released
  // together, so their first lookups race to build each plan, and every
  // thread must come back with the one shared plan per size. Then each
  // thread hammers the cache at shared sizes and checks a round trip; any
  // unsynchronized state would trip TSan here.
  constexpr std::size_t kFresh[] = {8, 32, 512, 8192, 16384};
  constexpr std::size_t kSizes = std::size(kFresh);
  std::atomic<int> arrived{0};
  std::vector<std::array<const FftPlan*, kSizes>> seen(kThreads);
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures, &arrived, &seen, &kFresh] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (std::size_t j = 0; j < kSizes; ++j) {
        const std::size_t s = (j + static_cast<std::size_t>(t)) % kSizes;
        seen[t][s] = &fft_plan(kFresh[s]);
      }
      common::Rng rng(static_cast<std::uint64_t>(200 + t));
      for (int i = 0; i < 20; ++i) {
        const std::size_t n = (i % 2 == 0) ? 256 : 1024;
        auto buf = Workspace::local().take_c(n);
        cvec x(n);
        for (auto& v : x) v = rng.complex_gaussian();
        *buf = x;
        const FftPlan& plan = fft_plan(n);
        plan.forward(buf->data());
        plan.inverse(buf->data());
        for (std::size_t k = 0; k < n; ++k)
          if (std::abs((*buf)[k] - x[k]) > 1e-9) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  for (std::size_t s = 0; s < kSizes; ++s) {
    const FftPlan* plan = &fft_plan(kFresh[s]);
    EXPECT_EQ(plan->size(), kFresh[s]);
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(seen[t][s], plan) << "size " << kFresh[s] << " thread " << t;
  }
}

}  // namespace
}  // namespace vab::dsp
