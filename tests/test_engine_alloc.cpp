// Allocation guard for the simulator: after warm-up, sim::run allocates
// nothing per step. This binary replaces every global operator new and
// delete with a counting pair over malloc/free, runs the same seeded run at
// 2,000 and at 20,000 steps, and requires the two to allocate the same
// number of times: anything that allocates per step (a collected branch
// vector, a copied successor state, a lookahead's branch lists) makes the
// longer run allocate more.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/schedulers/eat_avoider.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void* throwing(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return throwing(counted_alloc(n)); }
void* operator new[](std::size_t n) { return throwing(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return throwing(counted_alloc(n, a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return throwing(counted_alloc(n, a)); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gdp::sim {
namespace {

enum class Sched { kUniform, kEatAvoider };

/// Allocations made by one seeded run of `steps` steps, RunResult included.
std::uint64_t allocations_of_run(const algos::Algorithm& algo, const graph::Topology& t,
                                 Sched which, std::uint64_t steps) {
  std::unique_ptr<Scheduler> sched;
  if (which == Sched::kUniform) {
    sched = std::make_unique<RandomUniform>();
  } else {
    sched = std::make_unique<EatAvoider>(algo);
  }
  rng::Rng rng(11);
  EngineConfig cfg;
  cfg.max_steps = steps;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult r = run(algo, t, *sched, rng, cfg);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(r.steps, steps) << "the run must not stop early";
  return after - before;
}

TEST(EngineAllocations, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto box = std::make_unique<std::uint64_t>(7);
  EXPECT_GT(g_allocations.load(), before);
  EXPECT_EQ(*box, 7u);
}

TEST(EngineAllocations, NoneGrowWithTheStepCount) {
  const auto t = graph::classic_ring(3);
  for (const char* name : {"gdp2", "lr2"}) {
    const auto algo = algos::make_algorithm(name);
    for (const Sched which : {Sched::kUniform, Sched::kEatAvoider}) {
      SCOPED_TRACE(std::string(name) +
                   (which == Sched::kUniform ? " under uniform" : " under eat-avoider"));
      const std::uint64_t short_run = allocations_of_run(*algo, t, which, 2'000);
      const std::uint64_t long_run = allocations_of_run(*algo, t, which, 20'000);
      EXPECT_GT(short_run, 0u);  // the run's result and working vectors
      EXPECT_EQ(long_run, short_run);
    }
  }
}

}  // namespace
}  // namespace gdp::sim
