// Serial event engine allocation gate (EXPERIMENTS.md E10).
//
// Runs one event-chain microworkload (256 chains x 800 rounds) twice: on a
// std::function baseline engine that replicates the seed simulator, and on
// sim::Simulator with its util::SmallFn callbacks. Counts every heap
// allocation in the process and reports allocator calls per event for both.
//
// Writes BENCH_sim_allocs.json and exits 1 unless the Simulator makes at
// least 10x fewer allocations per event than the baseline. Registered as a
// tier-1 ctest; takes no arguments.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "bench_json.hpp"
#include "sim/simulator.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every operator-new in the process so the event hot path's allocator
// traffic can be measured directly, not inferred.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// ---- seed-behavior baseline event engine -----------------------------------
// Replicates the pre-overhaul simulator: std::function callbacks (heap
// allocation for captures over ~16 bytes) and an unbounded per-id tombstone
// vector. Used only to measure allocator calls per event for the reduction
// gate.

class BaselineEngine {
 public:
  using Fn = std::function<void()>;

  void schedule_at(std::int64_t when, Fn fn) {
    queue_.push(Event{when, next_id_++, std::move(fn)});
    cancelled_.push_back(false);  // grows forever, like the seed
  }

  std::int64_t now() const { return now_; }

  std::size_t run() {
    std::size_t executed = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (cancelled_[ev.id]) continue;
      now_ = ev.when;
      ev.fn();
      ++executed;
    }
    return executed;
  }

 private:
  struct Event {
    std::int64_t when;
    std::uint64_t id;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  std::int64_t now_ = 0;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<bool> cancelled_;
};

// The event-chain microworkload: `chains` concurrent chains, each event
// re-scheduling its successor with a 32-byte capture (four 8-byte values —
// the shape of the runtime's per-hop transfer lambdas, which std::function
// heap-allocates and SmallFn stores inline).
template <typename Engine, typename Schedule>
std::uint64_t run_chain_workload(Engine& engine, Schedule schedule,
                                 std::size_t chains, std::size_t rounds) {
  struct Chain {
    std::uint64_t remaining;
    std::uint64_t counter = 0;
  };
  std::vector<Chain> state(chains, Chain{rounds});
  std::function<void(std::size_t)> step_fn;  // shared driver, not counted
  step_fn = [&](std::size_t c) {
    Chain* chain = &state[c];
    if (chain->remaining == 0) return;
    --chain->remaining;
    ++chain->counter;
    const std::uint64_t a = chain->counter;
    Chain* const p = chain;
    // 32-byte capture: the hot-path allocation being measured (heap for
    // std::function, inline for SmallFn).
    schedule(engine.now() + 1000, [c, a, p, &step_fn] {
      p->counter ^= a;
      step_fn(c);
    });
  };
  for (std::size_t c = 0; c < chains; ++c) step_fn(c);
  return engine.run();
}

struct AllocMeasurement {
  double baseline_per_event = 0.0;
  double engine_per_event = 0.0;
  double reduction = 0.0;
};

AllocMeasurement measure_allocs(std::size_t chains, std::size_t rounds) {
  AllocMeasurement m;
  {
    BaselineEngine engine;
    const std::uint64_t before = g_allocs.load();
    const std::uint64_t executed = run_chain_workload(
        engine,
        [&engine](std::int64_t when, auto fn) {
          engine.schedule_at(when, std::move(fn));
        },
        chains, rounds);
    m.baseline_per_event =
        static_cast<double>(g_allocs.load() - before) /
        static_cast<double>(executed);
  }
  {
    psf::sim::Simulator engine;
    const std::uint64_t before = g_allocs.load();
    std::uint64_t executed = 0;
    {
      struct Adapter {
        psf::sim::Simulator& sim;
        std::int64_t now() const { return sim.now().nanos(); }
        std::size_t run() { return sim.run(); }
      } adapter{engine};
      executed = run_chain_workload(
          adapter,
          [&engine](std::int64_t when, auto fn) {
            engine.schedule_at(psf::sim::Time::from_nanos(when),
                               std::move(fn));
          },
          chains, rounds);
    }
    m.engine_per_event = static_cast<double>(g_allocs.load() - before) /
                         static_cast<double>(executed);
  }
  const double denom = m.engine_per_event > 1e-9 ? m.engine_per_event : 1e-9;
  m.reduction = m.baseline_per_event / denom;
  if (m.reduction > 1e6) m.reduction = 1e6;  // effectively allocation-free
  return m;
}

}  // namespace

int main() {
  const AllocMeasurement allocs =
      measure_allocs(/*chains=*/256, /*rounds=*/800);
  std::printf("sim_allocs: allocs/event %.3f -> %.5f (%.0fx)\n",
              allocs.baseline_per_event, allocs.engine_per_event,
              allocs.reduction);

  psf::bench::JsonResult json("sim_allocs");
  json.add("alloc_baseline_per_event", allocs.baseline_per_event);
  json.add("alloc_engine_per_event", allocs.engine_per_event);
  json.add("alloc_reduction", allocs.reduction);
  json.add("alloc_gate_passed", allocs.reduction >= 10.0);
  json.write();

  if (allocs.reduction < 10.0) {
    std::fprintf(stderr, "sim_allocs: alloc reduction %.1fx below 10x gate\n",
                 allocs.reduction);
    return 1;
  }
  return 0;
}
