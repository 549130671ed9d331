// Serial event engine and request path allocation gates (EXPERIMENTS.md
// E10).
//
// 1. Runs one event-chain microworkload (256 chains x 800 rounds) twice: on
//    a std::function baseline engine that replicates the seed simulator,
//    and on sim::Simulator with its util::SmallFn callbacks. Reports
//    allocator calls per event for both.
// 2. Runs 2-hop echo RPCs through SmockRuntime::invoke_from_node (request
//    leg, CPU charge, handler, response leg) after a warm-up and reports
//    allocator calls per RPC: the runtime's pooled call and transfer
//    records should leave the steady-state path allocation-free.
// 3. Runs the DF mail path (MailClient -> MailServer over one link) after a
//    warm-up: alternating sends of 64-byte plaintext bodies and 16-message
//    receives, and reports allocator calls per op. Message bodies are
//    shared, not copied, between the request, the inbox, the sent folder,
//    the coherence payload and each receive result.
//
// Counts every heap allocation in the process (alloc_counter.hpp). Writes
// BENCH_sim_allocs.json and exits 1 unless the Simulator makes at least 10x
// fewer allocations per event than the baseline, an echo RPC makes at most
// 0.1 allocations, and a mail op makes at most 10 (ROADMAP item 4).
// Registered as a tier-1 ctest; takes no arguments.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_json.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "net/network.hpp"
#include "runtime/smock.hpp"
#include "sim/simulator.hpp"
#include "spec/builder.hpp"

namespace {

using psf::bench::heap_allocations;

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
    const std::uint64_t before = heap_allocations();
    const std::uint64_t executed = run_chain_workload(
        engine,
        [&engine](std::int64_t when, auto fn) {
          engine.schedule_at(when, std::move(fn));
        },
        chains, rounds);
    m.baseline_per_event =
        static_cast<double>(heap_allocations() - before) /
        static_cast<double>(executed);
  }
  {
    psf::sim::Simulator engine;
    const std::uint64_t before = heap_allocations();
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
    m.engine_per_event = static_cast<double>(heap_allocations() - before) /
                         static_cast<double>(executed);
  }
  const double denom = m.engine_per_event > 1e-9 ? m.engine_per_event : 1e-9;
  m.reduction = m.baseline_per_event / denom;
  if (m.reduction > 1e6) m.reduction = 1e6;  // effectively allocation-free
  return m;
}

// ---- request path: 2-hop echo RPCs through SmockRuntime ---------------------

// Answers every request synchronously with a body-less 64-byte response, so
// the only allocations left are the runtime's own.
class EchoComponent : public psf::runtime::Component {
 public:
  void handle_request(const psf::runtime::Request& /*request*/,
                      psf::runtime::ResponseCallback done) override {
    psf::runtime::Response response;
    response.wire_bytes = 64;
    done(std::move(response));
  }
};

double measure_rpc_allocs(std::size_t warmup, std::size_t rpcs) {
  using namespace psf;
  sim::Simulator sim;
  net::Network network;
  const net::NodeId client = network.add_node("client", 1e6);
  const net::NodeId router = network.add_node("router", 1e6);
  const net::NodeId server = network.add_node("server", 1e6);
  network.add_link(client, router, 100e6, sim::Duration::from_micros(200));
  network.add_link(router, server, 100e6, sim::Duration::from_micros(200));
  runtime::SmockRuntime rt(sim, network);
  const spec::ServiceSpec spec = spec::SpecBuilder("Echo")
                                     .interface("Api", {})
                                     .component("Echo")
                                     .implements("Api", {})
                                     .cpu_per_request(10)
                                     .done()
                                     .build();
  PSF_CHECK(rt.factories()
                .register_type("Echo",
                               [] { return std::make_unique<EchoComponent>(); })
                .is_ok());
  runtime::RuntimeInstanceId echo = 0;
  rt.install(*spec.find_component("Echo"), server, {}, server,
             [&echo](util::Expected<runtime::RuntimeInstanceId> id) {
               PSF_CHECK(id.has_value());
               echo = *id;
             });
  PSF_CHECK(rt.start(echo).is_ok());

  std::size_t answered = 0;
  const auto one_rpc = [&] {
    runtime::Request request;
    request.op = "echo";
    request.wire_bytes = 256;
    rt.invoke_from_node(client, echo, std::move(request),
                        [&answered](runtime::Response response) {
                          PSF_CHECK(response.ok);
                          ++answered;
                        });
    sim.run();
  };
  for (std::size_t i = 0; i < warmup; ++i) one_rpc();
  const std::uint64_t before = heap_allocations();
  for (std::size_t i = 0; i < rpcs; ++i) one_rpc();
  const std::uint64_t allocs = heap_allocations() - before;
  PSF_CHECK(answered == warmup + rpcs);
  return static_cast<double>(allocs) / static_cast<double>(rpcs);
}

// ---- mail path: DF MailClient -> MailServer --------------------------------

// The hq_small_reads shape of the mail service: the client component at the
// user's node, the home server one link away, plaintext 64-byte bodies and
// one 16-message receive per send (self-mail, so every receive after the
// warm-up returns a full batch). Returns allocator calls per op.
double measure_mail_allocs(std::size_t warmup, std::size_t ops) {
  using namespace psf;
  sim::Simulator sim;
  net::Network network;
  const net::NodeId user = network.add_node("user", 1e6);
  const net::NodeId home = network.add_node("home", 1e6);
  network.add_link(user, home, 100e6, sim::Duration::from_micros(500));
  runtime::SmockRuntime rt(sim, network);
  auto config = std::make_shared<mail::MailServiceConfig>();
  PSF_CHECK(mail::register_mail_factories(rt.factories(), config).is_ok());
  const spec::ServiceSpec spec = mail::mail_service_spec();
  const auto install = [&](const char* type, net::NodeId node) {
    runtime::RuntimeInstanceId id = 0;
    rt.install(*spec.find_component(type), node, {}, home,
               [&id](util::Expected<runtime::RuntimeInstanceId> installed) {
                 PSF_CHECK(installed.has_value());
                 id = *installed;
               });
    sim.run();
    PSF_CHECK(rt.start(id).is_ok());
    return id;
  };
  const runtime::RuntimeInstanceId server = install("MailServer", home);
  const runtime::RuntimeInstanceId client = install("MailClient", user);
  PSF_CHECK(rt.wire(client, "ServerInterface", server).is_ok());

  std::uint64_t next_id = 1;
  std::size_t answered = 0;
  std::size_t received = 0;
  const auto one_op = [&](std::size_t i) {
    runtime::Request request;
    if (i % 2 == 0) {
      auto body = std::make_shared<mail::SendBody>();
      body->message.id = next_id++;
      body->message.from = "u1";
      body->message.to = "u1";
      body->message.subject = "m" + std::to_string(body->message.id);
      body->message.plaintext.assign(
          64, static_cast<std::uint8_t>(body->message.id));
      request.op = mail::ops::kSend;
      request.wire_bytes = mail::send_wire_bytes(body->message);
      request.body = std::move(body);
    } else {
      auto body = std::make_shared<mail::ReceiveBody>();
      body->user = "u1";
      body->max_messages = 16;
      request.op = mail::ops::kReceive;
      request.wire_bytes = 256;
      request.body = std::move(body);
    }
    request.principal = "u1";
    rt.invoke_from_node(user, client, std::move(request),
                        [&answered, &received](runtime::Response response) {
                          PSF_CHECK(response.ok);
                          if (const auto* result =
                                  runtime::body_as<mail::ReceiveResultBody>(
                                      response)) {
                            received += result->messages.size();
                          }
                          ++answered;
                        });
    sim.run();
  };
  for (std::size_t i = 0; i < warmup; ++i) one_op(i);
  const std::size_t received_before = received;
  const std::uint64_t before = heap_allocations();
  for (std::size_t i = warmup; i < warmup + ops; ++i) one_op(i);
  const std::uint64_t allocs = heap_allocations() - before;
  PSF_CHECK(answered == warmup + ops);
  PSF_CHECK(received - received_before == 16 * (ops / 2));
  return static_cast<double>(allocs) / static_cast<double>(ops);
}

}  // namespace

int main() {
  const AllocMeasurement allocs =
      measure_allocs(/*chains=*/256, /*rounds=*/800);
  std::printf("sim_allocs: allocs/event %.3f -> %.5f (%.0fx)\n",
              allocs.baseline_per_event, allocs.engine_per_event,
              allocs.reduction);

  const double rpc_allocs =
      measure_rpc_allocs(/*warmup=*/256, /*rpcs=*/10'000);
  std::printf("sim_allocs: allocs per 2-hop echo RPC %.5f (gate <= 0.1)\n",
              rpc_allocs);

  const double mail_allocs = measure_mail_allocs(/*warmup=*/256,
                                                 /*ops=*/10'000);
  std::printf("sim_allocs: allocs per DF mail op %.3f (gate <= 10)\n",
              mail_allocs);

  psf::bench::JsonResult json("sim_allocs");
  json.add("alloc_baseline_per_event", allocs.baseline_per_event);
  json.add("alloc_engine_per_event", allocs.engine_per_event);
  json.add("alloc_reduction", allocs.reduction);
  json.add("alloc_gate_passed", allocs.reduction >= 10.0);
  json.add("rpc_allocs_per_call", rpc_allocs);
  json.add("mail_allocs_per_op", mail_allocs);
  json.write();

  int status = 0;
  if (allocs.reduction < 10.0) {
    std::fprintf(stderr, "sim_allocs: alloc reduction %.1fx below 10x gate\n",
                 allocs.reduction);
    status = 1;
  }
  if (rpc_allocs > 0.1) {
    std::fprintf(stderr,
                 "sim_allocs: %.3f allocs per echo RPC above the 0.1 gate\n",
                 rpc_allocs);
    status = 1;
  }
  if (mail_allocs > 10.0) {
    std::fprintf(stderr,
                 "sim_allocs: %.3f allocs per mail op above the 10 gate\n",
                 mail_allocs);
    status = 1;
  }
  return status;
}
