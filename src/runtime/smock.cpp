#include "runtime/smock.hpp"

#include <iterator>
#include <set>
#include <utility>

#include "util/logging.hpp"

namespace psf::runtime {

// ---- Component convenience methods (need the full SmockRuntime type) ------

void Component::call(const std::string& iface, Request request,
                     ResponseCallback done) {
  PSF_CHECK_MSG(runtime_ != nullptr, "component used before installation");
  runtime_->call(self_, iface, std::move(request), std::move(done));
}

void Component::charge_cpu(double units, std::function<void()> then) {
  PSF_CHECK(runtime_ != nullptr);
  runtime_->charge_cpu(runtime_->instance(self_).node, units,
                       std::move(then));
}

sim::Simulator& Component::simulator() {
  PSF_CHECK(runtime_ != nullptr);
  return runtime_->simulator();
}

const spec::ComponentDef& Component::definition() const {
  PSF_CHECK(runtime_ != nullptr);
  return *runtime_->instance(self_).def;
}

const planner::FactorBindings& Component::factors() const {
  PSF_CHECK(runtime_ != nullptr);
  return runtime_->instance(self_).factors;
}

net::NodeId Component::node() const {
  PSF_CHECK(runtime_ != nullptr);
  return runtime_->instance(self_).node;
}

SmockRuntime& Component::runtime() {
  PSF_CHECK(runtime_ != nullptr);
  return *runtime_;
}

// ---- installation -----------------------------------------------------

void SmockRuntime::install(
    const spec::ComponentDef& def, net::NodeId node,
    planner::FactorBindings factors, net::NodeId code_origin,
    std::function<void(util::Expected<RuntimeInstanceId>)> done) {
  if (!factories_.has(def.name)) {
    done(util::not_found("no factory for component '" + def.name + "'"));
    return;
  }
  const net::NodeId origin =
      code_origin.valid() ? code_origin : node;  // local install
  // A node keeps the code of every component ever installed on it, so a
  // repeat remote install pays only the zero-byte control round (latency,
  // not serialization) — the warm half of the access-path cache story.
  const auto code_key = std::make_pair(node.value, def.name);
  const bool code_cached = origin != node && code_present_.count(code_key) != 0;
  if (code_cached) ++stats_.code_cache_hits;
  const std::uint64_t code_bytes =
      (origin == node || code_cached) ? 0 : def.behaviors.code_size_bytes;

  // Download the component's code to the target node, then let the node
  // wrapper instantiate and initialize it. The drop handler turns a severed
  // or lossy download into a clean install failure instead of a hang.
  auto shared_done = std::make_shared<
      std::function<void(util::Expected<RuntimeInstanceId>)>>(std::move(done));
  send_bytes(
      origin, node, code_bytes,
      [this, &def, node, code_key, factors = std::move(factors),
       shared_done]() mutable {
        code_present_.insert(code_key);
        auto component = factories_.create(def.name);
        if (!component) {
          (*shared_done)(component.status());
          return;
        }
        const RuntimeInstanceId id = next_id_++;
        Instance inst;
        inst.id = id;
        inst.def = &def;
        inst.node = node;
        inst.factors = std::move(factors);
        inst.component = std::move(component).value();
        inst.component->runtime_ = this;
        inst.component->self_ = id;
        instances_.emplace(id, std::move(inst));
        ++stats_.installs;
        (*shared_done)(id);
      },
      [&def, shared_done](TransportError kind) {
        (*shared_done)(util::failed_precondition(
            std::string("code download for '") + def.name + "' " +
            transport_error_name(kind) + " in transit"));
      });
}

util::Status SmockRuntime::wire(RuntimeInstanceId client,
                                const std::string& iface,
                                RuntimeInstanceId server) {
  if (!exists(client)) return util::not_found("unknown client instance");
  if (!exists(server)) return util::not_found("unknown server instance");
  instances_.at(client).wires[iface] = server;
  return util::Status::ok();
}

util::Status SmockRuntime::start(RuntimeInstanceId id) {
  if (!exists(id)) return util::not_found("unknown instance");
  Instance& inst = instances_.at(id);
  if (inst.started) {
    return util::failed_precondition("instance already started");
  }
  inst.started = true;
  inst.component->on_start();
  return util::Status::ok();
}

util::Status SmockRuntime::stop(RuntimeInstanceId id) {
  if (!exists(id)) return util::not_found("unknown instance");
  Instance& inst = instances_.at(id);
  if (!inst.started) return util::failed_precondition("instance not started");
  inst.component->on_stop();
  inst.started = false;
  return util::Status::ok();
}

util::Status SmockRuntime::uninstall(RuntimeInstanceId id) {
  if (!exists(id)) return util::not_found("unknown instance");
  Instance& inst = instances_.at(id);
  if (inst.started) {
    inst.component->on_stop();
    inst.started = false;
  }
  instances_.erase(id);
  return util::Status::ok();
}

// ---- live migration -----------------------------------------------------

void SmockRuntime::transfer_state(RuntimeInstanceId from, RuntimeInstanceId to,
                                  std::function<void(util::Status)> done) {
  if (!exists(from)) {
    done(util::not_found("transfer_state: unknown source instance"));
    return;
  }
  if (!exists(to)) {
    done(util::not_found("transfer_state: unknown destination instance"));
    return;
  }
  auto shared_done =
      std::make_shared<std::function<void(util::Status)>>(std::move(done));
  // Quiesce first: the source flushes coherence queues / write-backs so the
  // snapshot it exports is complete. prepare_migration may complete
  // asynchronously (simulated flush RPCs), so everything below re-checks
  // liveness.
  instances_.at(from).component->prepare_migration([this, from, to,
                                                    shared_done] {
    if (!exists(from) || !exists(to)) {
      (*shared_done)(util::failed_precondition(
          "instance vanished during migration quiesce"));
      return;
    }
    Instance& src = instances_.at(from);
    auto snapshot = src.component->export_state();
    if (!snapshot.has_value()) {
      // Stateless component: nothing to move, cutover is free.
      (*shared_done)(util::Status::ok());
      return;
    }
    const net::NodeId src_node = src.node;
    const net::NodeId dst_node = instances_.at(to).node;
    auto state = std::make_shared<StateSnapshot>(std::move(*snapshot));
    send_bytes(
        src_node, dst_node, state->bytes,
        [this, to, state, shared_done] {
          if (!exists(to)) {
            (*shared_done)(util::failed_precondition(
                "migration target vanished while state was in flight"));
            return;
          }
          stats_.state_transfer_bytes += state->bytes;
          (*shared_done)(instances_.at(to).component->import_state(*state));
        },
        [shared_done](TransportError kind) {
          (*shared_done)(util::failed_precondition(
              std::string("state transfer ") + transport_error_name(kind) +
              " in transit"));
        });
  });
}

void SmockRuntime::migrate(
    RuntimeInstanceId id, net::NodeId to_node, net::NodeId code_origin,
    sim::Duration drain,
    std::function<void(util::Expected<RuntimeInstanceId>)> done) {
  if (!exists(id)) {
    done(util::not_found("migrate: unknown instance"));
    return;
  }
  if (!to_node.valid() || to_node.value >= network_.node_count() ||
      !network_.node(to_node).up) {
    done(util::failed_precondition("migrate: destination node unusable"));
    return;
  }
  Instance& old_inst = instances_.at(id);
  if (old_inst.node == to_node) {
    done(id);  // already there — cutover to itself is a no-op
    return;
  }
  const spec::ComponentDef& def = *old_inst.def;
  auto shared_done = std::make_shared<
      std::function<void(util::Expected<RuntimeInstanceId>)>>(std::move(done));
  install(
      def, to_node, old_inst.factors, code_origin,
      [this, id, drain, shared_done](util::Expected<RuntimeInstanceId> result) {
        if (!result.has_value()) {
          (*shared_done)(result.status());
          return;
        }
        const RuntimeInstanceId new_id = result.value();
        if (!exists(id)) {
          uninstall(new_id);
          (*shared_done)(util::failed_precondition(
              "migrate: source instance vanished during install"));
          return;
        }
        {
          Instance& old_ref = instances_.at(id);
          Instance& new_ref = instances_.at(new_id);
          // The replacement inherits the plan's view of the old instance:
          // outbound wires, effective properties, and load reservations all
          // describe the component, not the node it sat on.
          new_ref.effective = old_ref.effective;
          new_ref.downstream_latency_s = old_ref.downstream_latency_s;
          new_ref.reserved_load_rps = old_ref.reserved_load_rps;
          new_ref.wires = old_ref.wires;
        }
        // Start BEFORE the state lands so on_start registrations (e.g. a
        // view registering its replica with the coherence directory) exist
        // when import_state merges the snapshot in.
        const util::Status started = start(new_id);
        if (!started.is_ok()) {
          uninstall(new_id);
          (*shared_done)(started);
          return;
        }
        transfer_state(id, new_id, [this, id, new_id, drain,
                                    shared_done](util::Status status) {
          if (!status.is_ok()) {
            // State never arrived: abort the cutover and leave the old
            // instance serving — migration is all-or-nothing.
            uninstall(new_id);
            (*shared_done)(status);
            return;
          }
          ++stats_.migrations;
          // Cutover: the caller rewires inbound traffic to new_id now. The
          // old copy keeps answering stragglers for the drain window, then
          // disappears; anything later gets kDeadTarget and the retry layer
          // rebinds.
          (*shared_done)(new_id);
          sim_.schedule(drain, [this, id] {
            if (exists(id)) uninstall(id);
          });
        });
      });
}

std::vector<RuntimeInstanceId> SmockRuntime::crash_node(net::NodeId node) {
  std::vector<RuntimeInstanceId> victims = instances_on(node);
  for (RuntimeInstanceId id : victims) {
    // A crash skips on_stop (no chance to flush state) and tombstones the
    // instance — see Instance::crashed for why the object is kept.
    Instance& inst = instances_.at(id);
    inst.crashed = true;
    inst.started = false;
  }
  // The machine is wiped: staged component code does not survive a crash.
  for (auto it = code_present_.begin(); it != code_present_.end();) {
    it = it->first == node.value ? code_present_.erase(it) : std::next(it);
  }
  if (!victims.empty()) {
    PSF_WARN() << "node " << network_.node(node).name << " crashed; "
               << victims.size() << " instance(s) lost";
  }
  return victims;
}

bool SmockRuntime::has_dangling_wires(RuntimeInstanceId id) const {
  std::vector<RuntimeInstanceId> stack{id};
  std::set<RuntimeInstanceId> visited;
  while (!stack.empty()) {
    const RuntimeInstanceId current = stack.back();
    stack.pop_back();
    if (!visited.insert(current).second) continue;
    if (!exists(current)) return true;
    for (const auto& [iface, target] : instances_.at(current).wires) {
      stack.push_back(target);
    }
  }
  return false;
}

Instance& SmockRuntime::instance(RuntimeInstanceId id) {
  auto it = instances_.find(id);
  PSF_CHECK_MSG(it != instances_.end(), "unknown instance id");
  return it->second;
}

const Instance& SmockRuntime::instance(RuntimeInstanceId id) const {
  auto it = instances_.find(id);
  PSF_CHECK_MSG(it != instances_.end(), "unknown instance id");
  return it->second;
}

std::vector<RuntimeInstanceId> SmockRuntime::instances_on(
    net::NodeId node) const {
  std::vector<RuntimeInstanceId> out;
  for (const auto& [id, inst] : instances_) {
    if (inst.node == node && !inst.crashed) out.push_back(id);
  }
  return out;
}

// ---- request routing ---------------------------------------------------

void SmockRuntime::call(RuntimeInstanceId from, const std::string& iface,
                        Request request, ResponseCallback done) {
  Instance& src = instance(from);
  auto wire_it = src.wires.find(iface);
  if (wire_it == src.wires.end()) {
    done(Response::failure("instance '" + src.def->name +
                           "' has no wire for interface '" + iface + "'"));
    return;
  }
  if (!exists(wire_it->second)) {
    done(Response::transport_failure(
        TransportError::kDeadTarget,
        "wire for '" + iface + "' points at a removed instance"));
    return;
  }
  ++src.stats.requests_forwarded;
  src.stats.bytes_sent += request.wire_bytes;
  const RuntimeInstanceId target = wire_it->second;
  const net::NodeId from_node = src.node;
  const std::uint64_t bytes = request.wire_bytes;
  // The callback is shared between the delivery and drop paths; exactly one
  // of them fires.
  auto shared_done = std::make_shared<ResponseCallback>(std::move(done));
  send_bytes(
      from_node, instance(target).node, bytes,
      [this, target, request = std::move(request), from_node,
       shared_done]() mutable {
        deliver(target, std::move(request), from_node,
                std::move(*shared_done));
      },
      [shared_done](TransportError kind) {
        (*shared_done)(Response::transport_failure(
            kind, std::string("request ") + transport_error_name(kind) +
                      " in transit"));
      });
}

void SmockRuntime::invoke_from_node(net::NodeId from, RuntimeInstanceId target,
                                    Request request, ResponseCallback done) {
  if (!exists(target)) {
    done(Response::transport_failure(TransportError::kDeadTarget,
                                     "target instance does not exist"));
    return;
  }
  const std::uint64_t bytes = request.wire_bytes;
  auto shared_done = std::make_shared<ResponseCallback>(std::move(done));
  send_bytes(
      from, instance(target).node, bytes,
      [this, target, request = std::move(request), from,
       shared_done]() mutable {
        deliver(target, std::move(request), from, std::move(*shared_done));
      },
      [shared_done](TransportError kind) {
        (*shared_done)(Response::transport_failure(
            kind, std::string("request ") + transport_error_name(kind) +
                      " in transit"));
      });
}

void SmockRuntime::invoke_from_node(net::NodeId from, RuntimeInstanceId target,
                                    Request request, ResponseCallback done,
                                    sim::Duration timeout) {
  if (timeout.nanos() <= 0) {
    invoke_from_node(from, target, std::move(request), std::move(done));
    return;
  }
  struct Pending {
    bool settled = false;
    sim::EventId timer = 0;
    ResponseCallback done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  pending->timer = sim_.schedule(timeout, [this, pending] {
    if (pending->settled) return;
    pending->settled = true;
    ++stats_.invoke_timeouts;
    pending->done(Response::transport_failure(
        TransportError::kTimeout, "invocation deadline expired"));
  });
  invoke_from_node(from, target, std::move(request),
                   [this, pending](Response response) {
                     if (pending->settled) return;  // timed out; discard
                     pending->settled = true;
                     sim_.cancel(pending->timer);
                     pending->done(std::move(response));
                   });
}

void SmockRuntime::deliver(RuntimeInstanceId target, Request request,
                           net::NodeId reply_to, ResponseCallback done) {
  if (!exists(target)) {
    done(Response::transport_failure(TransportError::kDeadTarget,
                                     "target instance vanished in flight"));
    return;
  }
  Instance& dst = instance(target);
  if (!dst.started) {
    done(Response::transport_failure(
        TransportError::kDeadTarget,
        "instance '" + dst.def->name + "' not started"));
    return;
  }
  ++stats_.requests_delivered;
  ++dst.stats.requests_handled;
  dst.stats.bytes_received += request.wire_bytes;

  const net::NodeId target_node = dst.node;
  charge_cpu(
      target_node, dst.def->behaviors.cpu_per_request,
      [this, target, request = std::move(request), reply_to, target_node,
       done = std::move(done)]() mutable {
        if (!exists(target)) {
          done(Response::failure("target instance vanished in flight"));
          return;
        }
        Instance& inst = instance(target);
        inst.component->handle_request(
            request,
            [this, reply_to, target_node,
             done = std::move(done)](Response response) mutable {
              // Ship the response back to the caller's node. A dropped
              // response fails the caller fast (the op may have executed —
              // at-least-once semantics, see DESIGN.md §8).
              const std::uint64_t bytes = response.wire_bytes;
              auto shared_done =
                  std::make_shared<ResponseCallback>(std::move(done));
              send_bytes(
                  target_node, reply_to, bytes,
                  [response = std::move(response), shared_done]() mutable {
                    (*shared_done)(std::move(response));
                  },
                  [shared_done](TransportError kind) {
                    (*shared_done)(Response::transport_failure(
                        kind, std::string("response ") +
                                  transport_error_name(kind) +
                                  " in transit"));
                  });
            });
      });
}

// ---- low-level primitives ---------------------------------------------

namespace {

// Hop-by-hop transfer state. Each scheduled event holds the shared_ptr, so
// the state lives exactly until the final hop completes (no reference
// cycles — the state does not hold its own continuation).
struct Transfer {
  SmockRuntime* runtime;
  std::vector<net::LinkId> links;
  std::uint64_t bytes;
  std::function<void()> delivered;
  std::function<void(TransportError)> dropped;
};

}  // namespace

void SmockRuntime::send_bytes(net::NodeId from, net::NodeId to,
                              std::uint64_t bytes,
                              std::function<void()> delivered,
                              std::function<void(TransportError)> dropped) {
  if (from == to) {
    // Local delivery: same-node IPC is negligible next to network costs.
    // (A crashed node cannot source traffic in the first place: nothing
    // hosted there still runs.)
    delivered();
    return;
  }
  // The lazy route row is shared until the next network mutation, which
  // drops it, so the transfer copies the links it walks. Between distinct
  // endpoints an empty row entry means unreachable, down endpoints included.
  const net::Route* route = network_.cached_route(from, to);
  if (route->links.empty()) {
    PSF_WARN() << "send_bytes: no route from " << network_.node(from).name
               << " to " << network_.node(to).name << "; dropping";
    ++stats_.messages_unroutable;
    if (dropped) dropped(TransportError::kUnreachable);
    return;
  }
  ++stats_.messages_sent;
  stats_.bytes_transferred += bytes;

  auto transfer = std::make_shared<Transfer>(Transfer{
      this, route->links, bytes, std::move(delivered), std::move(dropped)});

  // Walk the route hop by hop; each hop waits for the link to be free,
  // serializes the message, then incurs the propagation latency. Link state
  // is re-checked at each hop (the route was chosen at send time, but links
  // may flap mid-flight), and lossy links draw per-hop from the runtime's
  // seeded fault RNG.
  struct Step {
    static void run(const std::shared_ptr<Transfer>& t, std::size_t hop) {
      if (hop == t->links.size()) {
        t->delivered();
        return;
      }
      SmockRuntime& rt = *t->runtime;
      const net::Link& link = rt.network().link(t->links[hop]);
      const bool severed = !link.up || !rt.network().node_up(link.a) ||
                           !rt.network().node_up(link.b);
      if (severed || (link.loss > 0.0 && rt.fault_rng_.bernoulli(link.loss))) {
        ++rt.stats_.messages_dropped;
        if (t->dropped) t->dropped(TransportError::kDropped);
        return;
      }
      const sim::Time arrival = rt.reserve_link(t->links[hop], t->bytes);
      rt.simulator().schedule_at(arrival,
                                 [t, hop]() { Step::run(t, hop + 1); });
    }
  };
  Step::run(transfer, 0);
}

sim::Time SmockRuntime::reserve_link(net::LinkId lid, std::uint64_t bytes) {
  PSF_CHECK(lid.valid() && lid.value < network_.link_count());
  if (link_free_.size() <= lid.value) {
    link_free_.resize(network_.link_count(), sim::Time::zero());
  }
  const net::Link& link = network_.link(lid);
  const double serialize_s =
      static_cast<double>(bytes) * 8.0 / link.bandwidth_bps;
  const sim::Time now = sim_.now();
  sim::Time start = link_free_[lid.value];
  if (start < now) start = now;
  const sim::Time tx_done = start + sim::Duration::from_seconds(serialize_s);
  link_free_[lid.value] = tx_done;
  if (link_busy_s_.size() <= lid.value) {
    link_busy_s_.resize(network_.link_count(), 0.0);
  }
  link_busy_s_[lid.value] += serialize_s;
  return tx_done + link.latency;
}

double SmockRuntime::node_busy_seconds(net::NodeId node) const {
  if (!node.valid() || node.value >= node_busy_s_.size()) return 0.0;
  return node_busy_s_[node.value];
}

double SmockRuntime::link_busy_seconds(net::LinkId link) const {
  if (!link.valid() || link.value >= link_busy_s_.size()) return 0.0;
  return link_busy_s_[link.value];
}

void SmockRuntime::charge_cpu(net::NodeId node, double units,
                              std::function<void()> done) {
  PSF_CHECK(node.valid() && node.value < network_.node_count());
  if (node_cpu_free_.size() <= node.value) {
    node_cpu_free_.resize(network_.node_count(), sim::Time::zero());
  }
  const double seconds = units / network_.node(node).cpu_capacity;
  const sim::Time now = sim_.now();
  sim::Time start = node_cpu_free_[node.value];
  if (start < now) start = now;
  const sim::Time finish = start + sim::Duration::from_seconds(seconds);
  node_cpu_free_[node.value] = finish;
  if (node_busy_s_.size() <= node.value) {
    node_busy_s_.resize(network_.node_count(), 0.0);
  }
  node_busy_s_[node.value] += seconds;
  sim_.schedule_at(finish, std::move(done));
}

}  // namespace psf::runtime
