// detlint:ordered-output — search visit order decides plan tie-breaks.
// detlint:allow-file(DET004 PlanRequest::deadline_budget is a wall-clock anytime budget by design)
#include "planner/planner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "planner/cluster.hpp"
#include "planner/hierarchy.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace psf::planner {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Round-trip cost of one request/response exchange over a route.
double edge_rtt_seconds(const net::Network& network, const net::Route& route,
                        std::uint64_t bytes_request,
                        std::uint64_t bytes_response) {
  double total = 0.0;
  for (net::LinkId lid : route.links) {
    const net::Link& link = network.link(lid);
    total += 2.0 * link.latency.seconds();
    total += static_cast<double>(bytes_request) * 8.0 / link.bandwidth_bps;
    total += static_cast<double>(bytes_response) * 8.0 / link.bandwidth_bps;
  }
  return total;
}

// Lexicographic plan score: lower is better on every field.
struct Score {
  double primary = kInfinity;
  double secondary = kInfinity;
  double tertiary = kInfinity;

  bool operator<(const Score& other) const {
    if (primary != other.primary) return primary < other.primary;
    if (secondary != other.secondary) return secondary < other.secondary;
    return tertiary < other.tertiary;
  }
};

Score score_plan(Objective objective, const PlanMetrics& m) {
  switch (objective) {
    case Objective::kMinLatency:
      return {m.expected_latency_s, m.deployment_cost_s,
              static_cast<double>(m.new_components)};
    case Objective::kMinDeploymentCost:
      return {m.deployment_cost_s + static_cast<double>(m.new_components),
              m.expected_latency_s, 0.0};
    case Objective::kMaxCapacity:
      return {-m.min_headroom, m.expected_latency_s, m.deployment_cost_s};
  }
  return {};
}

class Search {
 public:
  // `candidate_nodes` restricts where NEW components may be placed (existing
  // instances are reachable regardless): every node, a hierarchical
  // refinement's cluster set, or a repair's restricted set. `incumbent` is
  // the best primary score of the searches that ran before this one on the
  // same request; it prunes this search and is lowered by its plans.
  // `deadline` (when enabled) turns the search anytime: once any incumbent
  // exists, passing the deadline unwinds the DFS and returns the best plan
  // found so far.
  Search(const spec::ServiceSpec& spec, const EnvironmentView& env,
         const spec::ImplementerIndex& index, const PlanRequest& request,
         const std::vector<ExistingInstance>& existing, double& incumbent,
         SearchStats& stats, const std::vector<net::NodeId>& candidate_nodes,
         std::chrono::steady_clock::time_point deadline, bool has_deadline)
      : spec_(spec),
        env_(env),
        network_(env.network()),
        index_(index),
        request_(request),
        existing_(existing),
        incumbent_(incumbent),
        stats_(stats),
        bound_pruning_(request.bound_pruning),
        candidate_nodes_(candidate_nodes),
        deadline_(deadline),
        has_deadline_(has_deadline) {
    node_load_.assign(network_.node_count(), 0.0);
    link_load_.assign(network_.link_count(), 0.0);
    existing_added_rps_.assign(existing.size(), 0.0);
  }

  // Places the entry component: each implementer in declaration order, at
  // the client node when pinned, else at every candidate node in order.
  void run() {
    if (request_.max_depth < 1) return;
    auto it = index_.find(request_.interface_name);
    if (it == index_.end()) return;
    const std::vector<net::NodeId> pinned{request_.client_node};
    const std::vector<net::NodeId>& entry_nodes =
        request_.pin_entry_to_client ? pinned : candidate_nodes_;
    for (const spec::ImplementerRef& ref : it->second) {
      for (net::NodeId node : entry_nodes) {
        if (expired()) return;
        try_new(*ref.component, *ref.linkage, node, request_.interface_name,
                request_.required_properties, request_.client_node,
                request_.request_rate_rps, /*depth=*/1, kNoParent,
                /*discount=*/1.0, /*committed=*/0.0,
                [this](InstanceId root, double padded_s, double warm_s) {
                  finish_plan(root, padded_s, warm_s);
                });
      }
    }
  }

  std::optional<DeploymentPlan> take_best() { return std::move(best_); }
  const Score& best_score() const { return best_score_; }

 private:
  using Requirements =
      std::vector<std::pair<std::string, spec::PropertyValue>>;
  // sink(root, padded, warm): both values are edge_rtt + subtree latency as
  // seen from the caller. `padded` applies the cold-view discount to newly
  // deployed views and drives plan *scoring*; `warm` uses true RRFs and is
  // what gets recorded (and later reused as an existing instance's
  // downstream latency once its cache is warm).
  using Sink = std::function<void(InstanceId, double, double)>;

  // A solved child edge, kept for transparent property inheritance.
  struct ChildRecord {
    InstanceId root;
    std::string iface;
    const net::Route* route_to_parent;  // from the child's node to `parent`
  };

  // ---- value resolution ---------------------------------------------------

  spec::PropertyValue resolve(const spec::ValueExpr& expr,
                              const spec::Environment& node_env,
                              const FactorBindings& factors) const {
    switch (expr.kind) {
      case spec::ValueExpr::Kind::kLiteral:
        return expr.literal;
      case spec::ValueExpr::Kind::kEnvRef:
        if (expr.env_scope == spec::EnvScope::kNode) {
          return node_env.get(expr.ref_name).value_or(spec::PropertyValue());
        }
        return {};  // link refs are not meaningful at placement time
      case spec::ValueExpr::Kind::kFactorRef: {
        auto it = factors.values.find(expr.ref_name);
        return it == factors.values.end() ? spec::PropertyValue()
                                          : it->second;
      }
      case spec::ValueExpr::Kind::kAny:
        return {};
    }
    return {};
  }

  // ---- branch-and-bound ---------------------------------------------------

  // Strict bound test with a small relative margin. The margin absorbs
  // floating-point reassociation between the incrementally accumulated bound
  // and the final score computation, so a mathematical tie is never pruned:
  // pruning then never changes the returned plan (ties keep the earliest
  // candidate, and an exact-tie subtree must survive to report its own).
  bool should_prune(double bound) const {
    const double inc = incumbent_;
    if (inc == kInfinity) return false;
    return bound > inc + 1e-9 * std::max(1.0, std::abs(inc));
  }

  // Anytime deadline. Polled on a counter so the clock read stays off the
  // per-candidate hot path; never fires before SOME incumbent exists (the
  // search must not come back empty-handed just because the budget was
  // tiny), so at worst a bounded tail of ~kDeadlinePollMask candidates runs
  // past the deadline after the first plan completes.
  static constexpr std::uint32_t kDeadlinePollMask = 0x3F;
  bool expired() {
    if (!has_deadline_) return false;
    if (deadline_expired_) return true;
    if ((++deadline_poll_ & kDeadlinePollMask) != 0) return false;
    if (incumbent_ == kInfinity) return false;
    if (std::chrono::steady_clock::now() >= deadline_) {
      deadline_expired_ = true;
      stats_.deadline_hit = true;
    }
    return deadline_expired_;
  }

  // Code-transfer time for deploying `comp` at `node` (the deployment-cost
  // metric's per-placement term).
  double code_transfer_cost(const spec::ComponentDef& comp,
                            net::NodeId node) const {
    const net::NodeId origin = request_.code_origin.valid()
                                   ? request_.code_origin
                                   : request_.client_node;
    const net::Route* route = network_.cached_route(origin, node);
    double cost = 0.0;
    for (net::LinkId lid : route->links) {
      const net::Link& link = network_.link(lid);
      cost += link.latency.seconds() +
              static_cast<double>(comp.behaviors.code_size_bytes) * 8.0 /
                  link.bandwidth_bps;
    }
    return cost;
  }

  // ---- search ---------------------------------------------------------

  // Explores every feasible way to provide `iface` (meeting `reqs`) to a
  // consumer at `from`; for each, invokes `sink` with the working state
  // extended by the candidate subtree, then undoes the extension.
  //
  // `discount` and `committed` carry the admissible lower bound through the
  // recursion. Their meaning depends on the active objective:
  //  - kMinLatency: `committed` is the padded latency already locked into the
  //    partial plan (in final-plan seconds); `discount` is the product of
  //    the padded RRFs of the ancestors, i.e. the factor that converts an
  //    edge cost at this depth into final-plan seconds.
  //  - kMaxCapacity: `committed` is the maximum resource utilization
  //    observed while reserving the partial plan (final utilization of those
  //    resources can only be higher).
  //  - kMinDeploymentCost: the bound lives in the `committed_cost_` member
  //    instead (placement-scoped rather than path-scoped).
  static constexpr InstanceId kNoParent = UINT32_MAX;

  // True when linking `parent` to a candidate that is the *same component
  // with the same factor bindings*. Two identically-configured instances of
  // one view hold the same data, so chaining them yields no additional
  // request reduction — permitting it would let the search stack caches to
  // multiply RRF for free (a degenerate optimum the paper's case study
  // never exhibits; Seattle's view chains to San Diego's because their
  // trust factors differ).
  bool duplicates_parent(InstanceId parent, const spec::ComponentDef* comp,
                         const FactorBindings& factors) const {
    if (parent == kNoParent) return false;
    const Placement& p = placements_[parent];
    return p.component == comp && p.factors == factors;
  }

  // Views extend the duplicate check to the entire requirement path: a
  // second identically-configured instance of one data view anywhere in the
  // chain holds the same cached contents, so it contributes no real request
  // reduction — even when a transparent tunnel sits between the two copies.
  bool view_duplicated_on_path(const spec::ComponentDef* comp,
                               const FactorBindings& factors) const {
    if (!comp->is_view()) return false;
    for (const auto& [path_comp, path_factors] : view_path_) {
      if (path_comp == comp && path_factors == factors) return true;
    }
    return false;
  }

  void satisfy(const std::string& iface, const Requirements& reqs,
               net::NodeId from, double rate, std::size_t depth,
               InstanceId parent, double discount, double committed,
               const Sink& sink) {
    if (depth > request_.max_depth) return;
    if (expired()) return;

    // (a) Reuse an already-running instance.
    for (std::size_t e = 0; e < existing_.size(); ++e) {
      try_existing(e, iface, reqs, from, rate, parent, discount, committed,
                   sink);
    }

    // (b) Deploy a new component.
    auto it = index_.find(iface);
    if (it == index_.end()) return;
    for (const spec::ImplementerRef& ref : it->second) {
      for (net::NodeId node : candidate_nodes_) {
        if (expired()) return;
        try_new(*ref.component, *ref.linkage, node, iface, reqs, from, rate,
                depth, parent, discount, committed, sink);
      }
    }
  }

  void try_existing(std::size_t index, const std::string& iface,
                    const Requirements& reqs, net::NodeId from, double rate,
                    InstanceId parent, double discount, double committed,
                    const Sink& sink) {
    const ExistingInstance& inst = existing_[index];
    ++stats_.candidates_examined;
    if (!network_.node_up(inst.node)) {
      ++stats_.rejected_node_down;
      return;
    }
    auto eff_it = inst.effective.find(iface);
    if (eff_it == inst.effective.end()) return;
    if (duplicates_parent(parent, inst.component, inst.factors) ||
        view_duplicated_on_path(inst.component, inst.factors)) {
      ++stats_.rejected_duplicate_view;
      return;
    }

    const double capacity = inst.component->behaviors.capacity_rps;
    if (capacity > 0.0 &&
        inst.current_load_rps + existing_added_rps_[index] + rate > capacity) {
      ++stats_.rejected_instance_capacity;
      return;
    }

    const net::Route* route_in = network_.cached_route(from, inst.node);
    if (route_in->bottleneck_bandwidth_bps == 0.0 && !route_in->local()) {
      ++stats_.rejected_unroutable;
      return;
    }
    const net::Route* route_back = network_.cached_route(inst.node, from);
    // The response path must be routable too: on an asymmetric topology a
    // candidate whose return route is severed would otherwise slip through
    // to property transformation over a dead route.
    if (route_back->bottleneck_bandwidth_bps == 0.0 && !route_back->local()) {
      ++stats_.rejected_unroutable;
      return;
    }

    // §3.3 condition 2 against the instance's stored effective properties.
    for (const auto& [prop, required] : reqs) {
      spec::PropertyValue v;
      auto vit = eff_it->second.find(prop);
      if (vit != eff_it->second.end()) v = vit->second;
      v = memo_.transform(env_, spec_.rules, prop, v, *route_back, inst.node);
      if (!v.satisfies(required)) {
        ++stats_.rejected_compatibility;
        return;
      }
    }

    const double rtt = edge_rtt_seconds(
        network_, *route_in, inst.component->behaviors.bytes_per_request,
        inst.component->behaviors.bytes_per_response);

    // Bound: reusing an instance commits this edge's RTT plus the instance's
    // (exactly known) downstream latency; it adds no deployment cost, and
    // for capacity only the inbound links tighten.
    if (bound_pruning_) {
      double bound = -kInfinity;
      switch (request_.objective) {
        case Objective::kMinLatency:
          bound = committed + discount * (rtt + inst.downstream_latency_s);
          break;
        case Objective::kMinDeploymentCost:
          bound = committed_cost_;
          break;
        case Objective::kMaxCapacity: {
          double u = committed;
          const double add_bps =
              rate *
              static_cast<double>(
                  inst.component->behaviors.bytes_per_request +
                  inst.component->behaviors.bytes_per_response) *
              8.0;
          for (net::LinkId lid : route_in->links) {
            const net::Link& link = network_.link(lid);
            u = std::max(u, (link_load_[lid.value] + add_bps) /
                                link.bandwidth_available_bps());
          }
          bound = u - 1.0;
          break;
        }
      }
      if (should_prune(bound)) {
        ++stats_.pruned_by_bound;
        return;
      }
    }

    // §3.3 condition 3 for the new edge.
    if (!reserve_route(*route_in, inst.component->behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }

    InstanceId pid;
    bool created = false;
    auto placed = placed_existing_.find(inst.runtime_id);
    if (placed != placed_existing_.end()) {
      pid = placed->second;
    } else {
      pid = static_cast<InstanceId>(placements_.size());
      Placement p;
      p.id = pid;
      p.component = inst.component;
      p.node = inst.node;
      p.factors = inst.factors;
      p.effective = inst.effective;
      p.expected_latency_s = inst.downstream_latency_s;
      p.reuse_existing = true;
      p.existing_runtime_id = inst.runtime_id;
      placements_.push_back(std::move(p));
      placed_existing_[inst.runtime_id] = pid;
      created = true;
    }
    placements_[pid].inbound_rate_rps += rate;
    existing_added_rps_[index] += rate;

    // An existing instance is warm on both tracks.
    sink(pid, rtt + inst.downstream_latency_s,
         rtt + inst.downstream_latency_s);

    // Undo.
    existing_added_rps_[index] -= rate;
    placements_[pid].inbound_rate_rps -= rate;
    if (created) {
      placed_existing_.erase(inst.runtime_id);
      placements_.pop_back();
    }
    release_route(*route_in, inst.component->behaviors, rate);
  }

  void try_new(const spec::ComponentDef& comp, const spec::LinkageDecl& impl,
               net::NodeId node, const std::string& iface,
               const Requirements& reqs, net::NodeId from, double rate,
               std::size_t depth, InstanceId parent, double discount,
               double committed, const Sink& sink) {
    ++stats_.candidates_examined;

    // A crashed/down node hosts nothing new.
    if (!network_.node_up(node)) {
      ++stats_.rejected_node_down;
      return;
    }

    // Static components only participate through pre-placed instances.
    if (comp.static_placement) {
      ++stats_.rejected_static;
      return;
    }

    // Cycle guard: never place the same component twice on the same node
    // along one requirement path.
    if (std::find(path_.begin(), path_.end(), std::make_pair(&comp, node)) !=
        path_.end()) {
      ++stats_.rejected_cycle;
      return;
    }

    const spec::Environment& node_env = env_.node_env(node);

    // §3.3 condition 1: installation conditions.
    for (const spec::Condition& cond : comp.conditions) {
      if (!cond.holds(node_env)) {
        ++stats_.rejected_condition;
        return;
      }
    }

    // Bind factors against the node environment.
    FactorBindings factors;
    for (const spec::PropertyAssignment& f : comp.factors) {
      spec::PropertyValue v = resolve(f.value, node_env, factors);
      if (!v.is_set()) {
        ++stats_.rejected_factor;
        return;  // unbindable factor: infeasible here
      }
      factors.values[f.property] = std::move(v);
    }
    if (duplicates_parent(parent, &comp, factors) ||
        view_duplicated_on_path(&comp, factors)) {
      ++stats_.rejected_duplicate_view;
      return;
    }

    const net::Route* route_in = network_.cached_route(from, node);
    if (route_in->bottleneck_bandwidth_bps == 0.0 && !route_in->local()) {
      ++stats_.rejected_unroutable;
      return;
    }
    const net::Route* route_back = network_.cached_route(node, from);

    // Early filter for §3.3 condition 2: a *declared* value that fails its
    // requirement can only be rescued by a modification rule; without a rule
    // for the property, prune before recursing.
    for (const auto& [prop, required] : reqs) {
      if (auto declared = impl.value_of(prop)) {
        const spec::PropertyValue v = resolve(*declared, node_env, factors);
        if (v.is_set() && spec_.rules.find(prop) == nullptr &&
            !v.satisfies(required)) {
          ++stats_.subtrees_pruned;
          ++stats_.rejected_compatibility;
          return;
        }
      }
    }

    // §3.3 condition 3: node CPU, component capacity, inbound link load.
    const double cpu_add = rate * comp.behaviors.cpu_per_request;
    const net::Node& host = network_.node(node);
    if (node_load_[node.value] + cpu_add > host.cpu_available()) {
      ++stats_.rejected_node_capacity;
      return;
    }
    if (comp.behaviors.capacity_rps > 0.0 &&
        rate > comp.behaviors.capacity_rps) {
      ++stats_.rejected_instance_capacity;
      return;
    }

    const double cpu_time_s =
        comp.behaviors.cpu_per_request / host.cpu_capacity;
    const double rtt = edge_rtt_seconds(
        network_, *route_in, comp.behaviors.bytes_per_request,
        comp.behaviors.bytes_per_response);
    // Cold-cache discount for newly deployed views (see PlanRequest).
    const double warm_rrf = comp.behaviors.rrf;
    double padded_rrf = warm_rrf;
    if (comp.is_view()) {
      padded_rrf =
          std::min(1.0, warm_rrf +
                            request_.cold_view_penalty * (1.0 - warm_rrf));
    }

    // Bound: every completion through this candidate pays at least the work
    // already committed plus this edge's RTT and CPU time — all remaining
    // contributions are non-negative, so pruning here is admissible.
    double child_committed = committed;
    double cost_add = 0.0;
    if (bound_pruning_) {
      double bound = -kInfinity;
      switch (request_.objective) {
        case Objective::kMinLatency:
          child_committed = committed + discount * (rtt + cpu_time_s);
          bound = child_committed;
          break;
        case Objective::kMinDeploymentCost:
          cost_add = 1.0 + code_transfer_cost(comp, node);
          bound = committed_cost_ + cost_add;
          break;
        case Objective::kMaxCapacity: {
          double u = committed;
          const double avail = host.cpu_available();
          if (cpu_add > 0.0 && avail > 0.0) {
            u = std::max(u, (node_load_[node.value] + cpu_add) / avail);
          }
          const double add_bps =
              rate *
              static_cast<double>(comp.behaviors.bytes_per_request +
                                  comp.behaviors.bytes_per_response) *
              8.0;
          for (net::LinkId lid : route_in->links) {
            const net::Link& link = network_.link(lid);
            u = std::max(u, (link_load_[lid.value] + add_bps) /
                                link.bandwidth_available_bps());
          }
          if (comp.behaviors.capacity_rps > 0.0) {
            u = std::max(u, rate / comp.behaviors.capacity_rps);
          }
          child_committed = u;
          bound = u - 1.0;
          break;
        }
      }
      if (should_prune(bound)) {
        ++stats_.pruned_by_bound;
        return;
      }
    }

    if (!reserve_route(*route_in, comp.behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }
    node_load_[node.value] += cpu_add;
    path_.emplace_back(&comp, node);
    if (comp.is_view()) view_path_.emplace_back(&comp, factors);
    committed_cost_ += cost_add;

    const InstanceId pid = static_cast<InstanceId>(placements_.size());
    {
      Placement p;
      p.id = pid;
      p.component = &comp;
      p.node = node;
      p.factors = factors;
      p.inbound_rate_rps = rate;
      placements_.push_back(std::move(p));
    }

    std::vector<ChildRecord> children;

    satisfy_children(
        comp, factors, node_env, pid, node, rate * padded_rrf, depth,
        0, 0.0, 0.0, discount * padded_rrf, child_committed, children,
        [&](double children_padded_s, double children_warm_s) {
          Placement& self = placements_[pid];
          self.expected_latency_s = cpu_time_s + warm_rrf * children_warm_s;
          const double padded_latency_s =
              cpu_time_s + padded_rrf * children_padded_s;
          self.effective =
              compute_effective(comp, node_env, factors, children);

          // §3.3 condition 2 in full: effective properties, degraded along
          // the route back to the consumer, must satisfy the requirements.
          auto eff_it = self.effective.find(iface);
          PSF_CHECK(eff_it != self.effective.end());
          for (const auto& [prop, required] : reqs) {
            spec::PropertyValue v;
            auto vit = eff_it->second.find(prop);
            if (vit != eff_it->second.end()) v = vit->second;
            v = memo_.transform(env_, spec_.rules, prop, v, *route_back,
                                node);
            if (!v.satisfies(required)) {
              ++stats_.subtrees_pruned;
              ++stats_.rejected_compatibility;
              return;
            }
          }

          sink(pid, rtt + padded_latency_s, rtt + self.expected_latency_s);
        });

    // Undo (children are fully undone by their own frames).
    PSF_CHECK(placements_.size() == static_cast<std::size_t>(pid) + 1);
    placements_.pop_back();
    committed_cost_ -= cost_add;
    if (comp.is_view()) view_path_.pop_back();
    path_.pop_back();
    node_load_[node.value] -= cpu_add;
    release_route(*route_in, comp.behaviors, rate);
  }

  // Satisfies comp.requires_[index..) in declaration order; when all are
  // placed, calls done(total_cost) where total_cost = Σ over children of
  // (edge rtt + child subtree latency). `child_discount` / `base_committed`
  // carry the bound (see satisfy); completed sibling edges enter the
  // committed value as they accumulate in `padded_so_far`.
  void satisfy_children(const spec::ComponentDef& comp,
                        const FactorBindings& factors,
                        const spec::Environment& node_env, InstanceId parent,
                        net::NodeId node, double child_rate, std::size_t depth,
                        std::size_t index, double padded_so_far,
                        double warm_so_far, double child_discount,
                        double base_committed,
                        std::vector<ChildRecord>& children,
                        const std::function<void(double, double)>& done) {
    if (index == comp.requires_.size()) {
      done(padded_so_far, warm_so_far);
      return;
    }
    const spec::LinkageDecl& req = comp.requires_[index];

    // Resolve this edge's requirements to literals (factor/env refs bind in
    // the *requiring* component's context).
    Requirements reqs;
    for (const spec::PropertyAssignment& pa : req.properties) {
      spec::PropertyValue v = resolve(pa.value, node_env, factors);
      if (v.is_set()) reqs.emplace_back(pa.property, std::move(v));
    }

    double committed_here = base_committed;
    if (request_.objective == Objective::kMinLatency) {
      committed_here = base_committed + child_discount * padded_so_far;
    }

    satisfy(req.interface_name, reqs, node, child_rate, depth + 1, parent,
            child_discount, committed_here,
            [&](InstanceId child_root, double edge_padded_s,
                double edge_warm_s) {
              const net::NodeId child_node = placements_[child_root].node;
              wires_.push_back(Wire{parent, req.interface_name, child_root,
                                    *network_.cached_route(node, child_node),
                                    child_rate});
              children.push_back(
                  ChildRecord{child_root, req.interface_name,
                              network_.cached_route(child_node, node)});
              satisfy_children(comp, factors, node_env, parent, node,
                               child_rate, depth, index + 1,
                               padded_so_far + edge_padded_s,
                               warm_so_far + edge_warm_s, child_discount,
                               base_committed, children, done);
              children.pop_back();
              wires_.pop_back();
            });
  }

  // ---- constraint helpers -------------------------------------------------

  bool reserve_route(const net::Route& route, const spec::Behaviors& b,
                     double rate) {
    const double add_bps =
        rate *
        static_cast<double>(b.bytes_per_request + b.bytes_per_response) * 8.0;
    for (net::LinkId lid : route.links) {
      const net::Link& link = network_.link(lid);
      if (link_load_[lid.value] + add_bps > link.bandwidth_available_bps()) {
        return false;
      }
    }
    for (net::LinkId lid : route.links) link_load_[lid.value] += add_bps;
    return true;
  }

  void release_route(const net::Route& route, const spec::Behaviors& b,
                     double rate) {
    const double add_bps =
        rate *
        static_cast<double>(b.bytes_per_request + b.bytes_per_response) * 8.0;
    for (net::LinkId lid : route.links) link_load_[lid.value] -= add_bps;
  }

  EffectiveProps compute_effective(
      const spec::ComponentDef& comp, const spec::Environment& node_env,
      const FactorBindings& factors,
      const std::vector<ChildRecord>& children) {
    EffectiveProps out;
    for (const spec::LinkageDecl& decl : comp.implements) {
      const spec::InterfaceDef* iface =
          spec_.find_interface(decl.interface_name);
      PSF_CHECK(iface != nullptr);
      auto& props = out[decl.interface_name];
      for (const std::string& prop : iface->properties) {
        spec::PropertyValue value;
        if (auto expr = decl.value_of(prop)) {
          value = resolve(*expr, node_env, factors);
        } else if (comp.transparent) {
          // Inherit from downstream: the minimum across children of the
          // child's effective value transformed along the connecting route.
          spec::PropertyValue inherited;
          bool first = true;
          for (const ChildRecord& child : children) {
            const Placement& cp = placements_[child.root];
            spec::PropertyValue cv;
            for (const auto& [child_iface, child_props] : cp.effective) {
              auto pit = child_props.find(prop);
              if (pit != child_props.end()) {
                cv = pit->second;
                break;
              }
            }
            cv = memo_.transform(env_, spec_.rules, prop, cv,
                                 *child.route_to_parent, cp.node);
            if (first) {
              inherited = cv;
              first = false;
            } else {
              inherited = spec::PropertyValue::min_of(inherited, cv);
            }
          }
          value = inherited;
        }
        if (value.is_set()) props[prop] = value;
      }
    }
    return out;
  }

  // ---- plan completion ------------------------------------------------

  void finish_plan(InstanceId root, double padded_s, double warm_s) {
    ++stats_.plans_scored;
    PlanMetrics metrics;
    // Report the warm (steady-state) expectation; score with the padded
    // value so cold-cache effects influence the choice.
    metrics.expected_latency_s = warm_s;

    double headroom = 1.0;
    for (const Placement& p : placements_) {
      if (p.reuse_existing) {
        ++metrics.reused_components;
        continue;
      }
      ++metrics.new_components;
      metrics.deployment_cost_s += code_transfer_cost(*p.component, p.node);
      if (p.component->behaviors.capacity_rps > 0.0) {
        headroom = std::min(headroom,
                            1.0 - p.inbound_rate_rps /
                                      p.component->behaviors.capacity_rps);
      }
    }
    for (std::size_t i = 0; i < node_load_.size(); ++i) {
      if (node_load_[i] <= 0.0) continue;
      const net::Node& n =
          network_.node(net::NodeId{static_cast<std::uint32_t>(i)});
      const double u = node_load_[i] / n.cpu_available();
      metrics.max_node_utilization = std::max(metrics.max_node_utilization, u);
      headroom = std::min(headroom, 1.0 - u);
    }
    for (std::size_t i = 0; i < link_load_.size(); ++i) {
      if (link_load_[i] <= 0.0) continue;
      const net::Link& l =
          network_.link(net::LinkId{static_cast<std::uint32_t>(i)});
      const double u = link_load_[i] / l.bandwidth_available_bps();
      metrics.max_link_utilization = std::max(metrics.max_link_utilization, u);
      headroom = std::min(headroom, 1.0 - u);
    }
    metrics.min_headroom = headroom;

    PlanMetrics scoring = metrics;
    scoring.expected_latency_s = padded_s;
    const Score score = score_plan(request_.objective, scoring);
    if (best_ && !(score < best_score_)) return;

    DeploymentPlan plan;
    plan.placements = placements_;
    plan.wires = wires_;
    plan.entry = root;
    plan.metrics = metrics;
    best_ = std::move(plan);
    best_score_ = score;
    incumbent_ = std::min(incumbent_, score.primary);
  }

  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  const net::Network& network_;
  const spec::ImplementerIndex& index_;
  const PlanRequest& request_;
  const std::vector<ExistingInstance>& existing_;
  double& incumbent_;
  SearchStats& stats_;
  const bool bound_pruning_;
  const std::vector<net::NodeId>& candidate_nodes_;
  const std::chrono::steady_clock::time_point deadline_;
  const bool has_deadline_;
  std::uint32_t deadline_poll_ = 0;
  bool deadline_expired_ = false;
  TransformMemo memo_;

  // Working state (mutated along the DFS, undone on backtrack).
  std::vector<Placement> placements_;
  std::vector<Wire> wires_;
  std::vector<double> node_load_;  // added cpu units/s per node
  std::vector<double> link_load_;  // added bps per link
  std::vector<double> existing_added_rps_;
  std::map<std::uint64_t, InstanceId> placed_existing_;
  // Cycle guard: the (component, node) placements on the current
  // requirement path, at most max_depth of them.
  std::vector<std::pair<const spec::ComponentDef*, net::NodeId>> path_;
  std::vector<std::pair<const spec::ComponentDef*, FactorBindings>>
      view_path_;
  // Committed (1 + code-transfer cost) of the current partial plan's new
  // placements — the kMinDeploymentCost bound.
  double committed_cost_ = 0.0;

  std::optional<DeploymentPlan> best_;
  Score best_score_;
};

}  // namespace

SearchStats& SearchStats::operator+=(const SearchStats& other) {
  candidates_examined += other.candidates_examined;
  subtrees_pruned += other.subtrees_pruned;
  plans_scored += other.plans_scored;
  pruned_by_bound += other.pruned_by_bound;
  rejected_static += other.rejected_static;
  rejected_cycle += other.rejected_cycle;
  rejected_duplicate_view += other.rejected_duplicate_view;
  rejected_condition += other.rejected_condition;
  rejected_factor += other.rejected_factor;
  rejected_compatibility += other.rejected_compatibility;
  rejected_node_capacity += other.rejected_node_capacity;
  rejected_link_capacity += other.rejected_link_capacity;
  rejected_instance_capacity += other.rejected_instance_capacity;
  rejected_unroutable += other.rejected_unroutable;
  rejected_node_down += other.rejected_node_down;
  clusters_total += other.clusters_total;
  clusters_refined += other.clusters_refined;
  used_hierarchy = used_hierarchy || other.used_hierarchy;
  deadline_hit = deadline_hit || other.deadline_hit;
  return *this;
}

std::string SearchStats::to_string() const {
  std::ostringstream oss;
  oss << "examined " << candidates_examined << " candidates, scored "
      << plans_scored << " plan(s), pruned " << pruned_by_bound
      << " subtree(s) by bound; rejections:";
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"static", rejected_static},
      {"cycle", rejected_cycle},
      {"duplicate-view", rejected_duplicate_view},
      {"condition", rejected_condition},
      {"factor", rejected_factor},
      {"compatibility", rejected_compatibility},
      {"node-capacity", rejected_node_capacity},
      {"link-capacity", rejected_link_capacity},
      {"instance-capacity", rejected_instance_capacity},
      {"unroutable", rejected_unroutable},
      {"node-down", rejected_node_down},
  };
  bool any = false;
  for (const auto& [label, count] : rows) {
    if (count == 0) continue;
    oss << " " << label << "=" << count;
    any = true;
  }
  if (!any) oss << " none";
  if (used_hierarchy) {
    oss << "; hierarchy: " << clusters_refined << "/" << clusters_total
        << " cluster(s) refined";
  }
  if (deadline_hit) oss << "; DEADLINE HIT (anytime incumbent)";
  return oss.str();
}

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kMinLatency: return "min-latency";
    case Objective::kMinDeploymentCost: return "min-deployment-cost";
    case Objective::kMaxCapacity: return "max-capacity";
  }
  return "?";
}

const char* search_mode_name(SearchMode m) {
  switch (m) {
    case SearchMode::kAuto: return "auto";
    case SearchMode::kFlat: return "flat";
    case SearchMode::kHierarchical: return "hierarchical";
  }
  return "?";
}

double plan_primary_score(Objective objective, const PlanMetrics& metrics) {
  return score_plan(objective, metrics).primary;
}

Planner::Planner(const spec::ServiceSpec& spec, const EnvironmentView& env)
    : spec_(spec), env_(env), iface_index_(spec.build_implementer_index()) {}

std::vector<util::Expected<DeploymentPlan>> Planner::plan_many(
    const std::vector<PlanRequest>& requests,
    const std::vector<ExistingInstance>& existing,
    std::size_t num_threads) const {
  std::vector<util::Expected<DeploymentPlan>> results;
  results.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(util::internal_error("not planned"));
  }
  if (requests.empty()) return results;

  const std::size_t threads =
      num_threads == 0
          ? std::min(requests.size(), util::ThreadPool::default_thread_count())
          : num_threads;
  if (threads <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      results[i] = plan(requests[i], existing);
    }
    return results;
  }
  // Route rows materialize lazily and thread-safely; no eager O(V^2)
  // precompute needed before the fan-out.
  util::ThreadPool pool(threads);
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    results[i] = plan(requests[i], existing);
  });
  return results;
}

util::Expected<DeploymentPlan> Planner::plan(
    const PlanRequest& request, const std::vector<ExistingInstance>& existing,
    SearchStats* stats) const {
  const net::Network& network = env_.network();
  if (spec_.find_interface(request.interface_name) == nullptr) {
    return util::not_found("service '" + spec_.name +
                           "' has no interface named '" +
                           request.interface_name + "'");
  }
  if (!request.client_node.valid() ||
      request.client_node.value >= network.node_count()) {
    return util::invalid_argument("invalid client node");
  }
  if (request.request_rate_rps < 0.0) {
    return util::invalid_argument("negative request rate");
  }

  // The work list: candidate node sets, each searched exactly by its own
  // Search, in order. A repair's restricted set is already cluster-sized,
  // so it is one item and never hierarchical; a hierarchical plan is one
  // item per cluster refinement, the client's own cluster first.
  std::vector<std::vector<net::NodeId>> items;
  bool hierarchical = false;
  if (!request.candidate_nodes.empty()) {
    items.push_back(request.candidate_nodes);
  } else if (request.search_mode == SearchMode::kHierarchical ||
             (request.search_mode == SearchMode::kAuto &&
              network.node_count() >= kHierarchyAutoThreshold)) {
    const ClusterIndex index(
        network, request.cluster_count == 0
                     ? ClusterIndex::default_cluster_count(network.node_count())
                     : request.cluster_count);
    if (index.num_clusters() >= 2) {
      hierarchical = true;
      for (ClusterRefinement& ref :
           build_refinements(index, request, existing)) {
        items.push_back(std::move(ref.candidates));
      }
    }
  }
  if (items.empty()) items.push_back(network.all_nodes());

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0,
                                                 request.deadline_budget)));
  const bool has_deadline = request.deadline_budget > 0.0;

  // Every item shares the incumbent, so an earlier item's plan prunes the
  // later ones. Only a strictly better plan replaces the best, so ties go to
  // the earliest item and, within it, the earliest entry candidate.
  double incumbent = kInfinity;
  SearchStats merged;
  std::optional<DeploymentPlan> best;
  Score best_score;
  std::size_t searched = 0;
  for (const std::vector<net::NodeId>& nodes : items) {
    if (has_deadline && incumbent < kInfinity &&
        std::chrono::steady_clock::now() >= deadline) {
      merged.deadline_hit = true;
      break;
    }
    ++searched;
    Search search(spec_, env_, iface_index_, request, existing, incumbent,
                  merged, nodes, deadline, has_deadline);
    search.run();
    std::optional<DeploymentPlan> plan = search.take_best();
    if (plan && (!best || search.best_score() < best_score)) {
      best = std::move(plan);
      best_score = search.best_score();
    }
  }
  if (hierarchical) {
    merged.used_hierarchy = true;
    merged.clusters_total = items.size();
    merged.clusters_refined = searched;
  }

  if (stats != nullptr) *stats = merged;
  if (!best) {
    std::string why = "no deployment of '" + spec_.name +
                      "' satisfies interface '" + request.interface_name +
                      "' from node '" +
                      network.node(request.client_node).name + "'";
    if (hierarchical) {
      why += " (hierarchical search, " + std::to_string(items.size()) +
             " clusters)";
    }
    return util::unsatisfiable(why);
  }
  return std::move(*best);
}

}  // namespace psf::planner
