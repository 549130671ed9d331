// Shared test fixture: the mail service planned over a seeded Waxman
// topology (the same world as the planner scaling benchmark, shrunk to
// test-friendly sizes), plus exact plan comparison helpers. Used by the
// planner tests that check search accelerations and the concurrent entry
// point against plain serial planning.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mail/mail_spec.hpp"
#include "net/topology.hpp"
#include "planner/planner.hpp"

namespace psf::test {

struct WaxmanWorld {
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> existing;

  WaxmanWorld(std::size_t num_nodes, std::uint64_t seed) {
    net::WaxmanParams params;
    params.num_nodes = num_nodes;
    util::Rng rng(seed);
    network = net::generate_waxman(params, rng);
    for (net::NodeId id : network.all_nodes()) {
      network.node(id).credentials.set(
          "trust", static_cast<std::int64_t>(2 + id.value % 3));
      network.node(id).credentials.set("secure", true);
    }
    network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
    for (net::LinkId id : network.all_links()) {
      network.link(id).credentials.set("secure", (id.value % 3) != 0);
    }

    spec = mail::mail_service_spec();
    translator = mail::mail_translator();
    env = std::make_unique<planner::EnvironmentView>(network, *translator);
    planner = std::make_unique<planner::Planner>(spec, *env);

    planner::ExistingInstance home;
    home.runtime_id = 1;
    home.component = spec.find_component("MailServer");
    home.node = net::NodeId{0};
    home.effective["ServerInterface"]["Confidentiality"] =
        spec::PropertyValue::boolean(true);
    home.effective["ServerInterface"]["TrustLevel"] =
        spec::PropertyValue::integer(5);
    home.downstream_latency_s = 1e-4;
    existing.push_back(home);
  }

  // A request from the last node (far from the home server at node 0).
  planner::PlanRequest request(planner::Objective objective) const {
    return request_from(
        net::NodeId{static_cast<std::uint32_t>(network.node_count() - 1)},
        objective);
  }

  planner::PlanRequest request_from(net::NodeId client,
                                    planner::Objective objective) const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(2));
    req.client_node = client;
    req.max_depth = 4;
    req.objective = objective;
    return req;
  }
};

inline std::string describe_plan(const planner::DeploymentPlan& plan) {
  std::ostringstream oss;
  oss << "entry=" << plan.entry << "\n";
  for (const planner::Placement& p : plan.placements) {
    oss << "placement " << p.id << " " << p.component->name << "@"
        << p.node.value << " factors=" << p.factors.to_string()
        << " rate=" << p.inbound_rate_rps << " reuse=" << p.reuse_existing
        << "/" << p.existing_runtime_id << "\n";
  }
  for (const planner::Wire& w : plan.wires) {
    oss << "wire " << w.client << " -[" << w.interface_name << "]-> "
        << w.server << " rate=" << w.rate_rps
        << " hops=" << w.route.links.size() << "\n";
  }
  return oss.str();
}

// Exact structural equality: bound pruning and plan_many promise
// bit-identical plans, so latency/cost compare with == rather than
// tolerances.
inline void expect_same_plan(const planner::DeploymentPlan& a,
                             const planner::DeploymentPlan& b,
                             const std::string& label) {
  EXPECT_EQ(describe_plan(a), describe_plan(b)) << label;
  EXPECT_EQ(a.metrics.expected_latency_s, b.metrics.expected_latency_s)
      << label;
  EXPECT_EQ(a.metrics.deployment_cost_s, b.metrics.deployment_cost_s)
      << label;
  EXPECT_EQ(a.metrics.new_components, b.metrics.new_components) << label;
  EXPECT_EQ(a.metrics.reused_components, b.metrics.reused_components)
      << label;
  EXPECT_EQ(a.metrics.min_headroom, b.metrics.min_headroom) << label;
}

}  // namespace psf::test
