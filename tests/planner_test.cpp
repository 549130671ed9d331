// Planner tests: the three §3.3 constraint classes, factor binding,
// transparent pass-through, objectives, and reuse of existing instances —
// on small synthetic services where the right answer is obvious — plus
// bound pruning checked against the exhaustive search on the mail service.
#include <gtest/gtest.h>

#include "planner/planner.hpp"
#include "spec/builder.hpp"
#include "waxman_world.hpp"

namespace psf {
namespace {

using planner::CredentialMapTranslator;
using planner::EnvironmentView;
using planner::Objective;
using planner::Planner;
using planner::PlanRequest;
using spec::PropertyValue;

// Two-node world: "edge" (client side) and "origin" (server side), joined by
// one configurable link.
struct TwoNodeWorld {
  net::Network network;
  net::NodeId edge;
  net::NodeId origin;
  net::LinkId link;

  explicit TwoNodeWorld(double bandwidth_bps = 10e6,
                        sim::Duration latency = sim::Duration::from_millis(50),
                        bool secure = true) {
    net::Credentials edge_creds;
    edge_creds.set("trust", std::int64_t{3});
    edge_creds.set("secure", true);
    edge = network.add_node("edge", 1e6, edge_creds);

    net::Credentials origin_creds;
    origin_creds.set("trust", std::int64_t{5});
    origin_creds.set("secure", true);
    origin = network.add_node("origin", 1e6, origin_creds);

    net::Credentials link_creds;
    link_creds.set("secure", secure);
    link = network.add_link(edge, origin, bandwidth_bps, latency, link_creds);
  }
};

CredentialMapTranslator standard_translator() {
  CredentialMapTranslator t;
  t.map_node({"TrustLevel", "trust", spec::PropertyType::kInterval,
              PropertyValue::integer(1)});
  t.map_node({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  t.map_link({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  return t;
}

// Client -> Origin, no views: the simplest linkage.
spec::ServiceSpec direct_spec() {
  return spec::SpecBuilder("Direct")
      .boolean_property("Confidentiality")
      .interval_property("TrustLevel", 1, 5)
      .interface("Api", {"Confidentiality", "TrustLevel"})
      .interface("Entry", {"Confidentiality", "TrustLevel"})
      .confidentiality_rule("Confidentiality")
      .component("Client")
      .implements("Entry", {{"TrustLevel", spec::lit_int(3)}})
      .requires_iface("Api", {{"TrustLevel", spec::lit_int(2)}})
      .cpu_per_request(10)
      .done()
      .component("Origin")
      .implements("Api", {{"Confidentiality", spec::lit_bool(true)},
                          {"TrustLevel", spec::lit_int(5)}})
      // Pinned by trust to the "origin" node so the link is always crossed.
      .condition_ge("TrustLevel", PropertyValue::integer(5))
      .capacity(100)
      .cpu_per_request(50)
      .done()
      .build();
}

TEST(PlannerTest, PlansDirectChain) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 1.0;

  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_EQ(plan->placements.size(), 2u);
  EXPECT_EQ(plan->entry_placement().component->name, "Client");
  EXPECT_EQ(plan->entry_placement().node, world.edge);
  EXPECT_EQ(plan->wires.size(), 1u);
  EXPECT_GT(plan->metrics.expected_latency_s, 0.0);
}

TEST(PlannerTest, EntryPinnedToClientNode) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.origin;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->entry_placement().node, world.origin);
}

TEST(PlannerTest, UnknownInterfaceIsNotFound) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "NoSuchInterface";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kNotFound);
}

TEST(PlannerTest, ConditionBlocksUntrustedNode) {
  // Origin demands trust >= 5; only the "origin" node qualifies, and when
  // that requirement rises above every node the plan is unsatisfiable.
  auto make = [](std::int64_t required_trust) {
    return spec::SpecBuilder("Cond")
        .interval_property("TrustLevel", 1, 9)
        .interface("Api", {"TrustLevel"})
        .interface("Entry", {"TrustLevel"})
        .component("Client")
        .implements("Entry", {})
        .requires_iface("Api", {})
        .done()
        .component("Origin")
        .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
        .condition_ge("TrustLevel", PropertyValue::integer(required_trust))
        .done()
        .build();
  };

  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;

  {
    spec::ServiceSpec spec = make(5);
    Planner planner(spec, env);
    auto plan = planner.plan(request);
    ASSERT_TRUE(plan.has_value());
    // The server must have landed on the trusted node.
    ASSERT_EQ(plan->placements.size(), 2u);
    EXPECT_EQ(plan->placements[1].node, world.origin);
  }
  {
    spec::ServiceSpec spec = make(6);  // nobody has trust 6
    Planner planner(spec, env);
    auto plan = planner.plan(request);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
  }
}

TEST(PlannerTest, ConfidentialityRuleRejectsInsecureLink) {
  // Client requires Confidentiality=T of Api; the only implementer sits
  // across an insecure link, so the requirement degrades to F and planning
  // fails. (No encryptor exists in this spec.)
  spec::ServiceSpec spec =
      spec::SpecBuilder("Conf")
          .boolean_property("Confidentiality")
          .interface("Api", {"Confidentiality"})
          .interface("Entry", {"Confidentiality"})
          .confidentiality_rule("Confidentiality")
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api",
                          {{"Confidentiality", spec::lit_bool(true)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)}})
          // Pin the origin away from the client so the link is crossed.
          .condition_ge("TrustLevel", PropertyValue::integer(5))
          .done()
          .interval_property("TrustLevel", 1, 5)
          .build();

  PlanRequest request;
  request.interface_name = "Entry";

  {
    TwoNodeWorld world(10e6, sim::Duration::from_millis(50), /*secure=*/true);
    auto translator = standard_translator();
    EnvironmentView env(world.network, translator);
    Planner planner(spec, env);
    request.client_node = world.edge;
    EXPECT_TRUE(planner.plan(request).has_value());
  }
  {
    TwoNodeWorld world(10e6, sim::Duration::from_millis(50),
                       /*secure=*/false);
    auto translator = standard_translator();
    EnvironmentView env(world.network, translator);
    Planner planner(spec, env);
    request.client_node = world.edge;
    auto plan = planner.plan(request);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
  }
}

TEST(PlannerTest, TransparentComponentRestoresConfidentiality) {
  // Same as above but with a transparent Encryptor/Decryptor pair in the
  // spec: the insecure link becomes crossable inside the tunnel.
  spec::ServiceSpec spec =
      spec::SpecBuilder("Tunnel")
          .boolean_property("Confidentiality")
          .interval_property("TrustLevel", 1, 5)
          .interface("Api", {"Confidentiality", "TrustLevel"})
          .interface("Entry", {"Confidentiality"})
          .interface("Tunnel", {"Confidentiality", "TrustLevel"})
          .confidentiality_rule("Confidentiality")
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {{"Confidentiality", spec::lit_bool(true)},
                                  {"TrustLevel", spec::lit_int(4)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)},
                              {"TrustLevel", spec::lit_int(5)}})
          .condition_ge("TrustLevel", PropertyValue::integer(5))
          .done()
          .component("Enc")
          .transparent()
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)}})
          .requires_iface("Tunnel", {})
          .done()
          .component("Dec")
          .transparent()
          .implements("Tunnel", {})
          .requires_iface("Api", {{"Confidentiality", spec::lit_bool(true)}})
          .done()
          .build();

  TwoNodeWorld world(10e6, sim::Duration::from_millis(50), /*secure=*/false);
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();

  // Client -> Enc -> Dec -> Origin, with Enc on the edge and Dec with the
  // origin (the only arrangement whose plaintext segments stay secure).
  ASSERT_EQ(plan->placements.size(), 4u);
  std::map<std::string, std::string> where;
  for (const auto& p : plan->placements) {
    where[p.component->name] = world.network.node(p.node).name;
  }
  EXPECT_EQ(where["Client"], "edge");
  EXPECT_EQ(where["Enc"], "edge");
  EXPECT_EQ(where["Dec"], "origin");
  EXPECT_EQ(where["Origin"], "origin");

  // Pass-through: the Enc placement's effective Api must carry the origin's
  // TrustLevel=5.
  for (const auto& p : plan->placements) {
    if (p.component->name != "Enc") continue;
    auto it = p.effective.find("Api");
    ASSERT_NE(it, p.effective.end());
    auto trust = it->second.find("TrustLevel");
    ASSERT_NE(trust, it->second.end());
    EXPECT_EQ(trust->second, PropertyValue::integer(5));
  }
}

TEST(PlannerTest, FactorBindingConfiguresView) {
  // A view whose Quality factor binds from the node env; the client demands
  // Quality >= 3, the edge node offers 3.
  spec::ServiceSpec spec =
      spec::SpecBuilder("Factors")
          .interval_property("Quality", 1, 5)
          .interface("Api", {"Quality"})
          .interface("Entry", {"Quality"})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {{"Quality", spec::lit_int(3)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Quality", spec::lit_int(5)}})
          .condition_ge("Quality", PropertyValue::integer(5))
          .done()
          .data_view("CacheView", "Origin")
          .factor("Quality", spec::node_ref("Quality"))
          .implements("Api", {{"Quality", spec::factor_ref("Quality")}})
          .requires_iface("Api", {{"Quality", spec::factor_ref("Quality")}})
          .rrf(0.1)
          .done()
          .build();

  // Map node trust into "Quality".
  CredentialMapTranslator translator;
  translator.map_node({"Quality", "trust", spec::PropertyType::kInterval,
                       PropertyValue::integer(1)});

  // Slow link makes the cache view worthwhile.
  TwoNodeWorld world(1e6, sim::Duration::from_millis(200));
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();

  bool found_view = false;
  for (const auto& p : plan->placements) {
    if (p.component->name != "CacheView") continue;
    found_view = true;
    EXPECT_EQ(p.node, world.edge);
    auto bound = p.factors.values.find("Quality");
    ASSERT_NE(bound, p.factors.values.end());
    EXPECT_EQ(bound->second, PropertyValue::integer(3));
  }
  EXPECT_TRUE(found_view)
      << "min-latency planning should cache before the slow link:\n"
      << plan->to_string(world.network);
}

TEST(PlannerTest, ReusesExistingInstanceWhenCheaper) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  planner::ExistingInstance existing;
  existing.runtime_id = 42;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["Confidentiality"] = PropertyValue::boolean(true);
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  existing.downstream_latency_s = 50e-6;
  existing.current_load_rps = 10.0;

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request, {existing});
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 2u);
  EXPECT_TRUE(plan->placements[1].reuse_existing);
  EXPECT_EQ(plan->placements[1].existing_runtime_id, 42u);
  EXPECT_EQ(plan->metrics.reused_components, 1u);
  EXPECT_EQ(plan->metrics.new_components, 1u);
}

TEST(PlannerTest, CapacityExhaustionFallsBackToNewInstance) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  planner::ExistingInstance existing;
  existing.runtime_id = 42;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["Confidentiality"] = PropertyValue::boolean(true);
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  existing.current_load_rps = 99.5;  // capacity is 100

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 5.0;  // would overflow the existing instance
  auto plan = planner.plan(request, {existing});
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 2u);
  EXPECT_FALSE(plan->placements[1].reuse_existing);
}

TEST(PlannerTest, StaticComponentRequiresPreplacedInstance) {
  spec::ServiceSpec spec =
      spec::SpecBuilder("Static")
          .interval_property("TrustLevel", 1, 5)
          .interface("Api", {"TrustLevel"})
          .interface("Entry", {"TrustLevel"})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {})
          .done()
          .component("Origin")
          .static_placement()
          .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
          .done()
          .build();

  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;

  // Without a pre-placed Origin, unsatisfiable.
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);

  // With one, the plan binds to it.
  planner::ExistingInstance existing;
  existing.runtime_id = 7;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  auto plan2 = planner.plan(request, {existing});
  ASSERT_TRUE(plan2.has_value());
  EXPECT_TRUE(plan2->placements[1].reuse_existing);
}

TEST(PlannerTest, LinkBandwidthConstraintRejectsOverload) {
  // A 9600-baud link cannot carry the requested rate.
  TwoNodeWorld world(/*bandwidth_bps=*/9600.0);
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 100.0;  // 100 * (1024+1024)*8 bits >> 9600
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
}

TEST(PlannerTest, PlanRendersToDot) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value());

  const std::string dot = plan->to_dot(world.network);
  EXPECT_NE(dot.find("digraph deployment"), std::string::npos);
  EXPECT_NE(dot.find("cluster_"), std::string::npos);
  EXPECT_NE(dot.find("Client"), std::string::npos);
  EXPECT_NE(dot.find("Origin"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Balanced braces (cheap well-formedness proxy).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(PlannerTest, MinCostObjectivePrefersFewerComponents) {
  // With the cache view available and a slow link, min-latency deploys the
  // view but min-deployment-cost connects directly.
  spec::ServiceSpec spec =
      spec::SpecBuilder("Obj")
          .interval_property("TrustLevel", 1, 5)
          .interface("Api", {"TrustLevel"})
          .interface("Entry", {"TrustLevel"})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {})
          .done()
          .component("Origin")
          .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
          .condition_ge("TrustLevel", PropertyValue::integer(5))
          .done()
          .data_view("CacheView", "Origin")
          .implements("Api", {{"TrustLevel", spec::lit_int(3)}})
          .requires_iface("Api", {})
          .rrf(0.1)
          .code_size(1024 * 1024)
          .done()
          .build();

  TwoNodeWorld world(2e6, sim::Duration::from_millis(300));
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.code_origin = world.origin;

  request.objective = Objective::kMinLatency;
  auto latency_plan = planner.plan(request);
  ASSERT_TRUE(latency_plan.has_value());

  request.objective = Objective::kMinDeploymentCost;
  auto cost_plan = planner.plan(request);
  ASSERT_TRUE(cost_plan.has_value());

  EXPECT_GT(latency_plan->placements.size(), cost_plan->placements.size());
  EXPECT_LT(latency_plan->metrics.expected_latency_s,
            cost_plan->metrics.expected_latency_s);
}

// Four nodes where the three objectives disagree. The client sits at
// "edge"; the origin is 300 ms away over a thin direct link. A cache view
// fits on "near" (1 ms from the client, but a small CPU the view half
// fills) or on "big" (20 ms away, a large CPU).
//  - min-deployment-cost connects directly: no view to ship or start;
//  - min-latency caches at "near";
//  - max-capacity caches at "big": the direct plan loads the thin link to
//    82% and the "near" view loads its node to 50%.
struct TradeOffWorld {
  net::Network network;
  net::NodeId edge, near, big, origin;
  spec::ServiceSpec spec;
  CredentialMapTranslator translator = standard_translator();
  std::unique_ptr<EnvironmentView> env;
  std::unique_ptr<Planner> planner;

  TradeOffWorld() {
    const auto trust = [](std::int64_t level) {
      net::Credentials creds;
      creds.set("trust", level);
      return creds;
    };
    edge = network.add_node("edge", 1e6, trust(2));
    near = network.add_node("near", 2e4, trust(3));
    big = network.add_node("big", 1e6, trust(3));
    origin = network.add_node("origin", 1e6, trust(5));
    const auto ms = sim::Duration::from_millis;
    network.add_link(edge, near, 100e6, ms(1));
    network.add_link(edge, big, 100e6, ms(20));
    network.add_link(edge, origin, 2e6, ms(300));
    network.add_link(near, origin, 10e6, ms(300));
    network.add_link(big, origin, 10e6, ms(300));

    spec = spec::SpecBuilder("TradeOff")
               .interval_property("TrustLevel", 1, 5)
               .interface("Api", {"TrustLevel"})
               .interface("Entry", {"TrustLevel"})
               .component("Client")
               .implements("Entry", {})
               .requires_iface("Api", {})
               .cpu_per_request(10)
               .done()
               .component("Origin")
               .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
               .condition_ge("TrustLevel", PropertyValue::integer(5))
               .cpu_per_request(50)
               .done()
               .data_view("CacheView", "Origin")
               .implements("Api", {{"TrustLevel", spec::lit_int(3)}})
               .requires_iface("Api", {})
               .condition_ge("TrustLevel", PropertyValue::integer(3))
               .rrf(0.1)
               .cpu_per_request(100)
               .done()
               .build();
    env = std::make_unique<EnvironmentView>(network, translator);
    planner = std::make_unique<Planner>(spec, *env);
  }

  PlanRequest request(Objective objective) const {
    PlanRequest req;
    req.interface_name = "Entry";
    req.client_node = edge;
    req.code_origin = origin;
    req.request_rate_rps = 100.0;
    req.objective = objective;
    return req;
  }

  // The node hosting the cache view, or an invalid id for a direct plan.
  static net::NodeId view_node(const planner::DeploymentPlan& plan) {
    for (const planner::Placement& p : plan.placements) {
      if (p.component->name == "CacheView") return p.node;
    }
    return net::NodeId{};
  }
};

TEST(PlannerTest, EachObjectiveChoosesItsOwnPlan) {
  TradeOffWorld world;
  auto latency = world.planner->plan(world.request(Objective::kMinLatency));
  auto cost =
      world.planner->plan(world.request(Objective::kMinDeploymentCost));
  auto capacity = world.planner->plan(world.request(Objective::kMaxCapacity));
  ASSERT_TRUE(latency.has_value()) << latency.status().to_string();
  ASSERT_TRUE(cost.has_value()) << cost.status().to_string();
  ASSERT_TRUE(capacity.has_value()) << capacity.status().to_string();

  EXPECT_EQ(TradeOffWorld::view_node(*latency), world.near);
  ASSERT_EQ(cost->placements.size(), 2u);
  EXPECT_FALSE(TradeOffWorld::view_node(*cost).valid());
  EXPECT_EQ(TradeOffWorld::view_node(*capacity), world.big);

  // Each plan is strictly best on its own objective's metric.
  EXPECT_LT(latency->metrics.expected_latency_s,
            capacity->metrics.expected_latency_s);
  EXPECT_LT(capacity->metrics.expected_latency_s,
            cost->metrics.expected_latency_s);
  EXPECT_LT(cost->metrics.new_components, latency->metrics.new_components);
  EXPECT_LT(cost->metrics.deployment_cost_s,
            latency->metrics.deployment_cost_s);
  EXPECT_GT(capacity->metrics.min_headroom, latency->metrics.min_headroom);
  EXPECT_GT(latency->metrics.min_headroom, cost->metrics.min_headroom);
}

// ---- Bound pruning on the mail service over Waxman topologies -------------

using test::expect_same_plan;
using test::WaxmanWorld;

// Plans `request` with and without bound pruning and checks both searches
// return the same plan, the pruned one examining no more candidates.
void expect_pruning_keeps_plan(
    const Planner& planner, PlanRequest request,
    const std::vector<planner::ExistingInstance>& existing,
    const std::string& label) {
  request.bound_pruning = true;
  planner::SearchStats pruned_stats, exhaustive_stats;
  auto a = planner.plan(request, existing, &pruned_stats);
  request.bound_pruning = false;
  auto b = planner.plan(request, existing, &exhaustive_stats);

  ASSERT_EQ(a.has_value(), b.has_value()) << label;
  if (!a.has_value()) return;
  expect_same_plan(*a, *b, label);
  EXPECT_EQ(exhaustive_stats.pruned_by_bound, 0u) << label;
  // Pruning must make the search cheaper, never costlier.
  EXPECT_LE(pruned_stats.candidates_examined,
            exhaustive_stats.candidates_examined)
      << label;
}

TEST(PlannerBoundTest, BoundPruningDoesNotChangeThePlan) {
  constexpr Objective kObjectives[] = {Objective::kMinLatency,
                                       Objective::kMinDeploymentCost,
                                       Objective::kMaxCapacity};
  struct Case {
    std::size_t nodes;
    std::uint64_t seed;
  };
  for (const Case c : {Case{10, 2026}, Case{10, 7}, Case{12, 2026}}) {
    WaxmanWorld world(c.nodes, c.seed);
    for (Objective objective : kObjectives) {
      expect_pruning_keeps_plan(*world.planner, world.request(objective),
                                world.existing,
                                "nodes=" + std::to_string(c.nodes) +
                                    " seed=" + std::to_string(c.seed) +
                                    " objective=" +
                                    planner::objective_name(objective));
    }
  }
  // The Waxman worlds' objectives agree on one plan; here each objective
  // has its own, so a bound that ignored the objective would show.
  TradeOffWorld trade_off;
  for (Objective objective : kObjectives) {
    expect_pruning_keeps_plan(
        *trade_off.planner, trade_off.request(objective), {},
        std::string("trade-off objective=") +
            planner::objective_name(objective));
  }
}

TEST(PlannerBoundTest, BoundActuallyPrunes) {
  // On a topology large enough to have many dominated placements the bound
  // must cut a non-trivial part of the search.
  WaxmanWorld world(12, 2026);
  planner::SearchStats stats;
  auto plan = world.planner->plan(world.request(Objective::kMinLatency),
                                  world.existing, &stats);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_GT(stats.pruned_by_bound, 0u);
}

TEST(PlannerBoundTest, StatsMergeAddsCounters) {
  planner::SearchStats a;
  a.candidates_examined = 10;
  a.plans_scored = 2;
  a.pruned_by_bound = 3;
  a.rejected_condition = 4;
  a.rejected_unroutable = 1;

  planner::SearchStats b;
  b.candidates_examined = 5;
  b.plans_scored = 1;
  b.pruned_by_bound = 2;
  b.rejected_condition = 1;
  b.rejected_link_capacity = 7;
  b.deadline_hit = true;

  a += b;
  EXPECT_EQ(a.candidates_examined, 15u);
  EXPECT_EQ(a.plans_scored, 3u);
  EXPECT_EQ(a.pruned_by_bound, 5u);
  EXPECT_EQ(a.rejected_condition, 5u);
  EXPECT_EQ(a.rejected_unroutable, 1u);
  EXPECT_EQ(a.rejected_link_capacity, 7u);
  EXPECT_TRUE(a.deadline_hit);

  const std::string text = a.to_string();
  EXPECT_NE(text.find("pruned 5"), std::string::npos) << text;
  EXPECT_NE(text.find("condition=5"), std::string::npos) << text;
  EXPECT_NE(text.find("DEADLINE HIT"), std::string::npos) << text;
}

}  // namespace
}  // namespace psf
