// DP chain planner: optimality on small instances (checked against brute
// force), constraint handling, and agreement with the exhaustive planner on
// chain-shaped problems.
#include <gtest/gtest.h>

#include <limits>

#include "planner/dp_chain.hpp"
#include "planner/planner.hpp"
#include "spec/builder.hpp"

namespace psf::planner {
namespace {

using spec::PropertyValue;

// A linear network path of `n` nodes with identical links.
struct PathWorld {
  net::Network network;
  std::vector<net::NodeId> path;

  explicit PathWorld(std::size_t n, double bw = 10e6,
                     sim::Duration latency = sim::Duration::from_millis(20)) {
    for (std::size_t i = 0; i < n; ++i) {
      net::Credentials creds;
      creds.set("trust", static_cast<std::int64_t>(i + 1));
      creds.set("secure", true);
      path.push_back(network.add_node("n" + std::to_string(i), 1e6, creds));
    }
    net::Credentials secure;
    secure.set("secure", true);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      network.add_link(path[i], path[i + 1], bw, latency, secure);
    }
  }
};

CredentialMapTranslator trust_translator() {
  CredentialMapTranslator t;
  t.map_node({"TrustLevel", "trust", spec::PropertyType::kInterval,
              PropertyValue::integer(1)});
  t.map_node({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  t.map_link({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  return t;
}

spec::ServiceSpec chain_spec(double filter_rrf) {
  return spec::SpecBuilder("Chain")
      .interval_property("TrustLevel", 1, 99)
      .interface("Entry", {})
      .interface("Mid", {})
      .interface("Api", {})
      .component("Client")
      .implements("Entry", {})
      .requires_iface("Mid", {})
      .cpu_per_request(10)
      .done()
      .component("Filter")
      .implements("Mid", {})
      .requires_iface("Api", {})
      .rrf(filter_rrf)
      .cpu_per_request(30)
      .done()
      .component("Origin")
      .implements("Api", {})
      .cpu_per_request(50)
      .done()
      .build();
}

std::vector<const spec::ComponentDef*> chain_of(const spec::ServiceSpec& s) {
  return {s.find_component("Client"), s.find_component("Filter"),
          s.find_component("Origin")};
}

// Brute force: all monotone placements with pinned endpoints.
double brute_force_best(const spec::ServiceSpec& /*spec*/,
                        const EnvironmentView& env,
                        const std::vector<const spec::ComponentDef*>& chain,
                        const std::vector<net::NodeId>& path,
                        std::vector<std::size_t>* best_assignment = nullptr) {
  const std::size_t k = chain.size();
  const std::size_t m = path.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> assignment(k);

  std::function<void(std::size_t, std::size_t)> recurse =
      [&](std::size_t i, std::size_t min_j) {
        if (i == k) {
          if (assignment.front() != 0 || assignment.back() != m - 1) return;
          // Evaluate.
          double cost = 0.0;
          double prefix = 1.0;
          for (std::size_t c = 0; c < k; ++c) {
            if (c > 0) prefix *= chain[c - 1]->behaviors.rrf;
            cost += prefix * chain[c]->behaviors.cpu_per_request /
                    env.network().node(path[assignment[c]]).cpu_capacity;
            if (c > 0) {
              const double bits =
                  static_cast<double>(chain[c]->behaviors.bytes_per_request +
                                      chain[c]->behaviors.bytes_per_response) *
                  8.0;
              for (std::size_t j = assignment[c - 1]; j < assignment[c]; ++j) {
                auto lid = env.network().link_between(path[j], path[j + 1]);
                const net::Link& link = env.network().link(*lid);
                cost += prefix * (2.0 * link.latency.seconds() +
                                  bits / link.bandwidth_bps);
              }
            }
          }
          if (cost < best) {
            best = cost;
            if (best_assignment) *best_assignment = assignment;
          }
          return;
        }
        for (std::size_t j = min_j; j < m; ++j) {
          assignment[i] = j;
          recurse(i + 1, j);
        }
      };
  recurse(0, 0);
  return best;
}

TEST(DpChainTest, MatchesBruteForceAcrossRrfValues) {
  for (double rrf : {0.05, 0.2, 0.5, 0.9, 1.0}) {
    PathWorld world(5);
    auto translator = trust_translator();
    EnvironmentView env(world.network, translator);
    spec::ServiceSpec s = chain_spec(rrf);
    auto chain = chain_of(s);

    auto result = plan_chain_dp(s, env, chain, world.path);
    ASSERT_TRUE(result.has_value()) << result.status().to_string();

    std::vector<std::size_t> expected;
    const double best = brute_force_best(s, env, chain, world.path, &expected);
    EXPECT_NEAR(result->expected_latency_s, best, 1e-12) << "rrf=" << rrf;
  }
}

TEST(DpChainTest, LowRrfPullsFilterTowardClient) {
  // A strong filter (rrf 0.1) should sit early on the path; a pass-through
  // (rrf 1.0) placement is latency-indifferent, but the filter must never
  // sit later than necessary when it reduces traffic.
  PathWorld world(6);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec s = chain_spec(0.1);
  auto result = plan_chain_dp(s, env, chain_of(s), world.path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->assignment[0], 0u);
  EXPECT_EQ(result->assignment[1], 0u);  // filter colocated with client
  EXPECT_EQ(result->assignment[2], 5u);
}

TEST(DpChainTest, AssignmentIsMonotone) {
  PathWorld world(7);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec s = chain_spec(0.3);
  auto result = plan_chain_dp(s, env, chain_of(s), world.path);
  ASSERT_TRUE(result.has_value());
  for (std::size_t i = 1; i < result->assignment.size(); ++i) {
    EXPECT_LE(result->assignment[i - 1], result->assignment[i]);
  }
}

TEST(DpChainTest, ConditionsRestrictPlacement) {
  // Filter requires trust >= 4: only path positions 3+ (trust = index+1).
  spec::ServiceSpec s =
      spec::SpecBuilder("Cond")
          .interval_property("TrustLevel", 1, 99)
          .interface("Entry", {})
          .interface("Mid", {})
          .interface("Api", {})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Mid", {})
          .done()
          .component("Filter")
          .implements("Mid", {})
          .requires_iface("Api", {})
          .rrf(0.1)
          .condition_ge("TrustLevel", PropertyValue::integer(4))
          .done()
          .component("Origin")
          .implements("Api", {})
          .done()
          .build();
  PathWorld world(6);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  auto chain = std::vector<const spec::ComponentDef*>{
      s.find_component("Client"), s.find_component("Filter"),
      s.find_component("Origin")};
  auto result = plan_chain_dp(s, env, chain, world.path);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->assignment[1], 3u);
}

TEST(DpChainTest, UnsatisfiableWhenNoFeasiblePlacement) {
  spec::ServiceSpec s =
      spec::SpecBuilder("Never")
          .interval_property("TrustLevel", 1, 999)
          .interface("Entry", {})
          .interface("Api", {})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {})
          .done()
          .component("Origin")
          .implements("Api", {})
          .condition_ge("TrustLevel", PropertyValue::integer(100))
          .done()
          .build();
  PathWorld world(4);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  auto chain = std::vector<const spec::ComponentDef*>{
      s.find_component("Client"), s.find_component("Origin")};
  auto result = plan_chain_dp(s, env, chain, world.path);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kUnsatisfiable);
}

TEST(DpChainTest, RejectsNonAdjacentPath) {
  PathWorld world(4);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec s = chain_spec(0.5);
  std::vector<net::NodeId> bogus = {world.path[0], world.path[2]};
  auto result = plan_chain_dp(s, env, chain_of(s), bogus);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(DpChainTest, SingleNodePathColocatesEverything) {
  PathWorld world(1);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec s = chain_spec(0.2);
  auto result = plan_chain_dp(s, env, chain_of(s), world.path);
  ASSERT_TRUE(result.has_value());
  for (std::size_t j : result->assignment) EXPECT_EQ(j, 0u);
}

TEST(DpChainTest, AgreesWithExhaustivePlannerOnPathNetworks) {
  // On a pure path network with a chain-shaped spec, the planner's
  // branch-and-bound search and the DP score placements with the same
  // latency model (CPU time plus RRF-discounted round trips).
  PathWorld world(4);
  auto translator = trust_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec s = chain_spec(0.2);

  auto dp = plan_chain_dp(s, env, chain_of(s), world.path);
  ASSERT_TRUE(dp.has_value());

  Planner planner(s, env);
  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.path.front();
  request.cold_view_penalty = 0.0;  // chain spec has no views anyway
  // The DP pins Origin to the last node; the search may place it anywhere,
  // so it can only match or beat the DP's pinned-endpoints answer.
  auto ex = planner.plan(request);
  ASSERT_TRUE(ex.has_value());
  EXPECT_LE(ex->metrics.expected_latency_s, dp->expected_latency_s + 1e-12);
}

}  // namespace
}  // namespace psf::planner
