// Hierarchical anytime planner: shared graph partitioning, the quotient
// cluster index and its admissible bounds, hierarchical-vs-flat optimality
// on small topologies, anytime deadline behavior, the chain-DP fast path,
// lazy route-row materialization, and the runtime's background improver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "planner/cluster.hpp"
#include "planner/hierarchy.hpp"
#include "planner/planner.hpp"
#include "spec/builder.hpp"

namespace {

using namespace psf;

net::Network waxman(std::size_t num_nodes, std::uint64_t seed) {
  net::WaxmanParams params;
  params.num_nodes = num_nodes;
  util::Rng rng(seed);
  return net::generate_waxman(params, rng);
}

// The mail service on a seeded Waxman topology with the planner_test trust
// pattern: node 0 is the trusted home, everyone else cycles trust 2..4.
struct WaxmanWorld {
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> existing;

  WaxmanWorld(std::size_t num_nodes, std::uint64_t seed) {
    network = waxman(num_nodes, seed);
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

  planner::PlanRequest request(planner::Objective objective) const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(2));
    req.client_node =
        net::NodeId{static_cast<std::uint32_t>(network.node_count() - 1)};
    req.max_depth = 4;
    req.objective = objective;
    return req;
  }
};

std::string describe_plan(const planner::DeploymentPlan& plan) {
  std::ostringstream oss;
  oss << "entry=" << plan.entry << "\n";
  for (const planner::Placement& p : plan.placements) {
    oss << p.component->name << "@" << p.node.value << " reuse="
        << p.reuse_existing << "\n";
  }
  return oss.str();
}

// ---- Shared graph partitioning ---------------------------------------------

TEST(PartitionGraphTest, CoversEveryNodeWithinCapacity) {
  const net::Network network = waxman(64, 11);
  const std::size_t parts = 8;
  const net::GraphPartition part = net::partition_graph(network, parts);

  ASSERT_EQ(part.part_of_node.size(), network.node_count());
  ASSERT_EQ(part.num_parts, parts);
  ASSERT_EQ(part.part_sizes.size(), parts);

  const std::size_t capacity =
      (network.node_count() + parts - 1) / parts;
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    EXPECT_LE(part.part_sizes[p], capacity) << "part " << p;
    total += part.part_sizes[p];
  }
  EXPECT_EQ(total, network.node_count());
  for (net::NodeId id : network.all_nodes()) {
    ASSERT_LT(part.part_of(id), parts);
  }
}

TEST(PartitionGraphTest, DeterministicAndCutStatsConsistent) {
  const net::Network network = waxman(48, 7);
  const net::GraphPartition a = net::partition_graph(network, 6);
  const net::GraphPartition b = net::partition_graph(network, 6);
  EXPECT_EQ(a.part_of_node, b.part_of_node);
  EXPECT_EQ(a.cut_links, b.cut_links);
  EXPECT_EQ(a.min_cut_latency_ns, b.min_cut_latency_ns);

  // Recompute the cut from scratch and compare.
  std::size_t cut = 0;
  std::int64_t min_latency = std::numeric_limits<std::int64_t>::max();
  for (net::LinkId id : network.all_links()) {
    const net::Link& link = network.link(id);
    if (a.part_of(link.a) == a.part_of(link.b)) continue;
    ++cut;
    min_latency = std::min(min_latency, link.latency.nanos());
  }
  EXPECT_EQ(a.cut_links, cut);
  EXPECT_EQ(a.min_cut_latency_ns, min_latency);
}

TEST(PartitionGraphTest, SimRegionWrapperAgrees) {
  // sim::partition_network is now a thin wrapper; both views of the same
  // partition must agree exactly.
  const net::Network network = waxman(40, 3);
  const net::GraphPartition part = net::partition_graph(network, 5);
  for (net::NodeId id : network.all_nodes()) {
    ASSERT_EQ(part.part_of(id), part.part_of_node[id.value]);
  }
}

// ---- ClusterIndex ----------------------------------------------------------

TEST(ClusterIndexTest, BorderNodesAreExactlyCutEndpoints) {
  const net::Network network = waxman(64, 21);
  const planner::ClusterIndex index(network, 8);

  std::vector<std::vector<net::NodeId>> expected(index.num_clusters());
  for (net::LinkId id : network.all_links()) {
    const net::Link& link = network.link(id);
    const auto ca = index.cluster_of(link.a);
    const auto cb = index.cluster_of(link.b);
    if (ca == cb) continue;
    expected[ca].push_back(link.a);
    expected[cb].push_back(link.b);
  }
  for (std::size_t c = 0; c < index.num_clusters(); ++c) {
    std::sort(expected[c].begin(), expected[c].end());
    expected[c].erase(std::unique(expected[c].begin(), expected[c].end()),
                      expected[c].end());
    EXPECT_EQ(index.border_nodes(c), expected[c]) << "cluster " << c;
  }
}

TEST(ClusterIndexTest, QuotientBoundsAreAdmissible) {
  const net::Network network = waxman(64, 21);
  const planner::ClusterIndex index(network, 8);

  // For every node pair, the quotient latency lower bound must not exceed
  // the true shortest-route latency, and the bandwidth upper bound must not
  // be below the route's real bottleneck — otherwise hierarchical pruning
  // could discard optimal plans.
  for (net::NodeId u : network.all_nodes()) {
    for (net::NodeId v : network.all_nodes()) {
      const auto cu = index.cluster_of(u);
      const auto cv = index.cluster_of(v);
      if (cu == cv) continue;
      const net::Route* route = network.cached_route(u, v);
      ASSERT_NE(route, nullptr);
      EXPECT_LE(index.latency_lb_s(cu, cv),
                route->total_latency.seconds() + 1e-12)
          << u.value << " -> " << v.value;
      EXPECT_GE(index.bandwidth_ub_bps(cu, cv),
                route->bottleneck_bandwidth_bps - 1e-6)
          << u.value << " -> " << v.value;
    }
  }
}

TEST(ClusterIndexTest, MembersPartitionTheTopology) {
  const net::Network network = waxman(50, 5);
  const planner::ClusterIndex index(network, 0 /* unused */ + 7);
  std::vector<bool> seen(network.node_count(), false);
  for (std::size_t c = 0; c < index.num_clusters(); ++c) {
    for (net::NodeId id : index.members(c)) {
      EXPECT_EQ(index.cluster_of(id), c);
      EXPECT_FALSE(seen[id.value]) << "node in two clusters";
      seen[id.value] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(ClusterIndexTest, DefaultClusterCountIsSqrtish) {
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(0), 1u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(1), 1u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(4), 2u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(100), 10u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(1000), 32u);
}

// ---- Refinement schedule ---------------------------------------------------

TEST(HierarchyScheduleTest, ClientClusterFirstWithZeroBound) {
  WaxmanWorld world(64, 21);
  const planner::ClusterIndex index(world.network, 8);
  const planner::PlanRequest request =
      world.request(planner::Objective::kMinLatency);
  const auto refinements = planner::build_refinements(
      index, world.spec, request, world.existing);

  ASSERT_EQ(refinements.size(), index.num_clusters());
  EXPECT_EQ(refinements[0].cluster, index.cluster_of(request.client_node));
  EXPECT_EQ(refinements[0].lower_bound, 0.0);
  for (std::size_t r = 2; r < refinements.size(); ++r) {
    EXPECT_LE(refinements[r - 1].lower_bound, refinements[r].lower_bound);
  }
  // Every refinement carries the fixed nodes: client + existing instances.
  for (const auto& ref : refinements) {
    EXPECT_TRUE(std::binary_search(ref.candidates.begin(),
                                   ref.candidates.end(),
                                   request.client_node));
    EXPECT_TRUE(std::binary_search(ref.candidates.begin(),
                                   ref.candidates.end(), net::NodeId{0}));
  }
  // And all candidate sets together cover the topology.
  std::vector<bool> covered(world.network.node_count(), false);
  for (const auto& ref : refinements) {
    for (net::NodeId id : ref.candidates) covered[id.value] = true;
  }
  EXPECT_TRUE(
      std::all_of(covered.begin(), covered.end(), [](bool b) { return b; }));
}

TEST(HierarchyScheduleTest, DiscountFloorUsesDepthAndMinRrf) {
  spec::ServiceSpec spec =
      spec::SpecBuilder("Chain")
          .interface("Api", {})
          .interface("Store", {})
          .component("Front")
              .implements("Api")
              .requires_iface("Store")
              .rrf(0.5)
              .done()
          .component("Back").implements("Store").done()
          .build();
  planner::PlanRequest request;
  request.max_depth = 3;
  // floor = min_rrf^(depth-1) = 0.5^2
  EXPECT_NEAR(planner::discount_floor(spec, request), 0.25, 1e-12);
  request.max_depth = 1;
  EXPECT_NEAR(planner::discount_floor(spec, request), 1.0, 1e-12);
}

// ---- Hierarchical search vs flat -------------------------------------------

TEST(HierarchicalSearchTest, MatchesFlatOptimalityOnSmallTopologies) {
  for (std::uint64_t seed : {2026ull, 7ull, 99ull}) {
    WaxmanWorld world(16, seed);
    for (planner::Objective objective :
         {planner::Objective::kMinLatency,
          planner::Objective::kMinDeploymentCost}) {
      planner::PlanRequest flat = world.request(objective);
      flat.search_mode = planner::SearchMode::kFlat;

      planner::PlanRequest hier = world.request(objective);
      hier.search_mode = planner::SearchMode::kHierarchical;
      hier.cluster_count = 4;

      planner::SearchStats flat_stats, hier_stats;
      auto a = world.planner->plan(flat, world.existing, &flat_stats);
      auto b = world.planner->plan(hier, world.existing, &hier_stats);

      const std::string label = "seed=" + std::to_string(seed) +
                                " objective=" +
                                planner::objective_name(objective);
      ASSERT_EQ(a.has_value(), b.has_value()) << label;
      if (!a.has_value()) continue;
      EXPECT_FALSE(flat_stats.used_hierarchy) << label;
      EXPECT_TRUE(hier_stats.used_hierarchy) << label;
      EXPECT_GE(hier_stats.clusters_total, 2u) << label;

      const double fa =
          planner::plan_primary_score(objective, a->metrics);
      const double fb =
          planner::plan_primary_score(objective, b->metrics);
      // Hierarchical search is exact within its restricted plan space, so
      // it can never beat flat; the gap gate is the bench's 5% bound.
      EXPECT_GE(fb, fa - 1e-12) << label;
      EXPECT_LE(fb, fa + 0.05 * std::max(1e-9, std::abs(fa))) << label;
    }
  }
}

TEST(HierarchicalSearchTest, DeterministicAcrossWorkerCounts) {
  WaxmanWorld world(72, 13);  // above the auto threshold
  planner::PlanRequest serial =
      world.request(planner::Objective::kMinLatency);
  serial.search_threads = 1;

  planner::PlanRequest parallel = serial;
  parallel.search_threads = 4;

  planner::SearchStats serial_stats, parallel_stats;
  auto a = world.planner->plan(serial, world.existing, &serial_stats);
  auto b = world.planner->plan(parallel, world.existing, &parallel_stats);
  ASSERT_TRUE(a.has_value()) << a.status().to_string();
  ASSERT_TRUE(b.has_value()) << b.status().to_string();
  EXPECT_TRUE(serial_stats.used_hierarchy);  // kAuto picked hierarchy
  EXPECT_TRUE(parallel_stats.used_hierarchy);
  EXPECT_EQ(describe_plan(*a), describe_plan(*b));
  EXPECT_EQ(a->metrics.expected_latency_s, b->metrics.expected_latency_s);
}

TEST(HierarchicalSearchTest, AutoThresholdSelectsMode) {
  WaxmanWorld small(16, 2026);
  planner::SearchStats stats;
  auto plan = small.planner->plan(
      small.request(planner::Objective::kMinLatency), small.existing, &stats);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(stats.used_hierarchy);

  WaxmanWorld large(72, 2026);
  auto plan2 = large.planner->plan(
      large.request(planner::Objective::kMinLatency), large.existing, &stats);
  ASSERT_TRUE(plan2.has_value());
  EXPECT_TRUE(stats.used_hierarchy);
}

// ---- Anytime deadline ------------------------------------------------------

TEST(AnytimeTest, DeadlineReturnsValidIncumbentAndNeverBeatsFullSearch) {
  WaxmanWorld world(32, 17);
  planner::PlanRequest full = world.request(planner::Objective::kMinLatency);
  full.search_mode = planner::SearchMode::kFlat;

  planner::PlanRequest truncated = full;
  truncated.deadline_budget = 1e-9;  // expires immediately after incumbent

  planner::SearchStats full_stats, truncated_stats;
  auto best = world.planner->plan(full, world.existing, &full_stats);
  auto incumbent =
      world.planner->plan(truncated, world.existing, &truncated_stats);

  ASSERT_TRUE(best.has_value()) << best.status().to_string();
  // The deadline never causes empty-handed returns: the search keeps going
  // until a first incumbent exists.
  ASSERT_TRUE(incumbent.has_value()) << incumbent.status().to_string();
  EXPECT_FALSE(full_stats.deadline_hit);
  EXPECT_TRUE(truncated_stats.deadline_hit);
  EXPECT_LE(truncated_stats.candidates_examined,
            full_stats.candidates_examined);
  // Anytime monotonicity endpoint: the full search is at least as good.
  EXPECT_LE(best->metrics.expected_latency_s,
            incumbent->metrics.expected_latency_s + 1e-12);
}

TEST(AnytimeTest, ZeroBudgetMeansNoDeadline) {
  WaxmanWorld world(16, 17);
  planner::PlanRequest request =
      world.request(planner::Objective::kMinLatency);
  request.deadline_budget = 0.0;
  planner::SearchStats stats;
  auto plan = world.planner->plan(request, world.existing, &stats);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(stats.deadline_hit);
}

// ---- Chain-DP fast path ----------------------------------------------------

// A view-free two-component chain the DP models exactly.
spec::ServiceSpec chain_spec() {
  return spec::SpecBuilder("ChainSvc")
      .interface("Api", {})
      .interface("Store", {})
      .component("Front")
          .implements("Api")
          .requires_iface("Store")
          .rrf(0.6)
          .cpu_per_request(200.0)
          .message_bytes(2048, 8192)
          .code_size(64 * 1024)
          .done()
      .component("Back")
          .implements("Store")
          .cpu_per_request(500.0)
          .message_bytes(1024, 4096)
          .code_size(128 * 1024)
          .done()
      .build();
}

net::Network path_network(std::size_t n) {
  net::Network network;
  for (std::size_t i = 0; i < n; ++i) {
    network.add_node("n" + std::to_string(i), 1e6);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Varied latencies/bandwidths so placement actually matters.
    network.add_link(net::NodeId{static_cast<std::uint32_t>(i)},
                     net::NodeId{static_cast<std::uint32_t>(i + 1)}, 50e6,
                     sim::Duration::from_micros(100 + 150 * (i % 3)));
  }
  return network;
}

TEST(ChainDpTest, FastPathMatchesFlatSearchOnPaths) {
  const spec::ServiceSpec spec = chain_spec();
  auto translator = std::make_shared<planner::CredentialMapTranslator>();
  for (std::size_t n : {4u, 6u, 8u}) {
    const net::Network network = path_network(n);
    planner::EnvironmentView env(network, *translator);
    planner::Planner planner(spec, env);

    planner::PlanRequest dp;
    dp.interface_name = "Api";
    dp.client_node = net::NodeId{0};
    dp.request_rate_rps = 10.0;
    dp.max_depth = 3;

    planner::PlanRequest search = dp;
    search.chain_dp = false;
    search.search_mode = planner::SearchMode::kFlat;

    planner::SearchStats dp_stats, search_stats;
    auto a = planner.plan(dp, {}, &dp_stats);
    auto b = planner.plan(search, {}, &search_stats);
    ASSERT_TRUE(a.has_value()) << a.status().to_string();
    ASSERT_TRUE(b.has_value()) << b.status().to_string();
    EXPECT_TRUE(dp_stats.used_chain_dp) << "n=" << n;
    EXPECT_FALSE(search_stats.used_chain_dp) << "n=" << n;
    EXPECT_NEAR(a->metrics.expected_latency_s, b->metrics.expected_latency_s,
                1e-9)
        << "n=" << n;
    ASSERT_EQ(a->placements.size(), b->placements.size()) << "n=" << n;
    EXPECT_EQ(a->placements[0].node, net::NodeId{0});
  }
}

TEST(ChainDpTest, IneligibleRequestsFallThroughToSearch) {
  const spec::ServiceSpec spec = chain_spec();
  auto translator = std::make_shared<planner::CredentialMapTranslator>();
  const net::Network network = path_network(6);
  planner::EnvironmentView env(network, *translator);
  planner::Planner planner(spec, env);

  planner::PlanRequest base;
  base.interface_name = "Api";
  base.client_node = net::NodeId{0};
  base.request_rate_rps = 10.0;
  base.max_depth = 3;

  // Client in the middle of the path: not an endpoint — not a chain walk.
  planner::PlanRequest middle = base;
  middle.client_node = net::NodeId{3};
  planner::SearchStats stats;
  auto plan = planner.plan(middle, {}, &stats);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(stats.used_chain_dp);

  // Wrong objective.
  planner::PlanRequest cost = base;
  cost.objective = planner::Objective::kMinDeploymentCost;
  plan = planner.plan(cost, {}, &stats);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(stats.used_chain_dp);

  // The mail spec (views + factors) on a path never takes the DP.
  WaxmanWorld world(10, 2026);
  planner::SearchStats mail_stats;
  auto mail_plan = world.planner->plan(
      world.request(planner::Objective::kMinLatency), world.existing,
      &mail_stats);
  ASSERT_TRUE(mail_plan.has_value());
  EXPECT_FALSE(mail_stats.used_chain_dp);
}

// ---- Lazy route rows -------------------------------------------------------

TEST(LazyRouteRowTest, RowsMaterializePerSourceOnDemand) {
  net::Network network = waxman(24, 9);
  EXPECT_EQ(network.route_rows_materialized(), 0u);

  const net::Route* r = network.cached_route(net::NodeId{3}, net::NodeId{17});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(network.route_rows_materialized(), 1u);

  // Same source, different target: no new row.
  network.cached_route(net::NodeId{3}, net::NodeId{5});
  EXPECT_EQ(network.route_rows_materialized(), 1u);

  network.cached_route(net::NodeId{4}, net::NodeId{5});
  EXPECT_EQ(network.route_rows_materialized(), 2u);

  network.precompute_routes();
  EXPECT_EQ(network.route_rows_materialized(), network.node_count());

  // Topology mutation invalidates every row.
  network.set_node_up(net::NodeId{7}, false);
  EXPECT_EQ(network.route_rows_materialized(), 0u);
  const net::Route* after =
      network.cached_route(net::NodeId{3}, net::NodeId{17});
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(network.route_rows_materialized(), 1u);
}

// Every cached route equals route()'s, link by link; between distinct
// endpoints route() is nullopt exactly when the cached links are empty (the
// contract SmockRuntime::send_bytes relies on). Returns the unreachable
// pairs seen.
std::size_t expect_rows_match_direct_routing(const net::Network& network) {
  std::size_t unreachable = 0;
  for (net::NodeId from : network.all_nodes()) {
    for (net::NodeId to : network.all_nodes()) {
      const net::Route* cached = network.cached_route(from, to);
      if (from == to) {
        EXPECT_TRUE(cached->local()) << from.value;
        continue;
      }
      const std::optional<net::Route> direct = network.route(from, to);
      EXPECT_EQ(direct.has_value(), !cached->links.empty())
          << from.value << "->" << to.value;
      if (!direct) {
        ++unreachable;
        continue;
      }
      EXPECT_EQ(cached->total_latency.nanos(), direct->total_latency.nanos())
          << from.value << "->" << to.value;
      EXPECT_EQ(cached->links, direct->links) << from.value << "->" << to.value;
      EXPECT_EQ(cached->bottleneck_bandwidth_bps,
                direct->bottleneck_bandwidth_bps)
          << from.value << "->" << to.value;
    }
  }
  return unreachable;
}

TEST(LazyRouteRowTest, CachedRowsMatchDirectRouting) {
  net::Network network = waxman(24, 9);
  EXPECT_EQ(expect_rows_match_direct_routing(network), 0u);
}

TEST(LazyRouteRowTest, CachedRowsMatchDirectRoutingWithDownNode) {
  net::Network network = waxman(24, 9);
  network.precompute_routes();
  network.set_node_up(net::NodeId{7}, false);
  // Every pair with the down node as an endpoint, at least.
  EXPECT_GE(expect_rows_match_direct_routing(network),
            2 * (network.node_count() - 1));
}

TEST(LazyRouteRowTest, CachedRowsMatchDirectRoutingWithDownLinks) {
  net::Network network = waxman(24, 9);
  network.precompute_routes();
  // One down link reroutes; cutting every link of node 5 isolates it.
  network.set_link_up(net::LinkId{0}, false);
  expect_rows_match_direct_routing(network);
  for (net::LinkId lid : network.links_of(net::NodeId{5})) {
    network.set_link_up(lid, false);
  }
  EXPECT_GE(expect_rows_match_direct_routing(network),
            2 * (network.node_count() - 1));
}

TEST(LazyRouteRowTest, ConcurrentReadersAreSafe) {
  // Exercised under TSan by tools/check.sh --planner: many threads fault in
  // overlapping rows concurrently; every returned route must be correct.
  net::Network network = waxman(32, 29);
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&network, &mismatches, t] {
      for (std::uint32_t from = 0; from < network.node_count(); ++from) {
        const std::uint32_t source =
            (from + static_cast<std::uint32_t>(t) * 7) %
            static_cast<std::uint32_t>(network.node_count());
        const net::Route* r = network.cached_route(
            net::NodeId{source},
            net::NodeId{(source + 1) %
                        static_cast<std::uint32_t>(network.node_count())});
        if (r == nullptr) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(network.route_rows_materialized(), network.node_count());
}

// ---- Runtime anytime improver ----------------------------------------------

struct AnytimeFixture : public ::testing::Test {
  void SetUp() override {
    net::Network network = waxman(48, 41);
    for (net::NodeId id : network.all_nodes()) {
      network.node(id).credentials.set(
          "trust", static_cast<std::int64_t>(2 + id.value % 3));
      network.node(id).credentials.set("secure", true);
    }
    network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
    for (net::LinkId id : network.all_links()) {
      network.link(id).credentials.set("secure", true);
    }
    fw = std::make_unique<core::Framework>(std::move(network));
    config = std::make_shared<mail::MailServiceConfig>();
    ASSERT_TRUE(
        mail::register_mail_factories(fw->runtime().factories(), config)
            .is_ok());
    auto registration = mail::mail_registration(net::NodeId{0});
    registration.anytime_deadline_s = 1e-9;  // truncate at first incumbent
    auto st =
        fw->register_service(std::move(registration), mail::mail_translator());
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  }

  planner::PlanRequest defaults() {
    planner::PlanRequest d;
    d.interface_name = "ClientInterface";
    d.required_properties.emplace_back("TrustLevel",
                                       spec::PropertyValue::integer(2));
    d.request_rate_rps = 20.0;
    d.client_node = net::NodeId{47};
    d.search_mode = planner::SearchMode::kFlat;
    return d;
  }

  runtime::AccessOutcome access() {
    runtime::AccessOutcome out;
    bool done = false;
    fw->server().request_access(
        "SecureMail", defaults(),
        [&](util::Expected<runtime::AccessOutcome> result) {
          ASSERT_TRUE(result.has_value()) << result.status().to_string();
          out = std::move(result).value();
          done = true;
        });
    fw->run();
    EXPECT_TRUE(done);
    return out;
  }

  std::size_t drain() {
    bool drained = false;
    fw->server().drain_improvements([&] { drained = true; });
    fw->run();
    EXPECT_TRUE(drained);
    return fw->server().pending_improvements();
  }

  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
};

TEST_F(AnytimeFixture, TruncatedAccessEnqueuesImprovementJob) {
  const runtime::AccessOutcome out = access();
  EXPECT_TRUE(out.search.deadline_hit);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(fw->server().pending_improvements(), 1u);
  EXPECT_EQ(fw->server().anytime_telemetry().jobs_enqueued, 1u);
}

TEST_F(AnytimeFixture, DrainImprovesOrConfirmsAndStaysMonotonic) {
  const runtime::AccessOutcome truncated = access();
  ASSERT_TRUE(truncated.search.deadline_hit);
  ASSERT_EQ(drain(), 0u);

  const runtime::AnytimeTelemetry& t = fw->server().anytime_telemetry();
  EXPECT_EQ(t.improved_swaps + t.no_better, 1u);
  EXPECT_EQ(t.nonmonotonic_refused, 0u);
  EXPECT_EQ(t.discarded_stale, 0u);

  // A later identical client binds the (possibly swapped) cached plan, and
  // its score is never worse than the truncated incumbent's.
  const runtime::AccessOutcome warm = access();
  EXPECT_TRUE(warm.cache_hit);
  const double truncated_score = planner::plan_primary_score(
      planner::Objective::kMinLatency, truncated.plan.metrics);
  const double warm_score = planner::plan_primary_score(
      planner::Objective::kMinLatency, warm.plan.metrics);
  EXPECT_LE(warm_score, truncated_score + 1e-12);
  if (t.improved_swaps == 1) {
    EXPECT_LT(warm_score, truncated_score);
    ASSERT_EQ(t.swap_primary_scores.size(), 1u);
    EXPECT_NEAR(t.swap_primary_scores[0], warm_score, 1e-12);
  }
}

TEST_F(AnytimeFixture, EpochBumpDiscardsStaleImprovements) {
  access();
  ASSERT_EQ(fw->server().pending_improvements(), 1u);

  // The environment changes before the improver runs: the job must be
  // discarded, never deployed over the new world.
  fw->server().invalidate_cached_plans();
  ASSERT_EQ(drain(), 0u);
  const runtime::AnytimeTelemetry& t = fw->server().anytime_telemetry();
  EXPECT_EQ(t.discarded_stale, 1u);
  EXPECT_EQ(t.improved_swaps, 0u);

  // Zero stale binds: the next identical access is cold (epoch moved), and
  // it re-enqueues its own improvement under the new epoch.
  const runtime::AccessOutcome second = access();
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(fw->server().pending_improvements(), 1u);
  ASSERT_EQ(drain(), 0u);
  EXPECT_EQ(t.nonmonotonic_refused, 0u);
  // One discarded job (stale epoch) + one resolved job (swap or confirm).
  EXPECT_EQ(t.discarded_stale, 1u);
  EXPECT_EQ(t.improved_swaps + t.no_better, 1u);
}

}  // namespace
