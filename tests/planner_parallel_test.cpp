// The planner's concurrent entry point: Planner::plan_many runs independent
// plan() calls on a thread pool, all reading one Planner and faulting in the
// network's lazy route rows from several threads at once. Its results must
// equal serial plan() calls exactly — same placements, wires and metrics,
// same error for an unsatisfiable request — at every thread count, with or
// without bound pruning, on every objective. Run under TSan by
// tools/check.sh and the CI tsan job.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "planner/planner.hpp"
#include "waxman_world.hpp"

namespace psf {
namespace {

using test::expect_same_plan;
using test::WaxmanWorld;

constexpr planner::Objective kObjectives[] = {
    planner::Objective::kMinLatency, planner::Objective::kMinDeploymentCost,
    planner::Objective::kMaxCapacity};

// One request per (client node, objective, required TrustLevel). On the
// 12-node world TrustLevel 2 is satisfiable from every client, 3 from some
// and 5 from none, so a batch mixes plans with unsatisfiable errors and a
// result landing in the wrong slot shows.
std::vector<planner::PlanRequest> every_client_objective_and_trust(
    const WaxmanWorld& world, bool bound_pruning) {
  std::vector<planner::PlanRequest> requests;
  for (net::NodeId client : world.network.all_nodes()) {
    for (planner::Objective objective : kObjectives) {
      for (std::int64_t trust : {2, 3, 5}) {
        planner::PlanRequest request = world.request_from(client, objective);
        request.required_properties.front().second =
            spec::PropertyValue::integer(trust);
        request.bound_pruning = bound_pruning;
        requests.push_back(request);
      }
    }
  }
  return requests;
}

void expect_same_result(const util::Expected<planner::DeploymentPlan>& a,
                        const util::Expected<planner::DeploymentPlan>& b,
                        const std::string& label) {
  ASSERT_EQ(a.has_value(), b.has_value()) << label;
  if (a.has_value()) {
    expect_same_plan(*a, *b, label);
  } else {
    EXPECT_EQ(a.status().to_string(), b.status().to_string()) << label;
  }
}

TEST(PlannerParallelTest, PlanManyEqualsSerialPlanAtEveryThreadCount) {
  constexpr std::size_t kNodes = 12;
  constexpr std::uint64_t kSeed = 2026;
  for (bool bound_pruning : {true, false}) {
    // Serial reference on its own world, so each plan_many run below starts
    // from cold route rows and the pool threads fault them in concurrently.
    WaxmanWorld reference(kNodes, kSeed);
    const auto requests = every_client_objective_and_trust(reference, bound_pruning);
    std::vector<util::Expected<planner::DeploymentPlan>> serial;
    for (const planner::PlanRequest& request : requests) {
      serial.push_back(reference.planner->plan(request, reference.existing));
    }
    std::size_t planned = 0;
    for (const auto& result : serial) planned += result.has_value() ? 1 : 0;
    ASSERT_GT(planned, 0u) << "every request unsatisfiable";
    ASSERT_LT(planned, serial.size()) << "no unsatisfiable request";

    // 0 = hardware concurrency (capped at the request count).
    for (std::size_t threads : {1u, 2u, 4u, 0u}) {
      WaxmanWorld world(kNodes, kSeed);
      auto parallel =
          world.planner->plan_many(requests, world.existing, threads);
      ASSERT_EQ(parallel.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        expect_same_result(
            parallel[i], serial[i],
            "threads=" + std::to_string(threads) +
                " bound_pruning=" + std::to_string(bound_pruning) +
                " client=" + std::to_string(requests[i].client_node.value) +
                " trust=" +
                requests[i].required_properties.front().second.to_string() +
                " objective=" +
                planner::objective_name(requests[i].objective));
      }
    }
  }
}

TEST(PlannerParallelTest, RepeatedPlanManyOnOneWarmPlannerIsStable) {
  // A second batch on the same Planner reads route rows the first batch
  // materialized; it must not see anything the first left behind.
  WaxmanWorld world(10, 7);
  const auto requests = every_client_objective_and_trust(world, true);
  auto first = world.planner->plan_many(requests, world.existing, 4);
  auto second = world.planner->plan_many(requests, world.existing, 4);
  ASSERT_EQ(first.size(), requests.size());
  ASSERT_EQ(second.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_result(first[i], second[i], "request " + std::to_string(i));
  }
}

}  // namespace
}  // namespace psf
