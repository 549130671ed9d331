// Dynamic-programming planner for chain-shaped linkage graphs mapped onto a
// network path.
//
// The paper (§3.3): "For the case where all component graphs are chains, an
// efficient dynamic programming algorithm is described and evaluated in
// [13]" — i.e. CANS (Fu, Shi, Akkerman, Karamcheti, USITS'01). This module
// implements that algorithm: given a component chain C1..Ck and a node path
// n1..nm (typically the route from the client to the service's home node),
// it finds the order-preserving assignment minimizing expected request
// latency in O(k · m²) instead of the exhaustive planner's exponential
// search. Planner::plan never calls it: it is the test oracle the search is
// checked against on path topologies (tests/dp_chain_test.cpp,
// tests/hierarchy_test.cpp, bench/planner_scaling section C).
//
// Scope notes (matching what CANS handled): installation conditions and
// pairwise property compatibility (with modification rules across the links
// between consecutive components) are enforced; transparent pass-through
// inheritance is approximated by skipping requirements a transparent
// component cannot decide locally. For general graphs use Planner.
#pragma once

#include <vector>

#include "planner/environment.hpp"
#include "spec/model.hpp"
#include "util/status.hpp"

namespace psf::planner {

struct ChainPlanOptions {
  double request_rate_rps = 1.0;
  // Pin the first component to the first path node (the client's machine)
  // and the last component to the last path node (the service home).
  bool pin_first = true;
  bool pin_last = true;
};

struct ChainPlanResult {
  // assignment[i] = path index hosting chain[i]; non-decreasing.
  std::vector<std::size_t> assignment;
  double expected_latency_s = 0.0;
  // Exploration diagnostics: (component, position) pairs the feasibility
  // test rejected, by cause — the DP's analogue of the search's rejection
  // counters.
  std::uint64_t rejected_condition = 0;
  std::uint64_t rejected_node_capacity = 0;
  std::uint64_t rejected_instance_capacity = 0;
};

util::Expected<ChainPlanResult> plan_chain_dp(
    const spec::ServiceSpec& spec, const EnvironmentView& env,
    const std::vector<const spec::ComponentDef*>& chain,
    const std::vector<net::NodeId>& path, const ChainPlanOptions& options = {});

}  // namespace psf::planner
