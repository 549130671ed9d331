// Refinement schedule for the hierarchical (two-level) mapping search.
//
// Planner::plan searches one ClusterRefinement at a time, in order: an
// exact BnB search restricted to the refinement's candidate node set.
// Candidate sets are built so that
//  - the client cluster's refinement (always rank 0) can express every plan
//    confined to the client's own cluster plus existing instances, and
//  - cluster c's refinement can express every plan that stages components
//    in c, along the quotient path back to the client, or in the client
//    cluster itself.
// Every node of the topology appears in at least one refinement, so a
// satisfiable request is never missed; what hierarchical search gives up is
// plans spanning two non-client clusters that are not on each other's
// quotient path (the measured optimality gap, gated <= 5% in the bench).
#pragma once

#include <vector>

#include "planner/cluster.hpp"
#include "planner/planner.hpp"

namespace psf::planner {

struct ClusterRefinement {
  ClusterIndex::ClusterId cluster = 0;
  std::vector<net::NodeId> candidates;  // id-sorted, duplicate-free
};

// One refinement per cluster, ordered client cluster first, then ascending
// by quotient latency from the client's cluster (kMinLatency only; other
// objectives keep cluster id order), ties by cluster id. Nearby clusters
// run early so their plans tighten the incumbent for the far ones.
// Deterministic for a fixed network and request.
std::vector<ClusterRefinement> build_refinements(
    const ClusterIndex& index, const PlanRequest& request,
    const std::vector<ExistingInstance>& existing);

}  // namespace psf::planner
