#include "runtime/monitor.hpp"

namespace psf::runtime {

// Every mutator routes through the Network setters (not direct field
// writes): those invalidate the all-pairs route cache, so pointers handed
// out by cached_route() are never stale after a monitor-reported change.

void NetworkMonitor::set_link_bandwidth(net::LinkId link, double bps) {
  network_.set_link_bandwidth(link, bps);
  notify({ChangeKind::kLinkBandwidth, link, {}});
}

void NetworkMonitor::set_link_latency(net::LinkId link,
                                      sim::Duration latency) {
  network_.set_link_latency(link, latency);
  notify({ChangeKind::kLinkLatency, link, {}});
}

void NetworkMonitor::set_link_credential(net::LinkId link,
                                         const std::string& name,
                                         net::CredentialValue value) {
  network_.link(link).credentials.set(name, std::move(value));
  network_.invalidate_routes();
  notify({ChangeKind::kLinkCredential, link, {}});
}

void NetworkMonitor::set_node_credential(net::NodeId node,
                                         const std::string& name,
                                         net::CredentialValue value) {
  network_.node(node).credentials.set(name, std::move(value));
  network_.invalidate_routes();
  notify({ChangeKind::kNodeCredential, {}, node});
}

void NetworkMonitor::set_node_capacity(net::NodeId node, double cpu_capacity) {
  PSF_CHECK(cpu_capacity > 0.0);
  network_.node(node).cpu_capacity = cpu_capacity;
  network_.invalidate_routes();
  notify({ChangeKind::kNodeCapacity, {}, node});
}

void NetworkMonitor::report_node_failure(net::NodeId node) {
  // Belief, not physical state: a lease can expire because the node is
  // partitioned, not dead, and must be able to rejoin when renewals resume.
  // Physical down-state is set by the fault injector (Framework::crash_node).
  notify({ChangeKind::kNodeFailure, {}, node});
}

void NetworkMonitor::fail_link(net::LinkId link) {
  if (!network_.link_up(link)) return;
  network_.set_link_up(link, false);
  notify({ChangeKind::kLinkState, link, {}});
}

void NetworkMonitor::heal_link(net::LinkId link) {
  if (network_.link_up(link)) return;
  network_.set_link_up(link, true);
  notify({ChangeKind::kLinkState, link, {}});
}

void NetworkMonitor::set_link_loss(net::LinkId link, double loss) {
  network_.set_link_loss(link, loss);
  notify({ChangeKind::kLinkLoss, link, {}});
}

std::vector<net::LinkId> NetworkMonitor::partition(
    const std::vector<net::NodeId>& side_a,
    const std::vector<net::NodeId>& side_b) {
  auto in = [](const std::vector<net::NodeId>& set, net::NodeId n) {
    for (net::NodeId m : set) {
      if (m == n) return true;
    }
    return false;
  };
  std::vector<net::LinkId> severed;
  for (net::LinkId lid : network_.all_links()) {
    const net::Link& l = network_.link(lid);
    if (!l.up) continue;
    const bool crosses = (in(side_a, l.a) && in(side_b, l.b)) ||
                         (in(side_a, l.b) && in(side_b, l.a));
    if (!crosses) continue;
    fail_link(lid);
    severed.push_back(lid);
  }
  return severed;
}

void NetworkMonitor::schedule_change(
    sim::Duration delay, std::function<void(NetworkMonitor&)> change) {
  sim_.schedule(delay, [this, change = std::move(change)]() {
    change(*this);
  });
}

}  // namespace psf::runtime
