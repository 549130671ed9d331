// AdaptationController: the closed monitor -> repair -> live-cutover loop.
// Violations are classified against tracked plans, Planner::repair pins
// survivors and re-searches the affected neighborhood, and the runtime
// migrates component state sync-then-cutover with a drain window for
// stragglers. Also covers SmockRuntime::migrate directly and the plan-cache
// guarantee that a stale handle never binds a migrated-away instance.
#include <gtest/gtest.h>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "mail/view_server.hpp"
#include "runtime/adaptation.hpp"

namespace psf {
namespace {

struct AdaptationControllerFixture : public ::testing::Test {
  void SetUp() override {
    net::Network network = core::case_study_network(&sites);
    core::FrameworkOptions options;
    options.lookup_node = sites.new_york[0];
    options.server_node = sites.new_york[0];
    fw = std::make_unique<core::Framework>(std::move(network), options);
    config = std::make_shared<mail::MailServiceConfig>();
    ASSERT_TRUE(
        mail::register_mail_factories(fw->runtime().factories(), config)
            .is_ok());
    auto st = fw->register_service(mail::mail_registration(sites.mail_home),
                                   mail::mail_translator());
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    runtime::AdaptationParams params;
    params.drain = sim::Duration::from_millis(200);
    ctl = std::make_unique<runtime::AdaptationController>(
        fw->runtime(), fw->server(), fw->monitor(), "SecureMail", params);
  }

  planner::PlanRequest sd_request() {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    request.client_node = sites.sd_client;
    request.request_rate_rps = 50.0;
    return request;
  }

  runtime::AccessOutcome bind(const planner::PlanRequest& request) {
    auto proxy = fw->make_proxy(request.client_node, "SecureMail", request);
    util::Status status = util::internal_error("");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(300));
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return proxy->outcome();
  }

  // Sends one sensitivity-2 message from/to `user` through `entry`.
  void send_mail(runtime::RuntimeInstanceId entry, const std::string& user,
                 std::uint64_t id, net::NodeId from = net::NodeId{}) {
    if (!from.valid()) from = sites.sd_client;
    auto body = std::make_shared<mail::SendBody>();
    body->message.id = id;
    body->message.from = user;
    body->message.to = user;
    body->message.sensitivity = 2;
    body->message.plaintext = {'h', 'i'};
    runtime::Request send;
    send.op = mail::ops::kSend;
    send.body = body;
    send.wire_bytes = mail::send_wire_bytes(body->message);
    bool done = false;
    fw->runtime().invoke_from_node(from, entry, std::move(send),
                                   [&done](runtime::Response r) {
                                     EXPECT_TRUE(r.ok) << r.error;
                                     done = true;
                                   });
    ASSERT_TRUE(fw->run_until_condition([&done]() { return done; },
                                        sim::Duration::from_seconds(30)));
  }

  std::size_t receive_count(runtime::RuntimeInstanceId entry,
                            const std::string& user) {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = user;
    runtime::Request recv;
    recv.op = mail::ops::kReceive;
    recv.body = body;
    recv.wire_bytes = 256;
    bool done = false;
    std::size_t got = 0;
    fw->runtime().invoke_from_node(
        sites.sd_client, entry, std::move(recv), [&](runtime::Response r) {
          EXPECT_TRUE(r.ok) << r.error;
          const auto* result = runtime::body_as<mail::ReceiveResultBody>(r);
          if (result != nullptr) got = result->messages.size();
          done = true;
        });
    EXPECT_TRUE(fw->run_until_condition([&done]() { return done; },
                                        sim::Duration::from_seconds(30)));
    return got;
  }

  // The runtime id + node of the tracked plan's ViewMailServer placement.
  std::pair<runtime::RuntimeInstanceId, net::NodeId> tracked_view(
      std::size_t index) {
    const auto& outcome = ctl->current_outcome(index);
    for (std::size_t i = 0; i < outcome.plan.placements.size(); ++i) {
      if (outcome.plan.placements[i].component->name == "ViewMailServer") {
        return {outcome.instances[i], outcome.plan.placements[i].node};
      }
    }
    return {0, net::NodeId{}};
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
  std::unique_ptr<runtime::AdaptationController> ctl;
};

TEST_F(AdaptationControllerFixture, IrrelevantChangeIsStillValid) {
  auto request = sd_request();
  auto outcome = bind(request);
  ctl->track(outcome, request);

  fw->monitor().set_node_credential(sites.seattle[1], "trust",
                                    std::int64_t{3});
  fw->run_for(sim::Duration::from_seconds(5));

  ASSERT_FALSE(ctl->events().empty());
  EXPECT_EQ(ctl->events().back().outcome,
            runtime::AdaptationEvent::Outcome::kStillValid);
  EXPECT_EQ(ctl->stats().repairs_triggered, 0u);
  EXPECT_GE(ctl->stats().events_observed, 1u);
}

TEST_F(AdaptationControllerFixture, CapacitySqueezeMigratesViewWithState) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_NE(old_view, 0u);
  ASSERT_EQ(old_node, sites.sd_client);  // trust-4 client: local warm view

  // Warm the view so the migration has observable state to carry.
  config->keys->provision_user("sam", mail::kMaxSensitivity);
  send_mail(entry, "sam", 1);

  // Flash crowd on the client machine: capacity drops to where the entry
  // still fits but the co-located view does not. The controller must move
  // the view off-node and carry its cache along.
  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));

  bool repaired = false;
  for (const auto& event : ctl->events()) {
    if (event.outcome == runtime::AdaptationEvent::Outcome::kRepaired &&
        event.tracked_index == index) {
      repaired = true;
      EXPECT_GE(event.state_transfers, 1u) << event.detail;
    }
  }
  ASSERT_TRUE(repaired);
  EXPECT_EQ(ctl->stats().repaired, 1u);
  EXPECT_GE(ctl->stats().state_transfers, 1u);
  EXPECT_GT(fw->runtime().stats().state_transfer_bytes, 0u);

  const auto [new_view, new_node] = tracked_view(index);
  ASSERT_NE(new_view, 0u);
  EXPECT_NE(new_view, old_view);
  EXPECT_NE(new_node, sites.sd_client);

  // Past the drain window the replaced view is gone; the grafted entry
  // serves the warm cache from the new placement.
  fw->run_for(sim::Duration::from_seconds(1));
  EXPECT_FALSE(fw->runtime().exists(old_view));
  EXPECT_TRUE(fw->runtime().exists(entry));
  EXPECT_GE(receive_count(entry, "sam"), 1u)
      << "migrated view lost its warm state";

  // Repair telemetry: the incremental path ran without full fallback.
  EXPECT_GE(fw->server().repair_telemetry().repairs_succeeded, 1u);
  EXPECT_EQ(fw->server().repair_telemetry().full_fallbacks, 0u);
}

TEST_F(AdaptationControllerFixture, StaleHandleNeverBindsMigratedAwayView) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_NE(old_view, 0u);

  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));
  ASSERT_GE(ctl->stats().repaired, 1u);

  // The retired view must be out of the plan cache and reuse pool the
  // moment cutover completes — a second client binding the same fingerprint
  // must get a fully live chain that never references it.
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    EXPECT_NE(inst.runtime_id, old_view);
  }
  auto later = bind(sd_request());
  for (auto id : later.instances) {
    EXPECT_NE(id, old_view);
    EXPECT_TRUE(fw->runtime().exists(id));
  }
}

TEST_F(AdaptationControllerFixture, NodeDeathAfterMigrationRepairsAgain) {
  // sd-0 is San Diego's only WAN gateway — killing it would legitimately
  // sever the site. Cap its CPU below the view's footprint up front so the
  // first repair migrates the view to sd-1, a host that CAN die repairably.
  fw->monitor().set_node_capacity(sites.san_diego[0], 2.5e3);
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;

  // First repair: squeeze pushes the view off the client node; the only
  // node with both trust 4 and room for it is sd-1.
  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));
  ASSERT_EQ(ctl->stats().repaired, 1u);
  const auto [view_after_squeeze, host] = tracked_view(index);
  ASSERT_NE(view_after_squeeze, 0u);
  ASSERT_EQ(host, sites.san_diego[1]);

  // Second repair: the migrated view's host dies outright. No state to
  // transfer (the source is gone) — the chain is rebuilt from survivors,
  // with the replacement placements landing wherever trust and capacity
  // still allow (New York, across the surviving gateway).
  const std::uint64_t transfers_before = ctl->stats().state_transfers;
  fw->fail_node(host);
  fw->run_for(sim::Duration::from_seconds(60));

  ASSERT_EQ(ctl->stats().repaired, 2u)
      << (ctl->events().empty() ? "no events" : ctl->events().back().detail);
  EXPECT_EQ(ctl->stats().state_transfers, transfers_before);
  const auto& current = ctl->current_outcome(index);
  for (std::size_t i = 0; i < current.plan.placements.size(); ++i) {
    EXPECT_NE(current.plan.placements[i].node, host);
    EXPECT_TRUE(fw->runtime().exists(current.instances[i]));
  }

  // The original entry still answers through the twice-grafted chain.
  config->keys->provision_user("sam", mail::kMaxSensitivity);
  send_mail(entry, "sam", 7);
}

TEST_F(AdaptationControllerFixture, RollingDrainMovesDeploymentOffNode) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_EQ(old_node, sites.sd_client);

  // Maintenance drain: the node stays up, but placement must treat it as
  // dead. The pinned entry is the one component allowed to remain (it IS
  // the client).
  ctl->drain_node(sites.sd_client);
  fw->run_for(sim::Duration::from_seconds(60));

  EXPECT_TRUE(ctl->draining(sites.sd_client));
  EXPECT_EQ(ctl->stats().drains_requested, 1u);
  ASSERT_GE(ctl->stats().repaired, 1u);
  const auto [new_view, new_node] = tracked_view(index);
  ASSERT_NE(new_view, 0u);
  EXPECT_NE(new_node, sites.sd_client);
  // Live migration, not a cold rebuild: the drain scenario's whole point.
  EXPECT_GE(ctl->stats().state_transfers, 1u);

  fw->run_for(sim::Duration::from_seconds(1));
  EXPECT_FALSE(fw->runtime().exists(old_view));
  EXPECT_TRUE(fw->runtime().exists(entry));

  // Maintenance over: the node is placeable again and the current plan is
  // already valid, so nothing churns.
  ctl->undrain_node(sites.sd_client);
  const std::uint64_t repaired_before = ctl->stats().repaired;
  ctl->check_now();
  EXPECT_EQ(ctl->stats().repaired, repaired_before);
  EXPECT_EQ(ctl->events().back().outcome,
            runtime::AdaptationEvent::Outcome::kStillValid);
}

TEST_F(AdaptationControllerFixture,
       CoalescedRepairsOfTwoTrackedClientsBothCutOver) {
  // Two clients bound with the same request share one plan shape, so the
  // drain asks for two identical repairs and the server coalesces them:
  // both cutovers graft from the same freshly deployed template entry.
  auto request = sd_request();
  auto first = bind(request);
  auto second = bind(request);
  const std::size_t i0 = ctl->track(first, request);
  const std::size_t i1 = ctl->track(second, request);

  ctl->drain_node(sites.sd_client);
  fw->run_for(sim::Duration::from_seconds(60));

  EXPECT_EQ(ctl->stats().failed, 0u);
  EXPECT_EQ(ctl->stats().repaired, 2u);
  // Both cutovers share one fresh chain, so each of its two (old, new)
  // state pairs moves once, not once per cutover.
  EXPECT_EQ(ctl->stats().state_transfers, 2u);
  for (const std::size_t index : {i0, i1}) {
    const auto [view, node] = tracked_view(index);
    ASSERT_NE(view, 0u);
    EXPECT_TRUE(fw->runtime().exists(view));
    EXPECT_NE(node, sites.sd_client);
  }
  // Each client keeps its live entry; the shared template is gone, and it
  // was retired exactly once (a second uninstall would have failed the
  // cutover).
  EXPECT_TRUE(fw->runtime().exists(first.entry));
  EXPECT_TRUE(fw->runtime().exists(second.entry));
  const std::string& entry_type = fw->runtime().instance(first.entry).def->name;
  std::size_t live_entries = 0;
  for (const runtime::RuntimeInstanceId id : fw->runtime().instance_ids()) {
    if (fw->runtime().instance(id).def->name == entry_type) ++live_entries;
  }
  EXPECT_EQ(live_entries, 1u);
  const runtime::RuntimeInstanceId shared_view = tracked_view(i0).first;
  EXPECT_EQ(tracked_view(i1).first, shared_view);
  EXPECT_EQ(fw->runtime().instance(first.entry).wires,
            fw->runtime().instance(second.entry).wires);
}

TEST_F(AdaptationControllerFixture, SiteTrustLossIsUnsatisfiable) {
  auto request = sd_request();
  auto outcome = bind(request);
  ctl->track(outcome, request);

  for (net::NodeId n : sites.san_diego) {
    fw->monitor().set_node_credential(n, "trust", std::int64_t{2});
  }
  fw->run_for(sim::Duration::from_seconds(30));

  bool unsatisfiable_seen = false;
  for (const auto& event : ctl->events()) {
    if (event.outcome == runtime::AdaptationEvent::Outcome::kUnsatisfiable) {
      unsatisfiable_seen = true;
      // The restricted repair could not fix a whole-site trust drop; the
      // full-replan fallback ran and failed too.
      EXPECT_TRUE(event.fell_back_to_full) << event.detail;
    }
  }
  EXPECT_TRUE(unsatisfiable_seen);
  EXPECT_EQ(ctl->stats().repaired, 0u);
}

TEST_F(AdaptationControllerFixture, MigrateMovesStateAndRetiresSource) {
  // SmockRuntime::migrate directly: install-at-target, start, sync state
  // through prepare_migration/export/import, hand back the new id, then
  // uninstall the source after the drain window.
  auto request = sd_request();
  auto outcome = bind(request);
  runtime::RuntimeInstanceId view = 0;
  for (std::size_t i = 0; i < outcome.plan.placements.size(); ++i) {
    if (outcome.plan.placements[i].component->name == "ViewMailServer") {
      view = outcome.instances[i];
    }
  }
  ASSERT_NE(view, 0u);
  config->keys->provision_user("sam", mail::kMaxSensitivity);
  send_mail(outcome.entry, "sam", 3);

  net::NodeId target;
  for (net::NodeId n : sites.san_diego) {
    if (!(n == fw->runtime().instance(view).node)) {
      target = n;
      break;
    }
  }
  ASSERT_TRUE(target.valid());

  util::Expected<runtime::RuntimeInstanceId> moved =
      util::internal_error("incomplete");
  bool done = false;
  fw->runtime().migrate(view, target, sites.mail_home,
                        sim::Duration::from_millis(100),
                        [&](util::Expected<runtime::RuntimeInstanceId> r) {
                          moved = std::move(r);
                          done = true;
                        });
  ASSERT_TRUE(fw->run_until_condition([&done]() { return done; },
                                      sim::Duration::from_seconds(30)));
  ASSERT_TRUE(moved.has_value()) << moved.status().to_string();
  EXPECT_TRUE(fw->runtime().exists(*moved));
  EXPECT_EQ(fw->runtime().instance(*moved).node, target);
  EXPECT_EQ(fw->runtime().stats().migrations, 1u);
  EXPECT_GT(fw->runtime().stats().state_transfer_bytes, 0u);

  // The copy carries the warm cache; the source drains away.
  const auto* copy = dynamic_cast<const mail::ViewMailServerComponent*>(
      fw->runtime().instance(*moved).component.get());
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->cached_inbox_size("sam"), 1u);
  EXPECT_TRUE(fw->runtime().exists(view));  // still draining
  fw->run_for(sim::Duration::from_millis(200));
  EXPECT_FALSE(fw->runtime().exists(view));
}

}  // namespace
}  // namespace psf
