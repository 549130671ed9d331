// Mail service edge cases: batching limits, forwarding of server-
// authoritative operations through views, malformed payloads, replica
// registration relays, wire-size helpers.
#include <gtest/gtest.h>

#include "mail/client.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/server.hpp"
#include "mail/view_server.hpp"

namespace psf::mail {
namespace {

struct MailEdgeFixture : public ::testing::Test {
  MailEdgeFixture() : runtime(sim, network) {
    net::Credentials creds;
    creds.set("trust", std::int64_t{5});
    creds.set("secure", true);
    node = network.add_node("n", 1e6, creds);

    config = std::make_shared<MailServiceConfig>();
    spec = std::make_unique<spec::ServiceSpec>(mail_service_spec());
    PSF_CHECK(register_mail_factories(runtime.factories(), config).is_ok());
  }

  runtime::RuntimeInstanceId install(const std::string& type,
                                     std::int64_t trust = 0) {
    planner::FactorBindings factors;
    if (trust > 0) {
      factors.values["TrustLevel"] = spec::PropertyValue::integer(trust);
    }
    runtime::RuntimeInstanceId out = 0;
    runtime.install(*spec->find_component(type), node, factors, node,
                    [&out](util::Expected<runtime::RuntimeInstanceId> id) {
                      PSF_CHECK(id.has_value());
                      out = *id;
                    });
    sim.run();
    return out;
  }

  runtime::Response invoke(runtime::RuntimeInstanceId target,
                           runtime::Request request) {
    runtime::Response out;
    bool done = false;
    runtime.invoke_from_node(node, target, std::move(request),
                             [&](runtime::Response r) {
                               out = std::move(r);
                               done = true;
                             });
    sim.run();
    PSF_CHECK(done);
    return out;
  }

  runtime::Request send_request(const std::string& user, std::uint64_t id) {
    auto body = std::make_shared<SendBody>();
    body->message.id = id;
    body->message.from = user;
    body->message.to = user;
    body->message.plaintext = {'m'};
    runtime::Request request;
    request.op = ops::kSend;
    request.body = body;
    request.wire_bytes = send_wire_bytes(body->message);
    return request;
  }

  sim::Simulator sim;
  net::Network network;
  runtime::SmockRuntime runtime;
  net::NodeId node;
  MailConfigPtr config;
  std::unique_ptr<spec::ServiceSpec> spec;
};

TEST_F(MailEdgeFixture, ReceiveIsCappedByConfiguredBatch) {
  config->receive_batch = 5;
  const auto server = install("MailServer");
  ASSERT_TRUE(runtime.start(server).is_ok());
  for (std::uint64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(invoke(server, send_request("popular", i)).ok);
  }

  auto body = std::make_shared<ReceiveBody>();
  body->user = "popular";
  body->max_messages = 100;  // asks for more than the server will give
  runtime::Request request;
  request.op = ops::kReceive;
  request.body = body;
  auto response = invoke(server, std::move(request));
  ASSERT_TRUE(response.ok);
  const auto* result = runtime::body_as<ReceiveResultBody>(response);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->messages.size(), 5u);
  // The *latest* messages are returned.
  EXPECT_EQ(result->messages.back().id, 20u);
  EXPECT_EQ(result->messages.front().id, 16u);
}

TEST_F(MailEdgeFixture, ReceiveForUnknownUserIsEmptyNotError) {
  const auto server = install("MailServer");
  ASSERT_TRUE(runtime.start(server).is_ok());
  auto body = std::make_shared<ReceiveBody>();
  body->user = "ghost";
  runtime::Request request;
  request.op = ops::kReceive;
  request.body = body;
  auto response = invoke(server, std::move(request));
  ASSERT_TRUE(response.ok);
  const auto* result = runtime::body_as<ReceiveResultBody>(response);
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->messages.empty());
}

TEST_F(MailEdgeFixture, UnknownOpIsRejected) {
  const auto server = install("MailServer");
  ASSERT_TRUE(runtime.start(server).is_ok());
  runtime::Request request;
  request.op = "mail.teleport";
  auto response = invoke(server, std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown op"), std::string::npos);
}

TEST_F(MailEdgeFixture, MalformedBodiesAreRejectedNotCrashed) {
  const auto server = install("MailServer");
  ASSERT_TRUE(runtime.start(server).is_ok());
  for (const char* op : {ops::kSend, ops::kReceive, ops::kCreateAccount,
                         ops::kAddContact, ops::kGetContacts, ops::kSync,
                         ops::kRegisterReplica}) {
    runtime::Request request;
    request.op = op;  // body missing entirely
    auto response = invoke(server, std::move(request));
    EXPECT_FALSE(response.ok) << op;
  }
}

TEST_F(MailEdgeFixture, ContactOpsAreForwardedThroughViews) {
  const auto server = install("MailServer");
  const auto view = install("ViewMailServer", 4);
  ASSERT_TRUE(runtime.wire(view, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(view).is_ok());
  sim.run();

  auto contact = std::make_shared<ContactBody>();
  contact->user = "alice";
  contact->contact = "bob";
  runtime::Request add;
  add.op = ops::kAddContact;
  add.body = contact;
  ASSERT_TRUE(invoke(view, std::move(add)).ok);

  // The contact landed at the authoritative server, not in the view.
  auto* server_comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  const Account* account = server_comp->find_account("alice");
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->contacts.count("bob"), 1u);
}

TEST_F(MailEdgeFixture, ReplicaRegistrationRelaysThroughIntermediateView) {
  const auto server = install("MailServer");
  const auto mid = install("ViewMailServer", 4);
  const auto leaf = install("ViewMailServer", 2);
  ASSERT_TRUE(runtime.wire(mid, "ServerInterface", server).is_ok());
  ASSERT_TRUE(runtime.wire(leaf, "ServerInterface", mid).is_ok());
  ASSERT_TRUE(runtime.start(server).is_ok());
  ASSERT_TRUE(runtime.start(mid).is_ok());
  ASSERT_TRUE(runtime.start(leaf).is_ok());
  sim.run();

  // The home sees both replicas (mid registers itself; leaf's registration
  // is recorded by mid and relayed upward).
  auto* server_comp = dynamic_cast<MailServerComponent*>(
      runtime.instance(server).component.get());
  EXPECT_EQ(server_comp->directory()->replica_count(), 2u);
}

TEST_F(MailEdgeFixture, CreateAccountProvisionsKeys) {
  const auto server = install("MailServer");
  ASSERT_TRUE(runtime.start(server).is_ok());
  auto body = std::make_shared<AccountBody>();
  body->user = "newbie";
  runtime::Request request;
  request.op = ops::kCreateAccount;
  request.body = body;
  ASSERT_TRUE(invoke(server, std::move(request)).ok);
  for (std::int64_t level = 1; level <= kMaxSensitivity; ++level) {
    EXPECT_TRUE(config->keys->has_key({"newbie", level})) << level;
  }
}

TEST_F(MailEdgeFixture, WireSizeHelpers) {
  MailMessage plain;
  plain.plaintext.assign(1000, 'x');
  EXPECT_EQ(plain.body_bytes(), 1000u);
  EXPECT_EQ(send_wire_bytes(plain), 1256u);

  MailMessage sealed_msg;
  sealed_msg.sensitivity = 3;
  const auto key = crypto::derive_key(1, "k");
  sealed_msg.sealed = std::make_shared<const crypto::SealedBlob>(
      crypto::seal(key, 1, std::vector<std::uint8_t>(1000, 'x')));
  EXPECT_EQ(sealed_msg.body_bytes(), 1016u);  // +nonce/MAC overhead

  std::vector<MailMessage> batch{plain, sealed_msg};
  EXPECT_EQ(receive_result_wire_bytes(batch),
            128u + (128 + 1000) + (128 + 1016));
}

TEST_F(MailEdgeFixture, ViewStatsForwardFraction) {
  ViewServerStats stats;
  EXPECT_EQ(stats.forward_fraction(), 0.0);  // no ops yet
  stats.sends_local = 8;
  stats.receives_local = 8;
  stats.sends_forwarded = 2;
  stats.receives_forwarded = 2;
  EXPECT_DOUBLE_EQ(stats.forward_fraction(), 0.2);
}

}  // namespace
}  // namespace psf::mail
