// Smock runtime: transfer cost model, CPU serialization, installation with
// code download, wiring, request routing, lookup service.
#include <gtest/gtest.h>

#include <optional>

#include "runtime/lookup.hpp"
#include "runtime/smock.hpp"
#include "spec/builder.hpp"

namespace psf::runtime {
namespace {

struct EchoBody : MessageBody {
  std::string text;
};

// A component that answers requests directly or forwards them downstream.
class EchoComponent : public Component {
 public:
  void handle_request(const Request& request, ResponseCallback done) override {
    ++handled;
    if (request.op == "echo") {
      auto body = std::make_shared<EchoBody>();
      const auto* in = body_as<EchoBody>(request);
      body->text = in != nullptr ? in->text : "";
      Response response;
      response.body = body;
      response.wire_bytes = 64;
      done(std::move(response));
    } else if (request.op == "forward") {
      Request inner;
      inner.op = "echo";
      inner.body = request.body;
      inner.wire_bytes = request.wire_bytes;
      call("Down", std::move(inner), std::move(done));
    } else {
      done(Response::failure("unknown op"));
    }
  }

  int handled = 0;
};

struct RuntimeFixture : public ::testing::Test {
  RuntimeFixture() : runtime(sim, network) {
    net::Credentials secure;
    secure.set("secure", true);
    a = network.add_node("a", 1e6);
    b = network.add_node("b", 1e6);
    link = network.add_link(a, b, 8e6, sim::Duration::from_millis(100),
                            secure);

    spec = std::make_unique<spec::ServiceSpec>(
        spec::SpecBuilder("Echo")
            .interface("Api", {})
            .component("Echo")
            .implements("Api", {})
            .cpu_per_request(100)
            .code_size(100 * 1024)
            .done()
            .build());

    PSF_CHECK(runtime.factories()
                  .register_type("Echo",
                                 [] { return std::make_unique<EchoComponent>(); })
                  .is_ok());
  }

  RuntimeInstanceId install(net::NodeId node, net::NodeId origin) {
    RuntimeInstanceId out = 0;
    runtime.install(*spec->find_component("Echo"), node, {}, origin,
                    [&out](util::Expected<RuntimeInstanceId> id) {
                      ASSERT_TRUE(id.has_value()) << id.status().to_string();
                      out = *id;
                    });
    sim.run();
    return out;
  }

  sim::Simulator sim;
  net::Network network;
  SmockRuntime runtime;
  net::NodeId a, b;
  net::LinkId link;
  std::unique_ptr<spec::ServiceSpec> spec;
};

TEST_F(RuntimeFixture, SendBytesChargesSerializationAndLatency) {
  sim::Time delivered;
  bool done = false;
  // 1 MB over 8 Mb/s = 1 s + 100 ms latency.
  runtime.send_bytes(a, b, 1'000'000, [&] {
    delivered = sim.now();
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(delivered.seconds(), 1.1, 1e-9);
  EXPECT_EQ(runtime.stats().messages_sent, 1u);
  EXPECT_EQ(runtime.stats().bytes_transferred, 1'000'000u);
}

TEST_F(RuntimeFixture, LocalDeliveryIsImmediate) {
  bool done = false;
  runtime.send_bytes(a, a, 1'000'000, [&] {
    EXPECT_EQ(sim.now(), sim::Time::zero());
    done = true;
  });
  EXPECT_TRUE(done);  // synchronous
}

TEST_F(RuntimeFixture, LinkContentionSerializesTransfers) {
  std::vector<double> arrivals;
  for (int i = 0; i < 3; ++i) {
    runtime.send_bytes(a, b, 1'000'000,
                       [&] { arrivals.push_back(sim.now().seconds()); });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Serializations queue: 1s, 2s, 3s (+0.1s latency each).
  EXPECT_NEAR(arrivals[0], 1.1, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.1, 1e-9);
  EXPECT_NEAR(arrivals[2], 3.1, 1e-9);
}

// send_bytes reads the network's cached route rows, so every mutation must
// reach the next send: a latency change reroutes it, a down link makes it
// unroutable, a healed link carries it again.
TEST_F(RuntimeFixture, SendBytesSeesRouteChangesAfterCaching) {
  // A detour a-c-b, 10 ms per hop, beside the 100 ms direct link.
  const net::NodeId c = network.add_node("c", 1e6);
  const net::LinkId ac =
      network.add_link(a, c, 8e6, sim::Duration::from_millis(10));
  const net::LinkId cb =
      network.add_link(c, b, 8e6, sim::Duration::from_millis(10));
  // 1 KB over 8 Mb/s = 1 ms per hop plus the hop latencies.
  auto send_and_time = [&] {
    const sim::Time sent = sim.now();
    double elapsed = -1.0;
    runtime.send_bytes(
        a, b, 1000, [&] { elapsed = (sim.now() - sent).seconds(); },
        [](TransportError) { ADD_FAILURE() << "unexpected drop"; });
    sim.run();
    return elapsed;
  };
  EXPECT_NEAR(send_and_time(), 0.022, 1e-9);  // detour

  // A 500 ms first hop makes the direct link the shorter route.
  network.set_link_latency(ac, sim::Duration::from_millis(500));
  EXPECT_NEAR(send_and_time(), 0.101, 1e-9);

  // Down the detour, then the only link left.
  network.set_link_up(cb, false);
  network.set_link_up(link, false);
  std::optional<TransportError> error;
  bool delivered = false;
  runtime.send_bytes(
      a, b, 1000, [&] { delivered = true; },
      [&](TransportError e) { error = e; });
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(error, TransportError::kUnreachable);
  EXPECT_EQ(runtime.stats().messages_unroutable, 1u);
  EXPECT_EQ(runtime.stats().messages_sent, 2u);

  network.set_link_up(link, true);
  EXPECT_NEAR(send_and_time(), 0.101, 1e-9);
  EXPECT_EQ(runtime.stats().messages_unroutable, 1u);
  EXPECT_EQ(runtime.stats().messages_sent, 3u);
}

TEST_F(RuntimeFixture, CpuChargesQueueFifo) {
  std::vector<double> completions;
  // 1e5 units at 1e6 units/s = 100 ms each.
  for (int i = 0; i < 3; ++i) {
    runtime.charge_cpu(a, 1e5,
                       [&] { completions.push_back(sim.now().millis()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_NEAR(completions[0], 100.0, 1e-6);
  EXPECT_NEAR(completions[1], 200.0, 1e-6);
  EXPECT_NEAR(completions[2], 300.0, 1e-6);
}

TEST_F(RuntimeFixture, InstallDownloadsCode) {
  // Code 100 KB from a to b over 8 Mb/s: ~102.4 ms + 100 ms latency.
  sim::Time finished;
  RuntimeInstanceId id = 0;
  runtime.install(*spec->find_component("Echo"), b, {}, a,
                  [&](util::Expected<RuntimeInstanceId> got) {
                    ASSERT_TRUE(got.has_value());
                    id = *got;
                    finished = sim.now();
                  });
  sim.run();
  ASSERT_NE(id, 0u);
  EXPECT_NEAR(finished.seconds(), 100.0 * 1024 * 8 / 8e6 + 0.1, 1e-6);
  EXPECT_EQ(runtime.instance(id).node, b);
  EXPECT_FALSE(runtime.instance(id).started);
}

TEST_F(RuntimeFixture, LocalInstallSkipsTransfer) {
  install(a, a);
  EXPECT_EQ(sim.now(), sim::Time::zero());
}

TEST_F(RuntimeFixture, InstallUnknownTypeFails) {
  spec::ServiceSpec other = spec::SpecBuilder("Other")
                                .interface("I", {})
                                .component("Ghost")
                                .implements("I", {})
                                .done()
                                .build();
  bool failed = false;
  runtime.install(*other.find_component("Ghost"), a, {}, a,
                  [&](util::Expected<RuntimeInstanceId> id) {
                    EXPECT_FALSE(id.has_value());
                    EXPECT_EQ(id.status().code(), util::ErrorCode::kNotFound);
                    failed = true;
                  });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST_F(RuntimeFixture, StartStopLifecycle) {
  const RuntimeInstanceId id = install(a, a);
  EXPECT_TRUE(runtime.start(id).is_ok());
  EXPECT_FALSE(runtime.start(id).is_ok());  // double start
  EXPECT_TRUE(runtime.stop(id).is_ok());
  EXPECT_FALSE(runtime.stop(id).is_ok());
  EXPECT_TRUE(runtime.start(id).is_ok());  // restartable
  EXPECT_TRUE(runtime.uninstall(id).is_ok());
  EXPECT_FALSE(runtime.exists(id));
  EXPECT_EQ(runtime.uninstall(id).code(), util::ErrorCode::kNotFound);
}

TEST_F(RuntimeFixture, InvokeChargesNetworkAndCpu) {
  const RuntimeInstanceId id = install(b, b);
  ASSERT_TRUE(runtime.start(id).is_ok());

  Request request;
  request.op = "echo";
  request.wire_bytes = 1000;
  auto body = std::make_shared<EchoBody>();
  body->text = "hi";
  request.body = body;

  sim::Time completed;
  bool ok = false;
  runtime.invoke_from_node(a, id, std::move(request), [&](Response response) {
    ASSERT_TRUE(response.ok) << response.error;
    const auto* echoed = body_as<EchoBody>(response);
    ASSERT_NE(echoed, nullptr);
    EXPECT_EQ(echoed->text, "hi");
    completed = sim.now();
    ok = true;
  });
  sim.run();
  ASSERT_TRUE(ok);
  // Request: 1000B/8Mb/s = 1ms + 100ms; CPU 100us; response 64B + 100ms.
  const double expected =
      (1000.0 * 8 / 8e6) + 0.1 + 1e-4 + (64.0 * 8 / 8e6) + 0.1;
  EXPECT_NEAR(completed.seconds(), expected, 1e-6);
}

TEST_F(RuntimeFixture, CallFollowsWiresAndCountsStats) {
  const RuntimeInstanceId front = install(a, a);
  const RuntimeInstanceId back = install(b, b);
  ASSERT_TRUE(runtime.wire(front, "Down", back).is_ok());
  ASSERT_TRUE(runtime.start(front).is_ok());
  ASSERT_TRUE(runtime.start(back).is_ok());

  Request request;
  request.op = "forward";
  request.wire_bytes = 500;
  bool ok = false;
  runtime.invoke_from_node(a, front, std::move(request),
                           [&](Response response) {
                             EXPECT_TRUE(response.ok) << response.error;
                             ok = true;
                           });
  sim.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(runtime.instance(front).stats.requests_handled, 1u);
  EXPECT_EQ(runtime.instance(front).stats.requests_forwarded, 1u);
  EXPECT_EQ(runtime.instance(back).stats.requests_handled, 1u);
}

TEST_F(RuntimeFixture, UnwiredCallFails) {
  const RuntimeInstanceId front = install(a, a);
  ASSERT_TRUE(runtime.start(front).is_ok());
  Request request;
  request.op = "forward";
  bool failed = false;
  runtime.invoke_from_node(a, front, std::move(request),
                           [&](Response response) {
                             EXPECT_FALSE(response.ok);
                             failed = true;
                           });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST_F(RuntimeFixture, CallToUninstalledInstanceFails) {
  const RuntimeInstanceId front = install(a, a);
  const RuntimeInstanceId back = install(b, b);
  ASSERT_TRUE(runtime.wire(front, "Down", back).is_ok());
  ASSERT_TRUE(runtime.start(front).is_ok());
  ASSERT_TRUE(runtime.start(back).is_ok());
  ASSERT_TRUE(runtime.uninstall(back).is_ok());

  Request request;
  request.op = "forward";
  bool failed = false;
  runtime.invoke_from_node(a, front, std::move(request),
                           [&](Response response) {
                             EXPECT_FALSE(response.ok);
                             failed = true;
                           });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST_F(RuntimeFixture, RequestToStoppedInstanceFails) {
  const RuntimeInstanceId id = install(a, a);
  Request request;
  request.op = "echo";
  bool failed = false;
  runtime.invoke_from_node(a, id, std::move(request), [&](Response response) {
    EXPECT_FALSE(response.ok);
    failed = true;
  });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST_F(RuntimeFixture, InstancesOnFiltersByNode) {
  install(a, a);
  install(a, a);
  install(b, b);
  EXPECT_EQ(runtime.instances_on(a).size(), 2u);
  EXPECT_EQ(runtime.instances_on(b).size(), 1u);
  EXPECT_EQ(runtime.instance_count(), 3u);
}

// ---- lookup ----------------------------------------------------------

TEST(LookupTest, RegisterFindUnregister) {
  LookupService lookup(net::NodeId{0});
  ServiceAdvertisement ad;
  ad.service_name = "mail";
  ad.attributes = {{"kind", "mail"}, {"security", "high"}};
  ASSERT_TRUE(lookup.register_service(ad).is_ok());
  EXPECT_EQ(lookup.register_service(ad).code(),
            util::ErrorCode::kAlreadyExists);

  ASSERT_NE(lookup.find("mail"), nullptr);
  EXPECT_EQ(lookup.find("none"), nullptr);

  EXPECT_EQ(lookup.query({{"kind", "mail"}}).size(), 1u);
  EXPECT_EQ(lookup.query({{"kind", "mail"}, {"security", "high"}}).size(), 1u);
  EXPECT_TRUE(lookup.query({{"kind", "storage"}}).empty());
  EXPECT_EQ(lookup.query({}).size(), 1u);  // empty filter matches all

  ASSERT_TRUE(lookup.unregister_service("mail").is_ok());
  EXPECT_EQ(lookup.unregister_service("mail").code(),
            util::ErrorCode::kNotFound);
}

TEST(LookupTest, EmptyNameRejected) {
  LookupService lookup(net::NodeId{0});
  ServiceAdvertisement ad;
  EXPECT_EQ(lookup.register_service(ad).code(),
            util::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace psf::runtime
