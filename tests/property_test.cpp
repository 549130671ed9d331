// Property-based tests: invariants that must hold across randomized inputs.
//
//  - Planner soundness: on random Waxman topologies with randomized
//    credentials, every plan the search emits passes the independent
//    validator, and unsatisfiable outcomes never crash.
//  - Planner determinism: same inputs -> byte-identical plan.
//  - plan_many ≡ sequential plan.
//  - Simulator: event ordering invariants under random schedules.
//  - Crypto: seal/unseal round-trips and tamper detection (bit flips,
//    appended zeros, truncation) over random data.
#include <gtest/gtest.h>

#include "crypto/cipher.hpp"
#include "mail/mail_spec.hpp"
#include "net/topology.hpp"
#include "planner/validate.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace psf {
namespace {

// Random mail-capable world: Waxman topology, node trust in [1,5], node 0
// promoted to a trust-5 home, each link secure with probability 0.6.
struct RandomWorld {
  net::Network network;
  spec::ServiceSpec spec = mail::mail_service_spec();
  std::shared_ptr<planner::CredentialMapTranslator> translator =
      mail::mail_translator();
  std::vector<planner::ExistingInstance> existing;

  explicit RandomWorld(std::uint64_t seed, std::size_t nodes = 10) {
    util::Rng rng(seed);
    net::WaxmanParams params;
    params.num_nodes = nodes;
    params.alpha = 0.5;
    network = net::generate_waxman(params, rng);
    for (net::NodeId id : network.all_nodes()) {
      network.node(id).credentials.set(
          "trust", static_cast<std::int64_t>(rng.uniform_u64(1, 5)));
      network.node(id).credentials.set("secure", true);
    }
    network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
    for (net::LinkId id : network.all_links()) {
      network.link(id).credentials.set("secure", rng.bernoulli(0.6));
    }

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
};

class PlannerSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerSoundness, EveryEmittedPlanValidates) {
  RandomWorld world(GetParam());
  planner::EnvironmentView env(world.network, *world.translator);
  planner::Planner planner(world.spec, env);

  util::Rng rng(GetParam() ^ 0xABCDEF);
  std::size_t satisfiable = 0;
  for (int trial = 0; trial < 8; ++trial) {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel",
        spec::PropertyValue::integer(rng.uniform_i64(2, 4) == 3 ? 4 : 2));
    request.client_node = net::NodeId{static_cast<std::uint32_t>(
        rng.uniform_u64(0, world.network.node_count() - 1))};
    request.request_rate_rps = rng.uniform(1.0, 40.0);
    request.max_depth = 5;

    auto plan = planner.plan(request, world.existing);
    if (!plan.has_value()) {
      EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
      continue;
    }
    ++satisfiable;
    auto report = planner::validate_plan(world.spec, env, request, *plan,
                                         world.existing);
    EXPECT_TRUE(report.ok())
        << "seed " << GetParam() << " trial " << trial << ":\n"
        << report.to_string() << plan->to_string(world.network);
  }
  // With trust-5 home at node 0 and mostly-secure links, a reasonable
  // fraction of random requests must be satisfiable, else the generator or
  // planner regressed into rejecting everything.
  EXPECT_GT(satisfiable, 0u) << "seed " << GetParam();
}

TEST_P(PlannerSoundness, PlanningIsDeterministic) {
  RandomWorld world(GetParam());
  planner::EnvironmentView env(world.network, *world.translator);
  planner::Planner planner(world.spec, env);

  planner::PlanRequest request;
  request.interface_name = "ClientInterface";
  request.required_properties.emplace_back("TrustLevel",
                                           spec::PropertyValue::integer(2));
  request.client_node =
      net::NodeId{static_cast<std::uint32_t>(world.network.node_count() - 1)};
  request.max_depth = 5;

  auto a = planner.plan(request, world.existing);
  auto b = planner.plan(request, world.existing);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) return;
  EXPECT_EQ(a->to_string(world.network), b->to_string(world.network));
  EXPECT_EQ(a->metrics.expected_latency_s, b->metrics.expected_latency_s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerSoundness,
                         ::testing::Values(1, 7, 42, 1337, 271828, 314159,
                                           20260707, 987654321));

TEST(PlanManyTest, MatchesSequentialPlanning) {
  RandomWorld world(99);
  planner::EnvironmentView env(world.network, *world.translator);
  planner::Planner planner(world.spec, env);

  std::vector<planner::PlanRequest> requests;
  for (std::uint32_t n = 0; n < world.network.node_count(); ++n) {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back("TrustLevel",
                                             spec::PropertyValue::integer(2));
    request.client_node = net::NodeId{n};
    request.max_depth = 5;
    requests.push_back(request);
  }

  auto parallel = planner.plan_many(requests, world.existing, 4);
  ASSERT_EQ(parallel.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto sequential = planner.plan(requests[i], world.existing);
    ASSERT_EQ(parallel[i].has_value(), sequential.has_value()) << i;
    if (sequential.has_value()) {
      EXPECT_EQ(parallel[i]->to_string(world.network),
                sequential->to_string(world.network))
          << i;
    }
  }
}

TEST(PlanManyTest, EmptyAndSingleThread) {
  RandomWorld world(5);
  planner::EnvironmentView env(world.network, *world.translator);
  planner::Planner planner(world.spec, env);
  EXPECT_TRUE(planner.plan_many({}, world.existing).empty());

  planner::PlanRequest request;
  request.interface_name = "ClientInterface";
  request.client_node = net::NodeId{0};
  request.max_depth = 4;
  auto results = planner.plan_many({request}, world.existing, 1);
  ASSERT_EQ(results.size(), 1u);
}

// ---- simulator properties ----------------------------------------------

TEST(SimulatorProperty, RandomSchedulesExecuteInNondecreasingTimeOrder) {
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    util::Rng rng(seed);
    sim::Simulator sim;
    std::vector<sim::Time> execution_times;
    for (int i = 0; i < 2000; ++i) {
      sim.schedule(sim::Duration::from_nanos(
                       static_cast<std::int64_t>(rng.uniform_u64(0, 1000000))),
                   [&sim, &execution_times] {
                     execution_times.push_back(sim.now());
                   });
    }
    sim.run();
    ASSERT_EQ(execution_times.size(), 2000u);
    for (std::size_t i = 1; i < execution_times.size(); ++i) {
      EXPECT_LE(execution_times[i - 1], execution_times[i]);
    }
  }
}

TEST(SimulatorProperty, NestedSchedulingPreservesCount) {
  util::Rng rng(77);
  sim::Simulator sim;
  int executed = 0;
  std::function<void(int)> spawn = [&](int budget) {
    ++executed;
    if (budget <= 0) return;
    const int children = static_cast<int>(rng.uniform_u64(0, 2));
    for (int c = 0; c < children; ++c) {
      sim.schedule(
          sim::Duration::from_micros(
              static_cast<double>(rng.uniform_u64(1, 50))),
          [&spawn, budget] { spawn(budget - 1); });
    }
  };
  sim.schedule(sim::Duration::from_micros(1), [&spawn] { spawn(12); });
  const std::size_t total = sim.run();
  EXPECT_EQ(static_cast<int>(total), executed);
  EXPECT_TRUE(sim.empty());
}

// ---- crypto properties ---------------------------------------------------

class CryptoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CryptoRoundTrip, SealUnsealIdentityAndTamperDetection) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = rng.uniform_u64(0, 4096);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));

    const crypto::SymmetricKey key =
        crypto::derive_key(rng.next_u64(), "prop");
    const std::uint64_t nonce = rng.next_u64();
    crypto::SealedBlob blob = crypto::seal(key, nonce, data);

    std::vector<std::uint8_t> out;
    ASSERT_TRUE(crypto::unseal(key, blob, out));
    EXPECT_EQ(out, data);

    // Length changes must be detected: one appended zero byte, or one byte
    // cut off.
    crypto::SealedBlob longer = blob;
    longer.ciphertext.push_back(0x00);
    EXPECT_FALSE(crypto::unseal(key, longer, out)) << "appended zero, " << len;

    if (!blob.ciphertext.empty()) {
      crypto::SealedBlob shorter = blob;
      shorter.ciphertext.pop_back();
      EXPECT_FALSE(crypto::unseal(key, shorter, out)) << "truncated, " << len;

      // Flip one random bit: must be detected.
      const std::size_t at = rng.uniform_u64(0, blob.ciphertext.size() - 1);
      blob.ciphertext[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_u64(0, 7));
      EXPECT_FALSE(crypto::unseal(key, blob, out))
          << "undetected bit flip at " << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoRoundTrip,
                         ::testing::Values(3, 1009, 65537));

// ---- rng distribution sanity -----------------------------------------------

TEST(RngProperty, UniformIntIsRoughlyUniform) {
  util::Rng rng(555);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.uniform_u64(0, kBuckets - 1)];
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1) << b;
  }
}

}  // namespace
}  // namespace psf
