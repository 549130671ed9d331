// Quickstart: the smallest useful partitionable service.
//
// A two-component service — a pre-placed Origin and a deployable CacheView —
// is described in PSDL, registered with the framework, and accessed from an
// edge node behind a slow link. The planner decides, from the declarative
// spec alone, whether the client should connect directly or get a cache
// deployed next to it.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/framework.hpp"
#include "spec/parser.hpp"

using namespace psf;

namespace {

// 1. Describe the service: interfaces, properties, components, behaviors.
constexpr const char* kSpecSource = R"(
service QuickCache {
  property Quality { type: interval(1, 10); }

  interface Api { properties: Quality; }
  interface Entry { }

  component Client {
    implements Entry { }
    requires Api { Quality = 5; }
    behaviors { cpu_per_request: 10; bytes_per_request: 512;
                bytes_per_response: 4096; code_size: 20 KB; }
  }

  component Origin {
    static;  // pre-placed by the operator; the planner never clones it
    implements Api { Quality = 10; }
    behaviors { capacity: 1000; cpu_per_request: 80;
                bytes_per_request: 512; bytes_per_response: 4096; }
  }

  data view CacheView represents Origin {
    factors { Quality = node.Quality; }
    implements Api { Quality = factor.Quality; }
    requires Api { Quality = factor.Quality; }
    behaviors { rrf: 0.1; cpu_per_request: 30; bytes_per_request: 512;
                bytes_per_response: 4096; code_size: 60 KB; }
  }
}
)";

// A trivial runtime component good enough for the demo: answers everything.
class DemoComponent : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    // A real component would dispatch on request.op; forward downstream if
    // wired, otherwise answer directly.
    runtime::Request copy;
    copy.op = request.op;
    copy.wire_bytes = request.wire_bytes;
    call("Api", std::move(copy),
         [done = std::move(done)](runtime::Response response) {
           if (!response.ok) {
             // No downstream wire: we are the origin — answer.
             runtime::Response answer;
             answer.wire_bytes = 4096;
             done(std::move(answer));
             return;
           }
           done(std::move(response));
         });
  }
};

}  // namespace

int main() {
  // 2. Build the network: an origin site and an edge site, slow WAN between.
  net::Network network;
  net::Credentials dc;
  dc.set("Quality", std::int64_t{10});
  const net::NodeId origin_node = network.add_node("datacenter", 2e6, dc);
  net::Credentials edge_creds;
  edge_creds.set("Quality", std::int64_t{6});
  const net::NodeId edge_node = network.add_node("edge", 1e6, edge_creds);
  network.add_link(origin_node, edge_node, 5e6,
                   sim::Duration::from_millis(120));

  core::Framework fw(std::move(network));

  // 3. Register component factories (the C++ stand-in for mobile code).
  for (const char* type : {"Client", "Origin", "CacheView"}) {
    PSF_CHECK(fw.runtime()
                  .factories()
                  .register_type(type,
                                 [] { return std::make_unique<DemoComponent>(); })
                  .is_ok());
  }

  // 4. Register the service: parse the spec, pre-place the Origin.
  auto parsed = spec::parse_spec(kSpecSource);
  PSF_CHECK_MSG(parsed.has_value(), parsed.status().to_string());

  runtime::ServiceRegistration registration;
  registration.spec = std::move(parsed).value();
  registration.code_origin = origin_node;
  registration.initial_placements.push_back(
      runtime::InitialPlacement{"Origin", origin_node, {}});

  // Credentials translate 1:1 here: the node credential "Quality" is the
  // service property "Quality".
  auto translator = std::make_shared<planner::CredentialMapTranslator>();
  translator->map_node({"Quality", "Quality", spec::PropertyType::kInterval,
                        spec::PropertyValue::integer(1)});

  auto st = fw.register_service(std::move(registration), translator);
  PSF_CHECK_MSG(st.is_ok(), st.to_string());
  std::printf("registered QuickCache; Origin pre-placed at 'datacenter'\n");

  // 5. A client at the edge asks for the Entry interface. The generic proxy
  // looks the service up, the planner maps components to nodes, the
  // deployment engine installs and wires them.
  planner::PlanRequest wants;
  wants.interface_name = "Entry";
  wants.request_rate_rps = 20.0;

  auto proxy = fw.make_proxy(edge_node, "QuickCache", wants);
  proxy->bind([](util::Status status) {
    PSF_CHECK_MSG(status.is_ok(), status.to_string());
  });
  fw.run();

  const auto& outcome = proxy->outcome();
  std::printf("\nplanner chose:\n%s",
              outcome.plan.to_string(fw.network()).c_str());
  std::printf("one-time costs: lookup %.1f ms, planning %.1f ms, deployment "
              "%.1f ms\n",
              outcome.costs.lookup.millis(), outcome.costs.planning.millis(),
              outcome.costs.deployment.millis());

  // 6. Use the service.
  runtime::Request request;
  request.op = "get";
  request.wire_bytes = 512;
  proxy->invoke(std::move(request), [&fw](runtime::Response response) {
    std::printf("\nfirst request completed at t=%.2f ms (ok=%d)\n",
                fw.simulator().now().millis(), response.ok ? 1 : 0);
  });
  fw.run();
  return 0;
}
