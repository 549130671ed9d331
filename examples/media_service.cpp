// A QoS-property service: the paper stresses (§3.3) that property
// modification rules are "generally applicable to properties other than
// just security, e.g. QoS properties such as delivered video frame rate".
//
// This example builds a small video service around exactly that property:
//
//   - FrameRate degrades across links with a `min(in, env)` rule (a thin
//     pipe caps the deliverable rate);
//   - a motion-Interpolator component reconstructs 30 fps from a 12 fps
//     thinned stream, so the planner inserts it on the *client side* of a
//     slow link — the same mechanism that places a Decryptor behind an
//     insecure link in the mail study;
//   - when even the thinned stream cannot cross the pipe, the request is
//     unsatisfiable and the client negotiates its requirement down.
//
// Run: ./build/examples/media_service
#include <cstdio>
#include <memory>

#include "core/framework.hpp"
#include "planner/environment.hpp"
#include "spec/parser.hpp"

using namespace psf;

namespace {

constexpr const char* kSpecSource = R"(
service StreamCast {
  property FrameRate { type: interval(1, 60); }

  interface ViewPort { }
  interface Stream { properties: FrameRate; }

  // The pipe caps the deliverable frame rate: min(in, env).
  rule FrameRate {
    (any, any) -> min;
  }

  component Player {
    implements ViewPort { }
    requires Stream { FrameRate = 30; }
    behaviors { cpu_per_request: 15; bytes_per_request: 256;
                bytes_per_response: 16 KB; code_size: 40 KB; }
  }

  component Source {
    static;
    implements Stream { FrameRate = 60; }
    behaviors { capacity: 500; cpu_per_request: 60;
                bytes_per_request: 256; bytes_per_response: 64 KB; }
  }

  // Reconstructs full-rate video from a thinned stream (frame
  // interpolation): offers 30 fps while only needing 12 upstream. Its
  // output is full-rate video, so it is no cheaper to ship than the
  // original — only the *rate* constraint motivates deploying it.
  component Interpolator {
    implements Stream { FrameRate = 30; }
    requires Stream { FrameRate = 12; }
    behaviors { cpu_per_request: 120; bytes_per_request: 256;
                bytes_per_response: 64 KB; code_size: 150 KB; }
  }
}
)";

class DemoComponent : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    runtime::Request copy;
    copy.op = request.op;
    copy.wire_bytes = request.wire_bytes;
    call("Stream", std::move(copy),
         [done = std::move(done)](runtime::Response response) {
           if (!response.ok) {
             runtime::Response answer;
             answer.wire_bytes = 16 * 1024;
             done(std::move(answer));
             return;
           }
           done(std::move(response));
         });
  }
};

// Builds a studio--cdn-edge world whose WAN link advertises `fps_cap`.
struct World {
  std::unique_ptr<core::Framework> fw;
  net::NodeId studio, edge;

  explicit World(std::int64_t wan_fps_cap) {
    net::Network network;
    net::Credentials studio_creds;
    studio_creds.set("fps_cap", std::int64_t{60});
    studio = network.add_node("studio", 4e6, studio_creds);
    net::Credentials edge_creds;
    edge_creds.set("fps_cap", std::int64_t{60});
    edge = network.add_node("cdn-edge", 2e6, edge_creds);
    net::Credentials wan;
    wan.set("fps_cap", wan_fps_cap);
    network.add_link(studio, edge, 20e6, sim::Duration::from_millis(80), wan);

    fw = std::make_unique<core::Framework>(std::move(network));
    for (const char* type : {"Player", "Source", "Interpolator"}) {
      PSF_CHECK(fw->runtime()
                    .factories()
                    .register_type(
                        type, [] { return std::make_unique<DemoComponent>(); })
                    .is_ok());
    }
    auto parsed = spec::parse_spec(kSpecSource);
    PSF_CHECK_MSG(parsed.has_value(), parsed.status().to_string());
    runtime::ServiceRegistration registration;
    registration.spec = std::move(parsed).value();
    registration.code_origin = studio;
    registration.initial_placements.push_back(
        runtime::InitialPlacement{"Source", studio, {}});
    auto translator = std::make_shared<planner::CredentialMapTranslator>();
    translator->map_node({"FrameRate", "fps_cap",
                          spec::PropertyType::kInterval,
                          spec::PropertyValue::integer(60)});
    translator->map_link({"FrameRate", "fps_cap",
                          spec::PropertyType::kInterval,
                          spec::PropertyValue::integer(60)});
    PSF_CHECK(fw->register_service(std::move(registration), translator)
                  .is_ok());
  }

  // Plans for a viewer at the edge demanding `fps`; prints the outcome.
  bool plan_viewer(std::int64_t fps) {
    planner::PlanRequest wants;
    wants.interface_name = "ViewPort";
    wants.request_rate_rps = 5.0;
    // The Player's own requirement is fixed in the spec; the *client's*
    // requirement arrives via the requested properties of ViewPort — here
    // ViewPort is property-free, so negotiation happens by choosing the
    // entry component; the interesting constraint is the Player->Stream
    // edge. (A richer spec would add a quality property to ViewPort.)
    (void)fps;
    auto proxy = fw->make_proxy(edge, "StreamCast", wants);
    util::Status status = util::internal_error("");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(300));
    if (!status.is_ok()) {
      std::printf("  no feasible deployment: %s\n\n",
                  status.message().c_str());
      return false;
    }
    std::printf("%s\n", proxy->outcome().plan.to_string(fw->network()).c_str());
    return true;
  }
};

}  // namespace

int main() {
  std::printf("=== fast WAN (fps_cap 60): direct streaming ===\n");
  {
    World world(60);
    PSF_CHECK(world.plan_viewer(30));
  }

  std::printf("=== thin WAN (fps_cap 12): the planner inserts an "
              "Interpolator at the edge ===\n");
  {
    World world(12);
    PSF_CHECK(world.plan_viewer(30));
  }

  std::printf("=== starved WAN (fps_cap 8): even the thinned stream cannot "
              "cross ===\n");
  {
    World world(8);
    const bool satisfied = world.plan_viewer(30);
    PSF_CHECK(!satisfied);
    std::printf("  (a production client would now renegotiate its QoS "
                "expectations, as the mail demo does with TrustLevel)\n");
  }
  return 0;
}
