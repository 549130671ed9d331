// psf_perfbench — the end-to-end benchmark of the real request path:
//
//   GenericProxy bind -> lookup -> plan cache / planner -> deployment
//   -> SmockRuntime hops -> crypto tunnel -> coherence
//
// driven through core::Framework's public API, on one thread, in rounds.
// A round builds a fresh world, binds the clients (the set-up), runs a
// fixed closed-loop workload to completion and checks its outputs. A cycle
// of rounds takes its inputs from sub-seeds of --seed; its pooled samples
// are the simulated metrics. Rounds repeat the cycle until --seconds of
// host time have passed, and a repeated round must reproduce its sub-seed's
// simulated outputs (fingerprint) exactly. Host-time metrics aggregate over
// rounds (see perfbench/README.md).
//
//   psf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <dir>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced rounds and prints the per-layer metrics: counters read from each
// layer's stats, plus spans recorded here around calls into each layer
// (binds and their AccessCosts phases, every invoke -> response, every
// simulator drive window, direct planner replays, crypto calls). Spans are
// kept in memory and written to --trace-out at exit.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any correctness check fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "core/scenarios.hpp"
#include "crypto/cipher.hpp"
#include "mail/client.hpp"
#include "mail/crypto_components.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "mail/view_server.hpp"
#include "planner/planner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// ---- heap allocation counting ----------------------------------------------
// Replacing the global allocation functions in this translation unit counts
// every heap allocation the process makes, the framework libraries included.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t size = (std::max<std::size_t>(n, 1) + align - 1) /
                           align * align;
  return std::aligned_alloc(align, size);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace psf;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr const char* kService = "SecureMail";

// ---- simulated-output fingerprint ------------------------------------------

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(sim::Duration d) { add(static_cast<std::uint64_t>(d.nanos())); }
  void add(const std::vector<double>& samples) {
    add(static_cast<std::uint64_t>(samples.size()));
    for (double s : samples) add(s);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

// ---- tracing ----------------------------------------------------------------

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* layer = "";
  const char* name = "";
  double sim_start_ms = 0.0;
  double sim_end_ms = 0.0;
  double host_start_us = 0.0;
  double host_end_us = 0.0;
  std::uint64_t count = 0;  // events, candidates or bytes, by span kind
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double host_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  // Opens a span; returns 0 (and records nothing) when tracing is off.
  std::uint32_t open(const char* layer, const char* name, std::uint32_t parent,
                     double sim_ms) {
    if (!enabled_) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.layer = layer;
    s.name = name;
    s.sim_start_ms = sim_ms;
    s.host_start_us = host_us();
    spans_.push_back(s);
    return s.id;
  }
  void close(std::uint32_t id, double sim_ms, std::uint64_t count = 0) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.sim_end_ms = sim_ms;
    s.host_end_us = host_us();
    s.count = count;
  }
  // Records a span whose bounds were measured by the caller.
  std::uint32_t add(Span s) {
    if (!enabled_) return 0;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(s);
    return s.id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Drops spans recorded after the first `n` (capacity is kept, so later
  // rounds trace at the same cost without growing memory).
  void truncate(std::size_t n) {
    if (spans_.size() > n) spans_.resize(n);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"layer\":\"%s\",\"name\":\"%s\","
                   "\"sim_start_ms\":%.6f,\"sim_end_ms\":%.6f,"
                   "\"host_start_us\":%.3f,\"host_end_us\":%.3f,"
                   "\"count\":%llu}\n",
                   s.id, s.parent, s.layer, s.name, s.sim_start_ms,
                   s.sim_end_ms, s.host_start_us, s.host_end_us,
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- simulator drive (counts events, records run_for windows) --------------

class Stepper {
 public:
  Stepper(core::Framework& fw, Tracer& tracer) : fw_(fw), tracer_(tracer) {}

  std::uint64_t events() const { return events_; }

  // Steps until done() holds or `max` simulated time passes.
  bool until(const std::function<bool()>& done, sim::Duration max,
             std::uint32_t parent = 0) {
    sim::Simulator& sim = fw_.simulator();
    const sim::Time deadline = sim.now() + max;
    const std::uint32_t span =
        tracer_.open("sim", "step_until", parent, sim.now().millis());
    std::uint64_t n = 0;
    while (!done() && sim.now() <= deadline && sim.step()) ++n;
    events_ += n;
    tracer_.close(span, sim.now().millis(), n);
    return done();
  }

  void run_for(sim::Duration d) {
    sim::Simulator& sim = fw_.simulator();
    const std::uint32_t span =
        tracer_.open("sim", "run_for", 0, sim.now().millis());
    const std::uint64_t n = sim.run_until(sim.now() + d);
    events_ += n;
    tracer_.close(span, sim.now().millis(), n);
  }

 private:
  core::Framework& fw_;
  Tracer& tracer_;
  std::uint64_t events_ = 0;
};

// ---- closed-loop mail client ------------------------------------------------

constexpr sim::Duration kThink = sim::Duration::from_millis(20);

struct MixParams {
  std::uint64_t body_bytes = 2048;  // mean; see BodyTable
  std::size_t sends_per_receive = 10;
  std::int64_t sensitivity = 2;       // 0 = plaintext, never sealed
  std::size_t high_send_every = 0;     // every Nth send high-sensitivity
  std::size_t high_receive_every = 0;  // every Nth receive high-sensitivity
  std::size_t ops = 0;                 // ops each client issues per round
};

struct ClientStats {
  std::uint64_t sends_ok = 0;
  std::uint64_t sends_failed = 0;
  std::uint64_t receives_ok = 0;
  std::uint64_t receives_failed = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t plaintext_mismatches = 0;
  std::uint64_t sealed_sends = 0;  // sends the MailClient seals
};

// The message bodies of a round, for every client. Each body is a pure
// function of (client seed, message id); its length is uniform in
// [0.5, 1.5] x the workload's body size. The bytes sit in one buffer that
// lives for the whole run, so after the first round making them allocates
// nothing and adds no per-round churn to the heap the framework uses.
class BodyTable {
 public:
  // Makes the bodies of the first `per_client` messages of each client;
  // `seeds` holds one seed per client.
  void make(std::uint64_t mean_bytes, std::size_t per_client,
            const std::vector<std::uint64_t>& seeds) {
    per_client_ = per_client;
    bytes_.clear();
    start_.clear();
    bytes_.reserve(seeds.size() * per_client * (mean_bytes + mean_bytes / 2));
    start_.reserve(seeds.size() * per_client + 1);
    for (std::uint64_t seed : seeds) {
      for (std::uint64_t id = 1; id <= per_client; ++id) {
        util::Rng rng(seed ^ (id * 0x9E3779B97F4A7C15ULL));
        const std::size_t off = bytes_.size();
        start_.push_back(off);
        bytes_.resize(off + rng.uniform_u64(mean_bytes / 2,
                                            mean_bytes + mean_bytes / 2));
        for (std::size_t b = off; b < bytes_.size(); b += 8) {
          const std::uint64_t v = rng.next_u64();
          std::memcpy(bytes_.data() + b, &v,
                      std::min<std::size_t>(8, bytes_.size() - b));
        }
      }
    }
    start_.push_back(bytes_.size());
  }

  std::span<const std::uint8_t> body(std::size_t client,
                                     std::uint64_t id) const {
    const std::size_t i = client * per_client_ + (id - 1);
    return {bytes_.data() + start_[i], start_[i + 1] - start_[i]};
  }

 private:
  std::size_t per_client_ = 0;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> start_;  // body i's offset; one past the end last
};

// Sends self-mail and reads it back: each send carries its body from the
// round's table, and every message a receive returns must decrypt to
// exactly the bytes sent under its id. Think times are uniform in
// [0.5, 1.5] x kThink.
class MailUser {
 public:
  MailUser(core::Framework& fw, runtime::GenericProxy& proxy, std::string user,
           const MixParams& mix, std::uint64_t seed, const BodyTable& bodies,
           std::size_t client, Tracer& tracer)
      : fw_(fw),
        proxy_(proxy),
        user_(std::move(user)),
        mix_(mix),
        rng_(seed),
        bodies_(bodies),
        client_(client),
        tracer_(tracer) {}

  void start() { schedule_next(); }
  bool finished() const { return finished_ && in_flight_ == 0; }
  std::size_t issued() const { return sends_ + receives_; }
  const ClientStats& stats() const { return stats_; }
  const std::vector<double>& send_ms() const { return send_ms_; }
  const std::vector<double>& receive_ms() const { return receive_ms_; }

 private:
  void schedule_next() {
    const double k = 0.5 + rng_.next_double();
    fw_.simulator().schedule(kThink * k, [this]() { next_op(); });
  }

  void next_op() {
    if (issued() >= mix_.ops) {
      finished_ = true;
      return;
    }
    if (sends_ > 0 && sends_ % mix_.sends_per_receive == 0 &&
        receives_ < sends_ / mix_.sends_per_receive) {
      receive_one();
    } else {
      send_one();
    }
  }

  void send_one() {
    ++sends_;
    const bool high =
        mix_.high_send_every != 0 && sends_ % mix_.high_send_every == 0;
    auto body = std::make_shared<mail::SendBody>();
    body->message.id = next_id_++;
    body->message.from = user_;
    body->message.to = user_;
    body->message.subject = "m" + std::to_string(body->message.id);
    body->message.sensitivity = high ? 5 : mix_.sensitivity;
    stats_.sealed_sends += body->message.sensitivity > 0 ? 1 : 0;
    const auto bytes = bodies_.body(client_, body->message.id);
    body->message.plaintext.assign(bytes.begin(), bytes.end());

    runtime::Request request;
    request.op = mail::ops::kSend;
    request.wire_bytes = mail::send_wire_bytes(body->message);
    request.body = std::move(body);
    request.principal = user_;
    invoke(std::move(request), true);
  }

  void receive_one() {
    ++receives_;
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = user_;
    body->max_messages = 16;
    body->include_high_sensitivity =
        mix_.high_receive_every != 0 &&
        receives_ % mix_.high_receive_every == 0;
    runtime::Request request;
    request.op = mail::ops::kReceive;
    request.body = std::move(body);
    request.wire_bytes = 256;
    request.principal = user_;
    invoke(std::move(request), false);
  }

  void invoke(runtime::Request request, bool is_send) {
    const double issued_ms = fw_.simulator().now().millis();
    const std::uint32_t span = tracer_.open(
        "generic", is_send ? "invoke.send" : "invoke.receive", 0, issued_ms);
    ++in_flight_;
    proxy_.invoke(std::move(request), [this, is_send, issued_ms,
                                       span](runtime::Response response) {
      --in_flight_;
      const double done_ms = fw_.simulator().now().millis();
      tracer_.close(span, done_ms);
      if (is_send) {
        (response.ok ? stats_.sends_ok : stats_.sends_failed) += 1;
        send_ms_.push_back(done_ms - issued_ms);
      } else {
        (response.ok ? stats_.receives_ok : stats_.receives_failed) += 1;
        receive_ms_.push_back(done_ms - issued_ms);
        if (response.ok) verify(response);
      }
      schedule_next();
    });
  }

  void verify(const runtime::Response& response) {
    const auto* result = runtime::body_as<mail::ReceiveResultBody>(response);
    if (result == nullptr) {
      ++stats_.plaintext_mismatches;
      return;
    }
    stats_.messages_received += result->messages.size();
    for (const mail::MailMessage& m : result->messages) {
      if (m.id == 0 || m.id >= next_id_) {
        ++stats_.plaintext_mismatches;
        continue;
      }
      const auto sent = bodies_.body(client_, m.id);
      if (m.sealed || !std::equal(m.plaintext.begin(), m.plaintext.end(),
                                  sent.begin(), sent.end())) {
        ++stats_.plaintext_mismatches;
      }
    }
  }

  core::Framework& fw_;
  runtime::GenericProxy& proxy_;
  std::string user_;
  MixParams mix_;
  util::Rng rng_;
  const BodyTable& bodies_;
  std::size_t client_;
  Tracer& tracer_;
  std::size_t sends_ = 0;
  std::size_t receives_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t in_flight_ = 0;
  bool finished_ = false;
  ClientStats stats_;
  std::vector<double> send_ms_;
  std::vector<double> receive_ms_;
};

// ---- one round's results -----------------------------------------------------

struct BindRecord {
  bool ok = false;
  double wall_ms = 0.0;
  runtime::AccessCosts costs;
  bool cache_hit = false;
  bool coalesced = false;
  planner::SearchStats search;
  std::uint64_t installs = 0;
  double replay_wall_ms = -1.0;  // traced rounds: direct Planner::plan replay
};

struct RoundResult {
  double setup_s = 0.0;
  double measured_host_s = 0.0;
  double sim_span_s = 0.0;
  std::vector<BindRecord> binds;           // measured binds (incl. set-up's)
  double bind_host_s = 0.0;
  ClientStats clients;
  std::uint64_t issued = 0;  // ops the clients issued
  std::vector<double> send_ms;
  std::vector<double> receive_ms;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t unfinished = 0;  // rounds whose clients did not all finish
  runtime::RuntimeStats rt_before;          // at the start of the drive
  runtime::RuntimeStats rt;
  double cpu_util_max = 0.0;
  double link_util_max = 0.0;
  std::size_t route_rows = 0;
  core::CoherenceSummary coherence;
  std::uint64_t view_forwarded = 0;
  std::uint64_t view_total = 0;
  std::uint64_t mac_failures = 0;
  std::uint64_t client_unseals = 0;  // MailClient messages decrypted
  std::uint64_t tunnel_crypto = 0;   // tunnel seals + unseals
  runtime::PlanCacheTelemetry cache;
  double seal_ns_per_byte = 0.0;
  double unseal_ns_per_byte = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t sub_seed = 0;
  bool traced = false;

  // Keeps what host-time medians and the correctness gate read; drops the
  // sample vectors a repeated round would duplicate.
  void drop_samples() {
    send_ms = {};
    receive_ms = {};
    cache = {};
  }

  std::uint64_t ops_ok() const {
    return clients.sends_ok + clients.receives_ok;
  }
  std::uint64_t ops_failed() const {
    return clients.sends_failed + clients.receives_failed;
  }
  std::uint64_t binds_failed() const {
    std::uint64_t n = 0;
    for (const BindRecord& b : binds) n += b.ok ? 0 : 1;
    return n;
  }
};

struct RoundContext {
  std::uint64_t seed = 0;
  bool traced = false;
  Tracer* tracer = nullptr;
  BodyTable* bodies = nullptr;
};

// Binds `proxy` (closed: the caller waits for completion), timing host
// wall-clock and recording the AccessCosts phases as spans.
BindRecord bind_client(core::Framework& fw, Stepper& stepper, Tracer& tracer,
                       runtime::GenericProxy& proxy) {
  BindRecord rec;
  const std::uint64_t installs_before = fw.runtime().stats().installs;
  const double sim_start = fw.simulator().now().millis();
  const std::uint32_t span = tracer.open("generic", "bind", 0, sim_start);
  bool done = false;
  const auto t0 = Clock::now();
  proxy.bind([&](util::Status st) {
    rec.ok = st.is_ok();
    done = true;
  });
  stepper.until([&done]() { return done; }, sim::Duration::from_seconds(600),
               span);
  rec.wall_ms = seconds_since(t0) * 1e3;
  tracer.close(span, fw.simulator().now().millis());
  rec.installs = fw.runtime().stats().installs - installs_before;
  if (!rec.ok) return rec;
  const runtime::AccessOutcome& out = proxy.outcome();
  rec.costs = out.costs;
  rec.cache_hit = out.cache_hit;
  rec.coalesced = out.coalesced;
  rec.search = out.search;
  if (tracer.enabled()) {
    // Lay the AccessCosts phases out back to back under the bind span.
    double t = sim_start;
    const std::pair<const char*, sim::Duration> phases[] = {
        {"lookup", out.costs.lookup},
        {"plan", out.costs.planning},
        {"deploy", out.costs.deployment}};
    const char* layers[] = {"lookup", "planner", "deployment"};
    for (std::size_t i = 0; i < 3; ++i) {
      Span s;
      s.parent = span;
      s.layer = layers[i];
      s.name = phases[i].first;
      s.sim_start_ms = t;
      s.sim_end_ms = t + phases[i].second.millis();
      t = s.sim_end_ms;
      tracer.add(s);
    }
  }
  return rec;
}

// Times a direct Planner::plan of `request` against `pool`, the reuse pool
// the generic server held when the bind planned cold.
double replay_plan(core::Framework& fw, Tracer& tracer,
                   const planner::PlanRequest& request,
                   const std::vector<planner::ExistingInstance>& pool) {
  const spec::ServiceSpec* spec = fw.server().service_spec(kService);
  const planner::EnvironmentView* env = fw.server().environment(kService);
  if (spec == nullptr || env == nullptr) return -1.0;
  planner::Planner planner(*spec, *env);
  planner::SearchStats stats;
  const double sim_ms = fw.simulator().now().millis();
  const std::uint32_t span = tracer.open("planner", "plan.replay", 0, sim_ms);
  const auto t0 = Clock::now();
  auto plan = planner.plan(request, pool, &stats);
  const double wall_ms = seconds_since(t0) * 1e3;
  tracer.close(span, sim_ms, stats.candidates_examined);
  return plan.has_value() ? wall_ms : -1.0;
}

// Times crypto::seal / unseal at the workload's body size.
void time_crypto(Tracer& tracer, std::uint64_t body_bytes, std::uint64_t seed,
                 RoundResult& r) {
  constexpr int kCalls = 256;
  util::Rng rng(seed);
  std::vector<std::uint8_t> body(body_bytes);
  for (std::uint8_t& b : body) b = static_cast<std::uint8_t>(rng.next_u64());
  const crypto::SymmetricKey key = crypto::derive_key(seed, "perfbench");
  std::vector<crypto::SealedBlob> blobs;
  blobs.reserve(kCalls);
  auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const std::uint32_t s = tracer.open("crypto", "seal", 0, 0.0);
    blobs.push_back(crypto::seal(key, static_cast<std::uint64_t>(i), body));
    tracer.close(s, 0.0, body_bytes);
  }
  const double seal_s = seconds_since(t0);
  std::vector<std::uint8_t> out;
  std::uint64_t failures = 0;
  t0 = Clock::now();
  for (const crypto::SealedBlob& blob : blobs) {
    const std::uint32_t s = tracer.open("crypto", "unseal", 0, 0.0);
    if (!crypto::unseal(key, blob, out) || out != body) ++failures;
    tracer.close(s, 0.0, body_bytes);
  }
  const double unseal_s = seconds_since(t0);
  const double bytes = static_cast<double>(kCalls * body_bytes);
  r.seal_ns_per_byte = seal_s * 1e9 / bytes;
  r.unseal_ns_per_byte = unseal_s * 1e9 / bytes;
  r.mac_failures += failures;
}

// Reads every layer's counters after the drive and folds the simulated ones
// into the round's fingerprint.
void collect(core::Framework& fw, RoundResult& r,
             const std::vector<std::unique_ptr<MailUser>>& users) {
  runtime::SmockRuntime& rt = fw.runtime();
  for (const auto& u : users) {
    const ClientStats& s = u->stats();
    r.clients.sends_ok += s.sends_ok;
    r.clients.sends_failed += s.sends_failed;
    r.clients.receives_ok += s.receives_ok;
    r.clients.receives_failed += s.receives_failed;
    r.clients.messages_received += s.messages_received;
    r.clients.plaintext_mismatches += s.plaintext_mismatches;
    r.clients.sealed_sends += s.sealed_sends;
    r.issued += u->issued();
    r.send_ms.insert(r.send_ms.end(), u->send_ms().begin(),
                     u->send_ms().end());
    r.receive_ms.insert(r.receive_ms.end(), u->receive_ms().begin(),
                        u->receive_ms().end());
  }
  r.rt = rt.stats();
  r.sim_span_s = fw.simulator().now().seconds();
  if (r.sim_span_s > 0.0) {
    for (net::NodeId n : fw.network().all_nodes()) {
      r.cpu_util_max = std::max(r.cpu_util_max,
                                rt.node_busy_seconds(n) / r.sim_span_s);
    }
    for (net::LinkId l : fw.network().all_links()) {
      r.link_util_max = std::max(r.link_util_max,
                                 rt.link_busy_seconds(l) / r.sim_span_s);
    }
  }
  r.route_rows = fw.network().route_rows_materialized();
  r.coherence = core::collect_coherence_summary(rt);
  for (runtime::RuntimeInstanceId id : rt.instance_ids()) {
    runtime::Component* c = rt.instance(id).component.get();
    if (auto* view = dynamic_cast<mail::ViewMailServerComponent*>(c)) {
      const mail::ViewServerStats& v = view->view_stats();
      r.view_forwarded += v.sends_forwarded + v.receives_forwarded;
      r.view_total += v.sends_local + v.sends_forwarded + v.receives_local +
                      v.receives_forwarded;
    } else if (auto* client = dynamic_cast<mail::MailClientComponent*>(c)) {
      const mail::MailClientStats& s = client->client_stats();
      r.mac_failures += s.mac_failures;
      r.client_unseals += s.messages_decrypted;
    } else if (auto* enc = dynamic_cast<mail::EncryptorComponent*>(c)) {
      const mail::TunnelStats& s = enc->tunnel_stats();
      r.mac_failures += s.mac_failures;
      r.tunnel_crypto += s.requests_sealed + s.responses_unsealed;
    } else if (auto* dec = dynamic_cast<mail::DecryptorComponent*>(c)) {
      const mail::TunnelStats& s = dec->tunnel_stats();
      r.mac_failures += s.mac_failures;
      r.tunnel_crypto += s.requests_sealed + s.responses_unsealed;
    }
  }
  r.cache = fw.server().access_telemetry();

  Fingerprint f;
  f.add(r.send_ms);
  f.add(r.receive_ms);
  for (const BindRecord& b : r.binds) {
    f.add(static_cast<std::uint64_t>(b.ok));
    f.add(b.costs.lookup);
    f.add(b.costs.planning);
    f.add(b.costs.deployment);
    f.add(static_cast<std::uint64_t>(b.cache_hit));
    f.add(b.search.candidates_examined);
    f.add(b.installs);
  }
  for (std::uint64_t v :
       {r.clients.sends_ok, r.clients.sends_failed, r.clients.receives_ok,
        r.clients.receives_failed, r.clients.messages_received,
        r.clients.plaintext_mismatches, r.rt.messages_sent,
        r.rt.bytes_transferred, r.rt.installs, r.rt.requests_delivered,
        r.rt.code_cache_hits, r.rt.messages_unroutable, r.rt.messages_dropped,
        r.rt.invoke_timeouts, r.rt.migrations, r.rt.state_transfer_bytes,
        r.coherence.flushes, r.coherence.updates_flushed,
        r.coherence.bytes_flushed, r.coherence.updates_coalesced,
        r.coherence.coalesced_bytes_saved, r.coherence.push_rpcs,
        r.coherence.push_updates, r.coherence.push_rpcs_saved,
        r.coherence.push_bytes, r.coherence.replicas_evicted,
        static_cast<std::uint64_t>(r.coherence.residual_pending),
        r.view_forwarded, r.view_total, r.mac_failures, r.clients.sealed_sends,
        r.client_unseals, r.tunnel_crypto, r.cache.hits, r.cache.misses,
        r.cache.coalesced, r.cache.invalidations}) {
    f.add(v);
  }
  f.add(r.coherence.blocked_on_flush_ms);
  f.add(fw.simulator().now().millis());
  r.fingerprint = f.value();
}

// ---- mail workloads: branch_mail, hq_small_reads -----------------------------

struct MailWorkload {
  bool branch = true;  // DS500 from San Diego; else DF in New York
  MixParams mix;
};

constexpr std::size_t kMailClients = 20;

struct MailWorld {
  core::CaseStudySites sites;
  std::shared_ptr<mail::MailServiceConfig> config;
  std::unique_ptr<core::Framework> fw;
};

MailWorld make_case_study(const coherence::CoherencePolicy& policy) {
  MailWorld w;
  net::Network network = core::case_study_network(&w.sites);
  core::FrameworkOptions options;
  options.lookup_node = w.sites.new_york[0];
  options.server_node = w.sites.new_york[0];
  w.fw = std::make_unique<core::Framework>(std::move(network), options);
  w.config = std::make_shared<mail::MailServiceConfig>();
  w.config->view_policy = policy;
  PSF_CHECK(mail::register_mail_factories(w.fw->runtime().factories(),
                                          w.config)
                .is_ok());
  const util::Status st = w.fw->register_service(
      mail::mail_registration(w.sites.mail_home), mail::mail_translator());
  PSF_CHECK_MSG(st.is_ok(), st.to_string());
  return w;
}

planner::PlanRequest mail_request(std::int64_t trust, double rate_rps) {
  planner::PlanRequest r;
  r.interface_name = "ClientInterface";
  r.required_properties.emplace_back("TrustLevel",
                                     spec::PropertyValue::integer(trust));
  r.request_rate_rps = rate_rps;
  r.objective = planner::Objective::kMinLatency;
  return r;
}

std::uint64_t client_seed(const RoundContext& ctx, std::size_t client) {
  return ctx.seed * 1000003ULL + client;
}

// Binds through the proxy; on a cold bind in a traced round, replays the
// planner against the pool the server held before the bind.
BindRecord bind_and_replay(core::Framework& fw, Stepper& stepper,
                           const RoundContext& ctx,
                           runtime::GenericProxy& proxy,
                           planner::PlanRequest request, net::NodeId node) {
  std::vector<planner::ExistingInstance> pool;
  if (ctx.traced) pool = fw.server().existing_instances(kService);
  BindRecord rec = bind_client(fw, stepper, *ctx.tracer, proxy);
  if (ctx.traced && rec.ok && !rec.cache_hit && !rec.coalesced) {
    request.client_node = node;
    rec.replay_wall_ms = replay_plan(fw, *ctx.tracer, request, pool);
  }
  return rec;
}

RoundResult run_mail_round(const MailWorkload& wl, const RoundContext& ctx) {
  RoundResult r;
  // The message bodies are the round's inputs, made before the set-up is
  // timed, so the measured phase only copies and compares them. A client
  // never sends more than its op budget.
  std::vector<std::uint64_t> seeds;
  for (std::size_t c = 0; c < kMailClients; ++c) {
    seeds.push_back(client_seed(ctx, c));
  }
  ctx.bodies->make(wl.mix.body_bytes, wl.mix.ops, seeds);
  const auto t_setup = Clock::now();
  MailWorld w = make_case_study(
      wl.branch ? coherence::CoherencePolicy::time_based(
                      sim::Duration::from_millis(500))
                : coherence::CoherencePolicy::none());
  core::Framework& fw = *w.fw;
  Stepper stepper(fw, *ctx.tracer);
  const net::NodeId client_node =
      wl.branch ? w.sites.sd_client : w.sites.ny_client;
  const planner::PlanRequest request = mail_request(4, 50.0);

  std::vector<std::unique_ptr<runtime::GenericProxy>> proxies;
  for (std::size_t c = 0; c < kMailClients; ++c) {
    proxies.push_back(fw.make_proxy(client_node, kService, request));
    const auto t0 = Clock::now();
    r.binds.push_back(bind_and_replay(fw, stepper, ctx, *proxies.back(),
                                      request, client_node));
    r.bind_host_s += seconds_since(t0);
  }
  std::vector<std::unique_ptr<MailUser>> users;
  for (std::size_t c = 0; c < kMailClients; ++c) {
    if (!r.binds[c].ok) continue;
    const std::string user = "u" + std::to_string(c);
    w.config->keys->provision_user(user, mail::kMaxSensitivity);
    users.push_back(std::make_unique<MailUser>(fw, *proxies[c], user, wl.mix,
                                               seeds[c], *ctx.bodies, c,
                                               *ctx.tracer));
  }
  r.setup_s = seconds_since(t_setup);

  // ---- measured phase ----
  r.rt_before = fw.runtime().stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t_run = Clock::now();
  for (auto& u : users) u->start();
  const auto all_done = [&users]() {
    for (const auto& u : users) {
      if (!u->finished()) return false;
    }
    return true;
  };
  for (int guard = 0; !all_done() && guard < 100000; ++guard) {
    stepper.run_for(sim::Duration::from_millis(250));
  }
  r.measured_host_s = seconds_since(t_run);
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  r.events = stepper.events();
  r.unfinished = all_done() ? 0 : 1;
  collect(fw, r, users);
  return r;
}

// ---- metrics ------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  util::SampleSet s;
  for (double x : v) s.add(x);
  return s.percentile(p);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    entries_[name] = {value, unit};
  }
  std::string json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                                     "\"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), e.first, e.second);
      out += buf;
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, const char*>> entries_;
};

// Peak resident memory of this process image, from VmHWM. (getrusage's
// ru_maxrss survives exec, so it would report a larger parent's peak.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// `firsts` holds one round per sub-seed of the cycle (the simulated
// outputs); `rounds` every untraced round (host time).
void end_to_end_metrics(const std::vector<const RoundResult*>& firsts,
                        const std::vector<const RoundResult*>& rounds,
                        double rss_mb, Metrics& m) {
  std::vector<double> setup, ops_rate, bind_wall;
  double attempted = 0.0, failed = 0.0;
  for (const RoundResult* r : rounds) {
    setup.push_back(r->setup_s);
    ops_rate.push_back(ratio(static_cast<double>(r->ops_ok()),
                             r->measured_host_s));
    std::vector<double> walls;
    for (const BindRecord& b : r->binds) walls.push_back(b.wall_ms);
    bind_wall.push_back(median(walls));
    attempted += static_cast<double>(r->ops_ok() + r->ops_failed() +
                                     r->binds.size());
    failed += static_cast<double>(r->ops_failed() + r->binds_failed());
  }
  std::vector<double> send, receive;
  for (const RoundResult* r : firsts) {
    send.insert(send.end(), r->send_ms.begin(), r->send_ms.end());
    receive.insert(receive.end(), r->receive_ms.begin(), r->receive_ms.end());
  }
  m.set("setup_s", median(setup), "s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("ok_ratio", 1.0 - ratio(failed, attempted), "ratio");
  m.set("ops_per_host_s", median(ops_rate), "1/s");
  m.set("send_p50_ms", percentile(send, 50.0), "ms");
  m.set("send_p99_ms", percentile(send, 99.0), "ms");
  m.set("receive_p50_ms", percentile(receive, 50.0), "ms");
  m.set("receive_p99_ms", percentile(receive, 99.0), "ms");
  m.set("bind_wall_p50_ms", median(bind_wall), "ms");
}

// Per-layer metrics: host-time ones as medians over the traced rounds,
// counters from the first traced round (every round with its sub-seed is
// identical), allocation counts, the bind rate and the tracing overhead from
// the untraced rounds next to them.
void per_layer_metrics(const std::vector<const RoundResult*>& traced,
                       const std::vector<const RoundResult*>& untraced,
                       std::uint64_t body_bytes, Metrics& m) {
  const RoundResult& r = *traced.front();
  const double ops = static_cast<double>(r.ops_ok() + r.ops_failed());
  const double sends =
      static_cast<double>(r.clients.sends_ok + r.clients.sends_failed);

  std::vector<double> seal, unseal, host_ns_per_event, share, plan_wall,
      traced_rate, untraced_rate, allocs, alloc_bytes, bind_rate;
  for (const RoundResult* tp : traced) {
    const RoundResult& t = *tp;
    seal.push_back(t.seal_ns_per_byte);
    unseal.push_back(t.unseal_ns_per_byte);
    host_ns_per_event.push_back(
        ratio(t.measured_host_s * 1e9, static_cast<double>(t.events)));
    traced_rate.push_back(
        ratio(static_cast<double>(t.ops_ok()), t.measured_host_s));
    for (const BindRecord& b : t.binds) {
      if (b.replay_wall_ms >= 0.0) plan_wall.push_back(b.replay_wall_ms);
    }
  }
  for (const RoundResult* up : untraced) {
    const RoundResult& u = *up;
    const double u_ops = static_cast<double>(u.ops_ok() + u.ops_failed());
    allocs.push_back(ratio(static_cast<double>(u.allocs), u_ops));
    alloc_bytes.push_back(ratio(static_cast<double>(u.alloc_bytes), u_ops));
    untraced_rate.push_back(
        ratio(static_cast<double>(u.ops_ok()), u.measured_host_s));
    bind_rate.push_back(
        ratio(static_cast<double>(u.binds.size() - u.binds_failed()),
              u.bind_host_s));
  }
  const double crypto_bytes =
      static_cast<double>(r.clients.sealed_sends + r.client_unseals +
                          r.tunnel_crypto) *
      static_cast<double>(body_bytes);
  const double crypto_ns_per_byte = (median(seal) + median(unseal)) / 2.0;
  for (const RoundResult* tp : traced) {
    const RoundResult& t = *tp;
    share.push_back(ratio(crypto_bytes * crypto_ns_per_byte,
                          t.measured_host_s * 1e9));
  }

  // crypto
  m.set("crypto.seal_ns_per_byte", median(seal), "ns/B");
  m.set("crypto.unseal_ns_per_byte", median(unseal), "ns/B");
  m.set("crypto.sealed_bytes_per_op", ratio(crypto_bytes, ops), "B");
  m.set("crypto.est_host_share", median(share), "ratio");
  // sim + allocator
  m.set("sim.events_per_op", ratio(static_cast<double>(r.events), ops),
        "count");
  m.set("sim.host_ns_per_event", median(host_ns_per_event), "ns");
  m.set("host.allocs_per_op", median(allocs), "count");
  m.set("host.alloc_bytes_per_op", median(alloc_bytes), "B");
  // smock
  m.set("smock.messages_per_op",
        ratio(static_cast<double>(r.rt.messages_sent -
                                  r.rt_before.messages_sent),
              ops),
        "count");
  m.set("smock.bytes_per_op",
        ratio(static_cast<double>(r.rt.bytes_transferred -
                                  r.rt_before.bytes_transferred),
              ops),
        "B");
  m.set("smock.cpu_util_max", r.cpu_util_max, "ratio");
  m.set("smock.link_util_max", r.link_util_max, "ratio");
  m.set("smock.dropped", static_cast<double>(r.rt.messages_dropped), "count");
  m.set("smock.unroutable", static_cast<double>(r.rt.messages_unroutable),
        "count");
  m.set("smock.invoke_timeouts", static_cast<double>(r.rt.invoke_timeouts),
        "count");
  m.set("smock.installs", static_cast<double>(r.rt.installs), "count");
  m.set("smock.code_cache_hits", static_cast<double>(r.rt.code_cache_hits),
        "count");
  // net
  m.set("net.route_rows", static_cast<double>(r.route_rows), "count");
  // coherence
  const core::CoherenceSummary& c = r.coherence;
  m.set("coherence.flushes_per_send",
        ratio(static_cast<double>(c.flushes), sends), "count");
  m.set("coherence.push_rpcs_per_send",
        ratio(static_cast<double>(c.push_rpcs), sends), "count");
  m.set("coherence.push_rpcs_saved", static_cast<double>(c.push_rpcs_saved),
        "count");
  m.set("coherence.bytes_flushed_per_send",
        ratio(static_cast<double>(c.bytes_flushed), sends), "B");
  double send_ms_total = 0.0;
  for (double x : r.send_ms) send_ms_total += x;
  m.set("coherence.blocked_share", ratio(c.blocked_on_flush_ms, send_ms_total),
        "ratio");
  m.set("coherence.residual_pending", static_cast<double>(c.residual_pending),
        "count");
  // mail
  m.set("mail.view_forward_fraction",
        ratio(static_cast<double>(r.view_forwarded),
              static_cast<double>(r.view_total)),
        "ratio");
  m.set("mail.plaintext_mismatches",
        static_cast<double>(r.clients.plaintext_mismatches), "count");
  m.set("mail.mac_failures", static_cast<double>(r.mac_failures), "count");
  // planner (cold binds of the first traced round; replays over all)
  std::vector<double> candidates;
  double hierarchy = 0.0, deadline = 0.0, cold = 0.0;
  for (const BindRecord& b : r.binds) {
    if (!b.ok || b.cache_hit || b.coalesced) continue;
    cold += 1.0;
    candidates.push_back(static_cast<double>(b.search.candidates_examined));
    hierarchy += b.search.used_hierarchy ? 1.0 : 0.0;
    deadline += b.search.deadline_hit ? 1.0 : 0.0;
  }
  m.set("planner.plan_wall_p50_ms", percentile(plan_wall, 50.0), "ms");
  m.set("planner.plan_wall_p90_ms", percentile(plan_wall, 90.0), "ms");
  m.set("planner.plan_wall_max_ms", percentile(plan_wall, 100.0), "ms");
  m.set("planner.candidates_p50", percentile(candidates, 50.0), "count");
  m.set("planner.candidates_max", percentile(candidates, 100.0), "count");
  m.set("planner.hierarchy_share", ratio(hierarchy, cold), "ratio");
  m.set("planner.deadline_hits", deadline, "count");
  // plan cache, lookup, deployment
  const double accesses =
      static_cast<double>(r.cache.hits + r.cache.misses + r.cache.coalesced);
  m.set("plan_cache.hit_ratio",
        ratio(static_cast<double>(r.cache.hits), accesses), "ratio");
  m.set("plan_cache.coalesced", static_cast<double>(r.cache.coalesced),
        "count");
  m.set("plan_cache.invalidations", static_cast<double>(r.cache.invalidations),
        "count");
  // The AccessCosts split of cold binds, as shares of their simulated cost.
  double lookup_ms = 0.0, plan_ms = 0.0, deploy_ms = 0.0;
  double installs = 0.0, binds = 0.0;
  for (const BindRecord& b : r.binds) {
    if (!b.ok) continue;
    binds += 1.0;
    installs += static_cast<double>(b.installs);
    if (!b.cache_hit && !b.coalesced) {
      lookup_ms += b.costs.lookup.millis();
      plan_ms += b.costs.planning.millis();
      deploy_ms += b.costs.deployment.millis();
    }
  }
  const double cold_ms = lookup_ms + plan_ms + deploy_ms;
  m.set("lookup.cold_bind_share", ratio(lookup_ms, cold_ms), "ratio");
  m.set("plan.cold_bind_share", ratio(plan_ms, cold_ms), "ratio");
  m.set("deploy.cold_bind_share", ratio(deploy_ms, cold_ms), "ratio");
  m.set("deploy.installs_per_bind", ratio(installs, binds), "count");
  // generic: binds per host second of the untraced bind phases. Not an
  // end-to-end metric: see "Host time of the bind phase" in README.md.
  m.set("generic.binds_per_host_s", median(bind_rate), "1/s");
  // tracing overhead: traced vs untraced ops per host second
  m.set("trace.overhead_share",
        1.0 - ratio(median(traced_rate), median(untraced_rate)),
        "ratio");
}

// ---- correctness gate -----------------------------------------------------------

struct Gate {
  std::vector<std::string> violations;
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

void check_round(const RoundResult& r, std::uint64_t expected_fingerprint,
                 Gate& gate) {
  gate.check(r.ops_ok() + r.ops_failed() == r.issued,
             "ok + failed != issued: " +
                 std::to_string(r.ops_ok() + r.ops_failed()) + " of " +
                 std::to_string(r.issued));
  gate.check(r.clients.plaintext_mismatches == 0,
             "plaintext mismatches: " +
                 std::to_string(r.clients.plaintext_mismatches));
  gate.check(r.mac_failures == 0,
             "MAC failures: " + std::to_string(r.mac_failures));
  gate.check(r.unfinished == 0, "clients did not finish their operations");
  gate.check(r.clients.messages_received > 0, "no message was read back");
  gate.check(r.fingerprint == expected_fingerprint,
             "simulated outputs differ between rounds with one seed");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "psf_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  // Workload definitions; BENCHMARK.json records why each was chosen.
  MailWorkload wl;
  if (workload == "branch_mail") {
    wl.mix.sends_per_receive = 10;
    wl.mix.high_send_every = 5;
    wl.mix.high_receive_every = 5;
    wl.mix.ops = 110;  // the paper's 100 sends + 10 receives per client
  } else if (workload == "hq_small_reads") {
    wl.branch = false;
    wl.mix.body_bytes = 64;
    wl.mix.sensitivity = 0;
    wl.mix.sends_per_receive = 1;
    wl.mix.ops = 200;
  } else {
    std::fprintf(stderr, "psf_perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const std::uint64_t body_bytes = wl.mix.body_bytes;

  // A cycle is `cycle` rounds with distinct sub-seeds drawn from --seed; its
  // pooled simulated samples are the run's simulated metrics. Rounds repeat
  // the cycle until --seconds have passed. Traced runs alternate untraced and
  // traced rounds, so each half covers every sub-seed (the cycle is odd).
  constexpr std::size_t cycle = 5;
  constexpr std::size_t min_samples = 1000;  // per cycle, sends and receives
  const std::size_t min_rounds = trace != 0 ? 2 * cycle : cycle;
  Tracer tracer;
  BodyTable bodies;
  std::vector<RoundResult> rounds;
  std::vector<std::size_t> first_of(cycle, SIZE_MAX);  // sub-seed -> round
  double rss_mb = 0.0;
  std::size_t kept_spans = 0;  // spans of the first traced cycle are written
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < min_rounds || seconds_since(t0) < seconds;
       ++i) {
    const std::size_t k = i % cycle;
    const bool traced_round = trace != 0 && (i % 2 == 1);
    tracer.set_enabled(traced_round);
    const std::uint64_t sub_seed = util::SplitMix64(seed * cycle + k).next();
    RoundContext ctx{sub_seed, traced_round, &tracer, &bodies};
    RoundResult r = run_mail_round(wl, ctx);
    r.sub_seed = k;
    r.traced = traced_round;
    if (traced_round) time_crypto(tracer, body_bytes, ctx.seed, r);
    if (i < 2 * cycle) {
      kept_spans = tracer.spans().size();
    } else {
      tracer.truncate(kept_spans);
    }
    if (first_of[k] == SIZE_MAX) {
      first_of[k] = rounds.size();
    } else {
      r.drop_samples();  // only the first round of a sub-seed keeps them
    }
    rounds.push_back(std::move(r));
    if (i + 1 == cycle) rss_mb = peak_rss_mb();
  }
  tracer.set_enabled(false);

  Gate gate;
  Fingerprint fingerprint;
  std::vector<const RoundResult*> firsts, untraced, traced;
  for (std::size_t k = 0; k < cycle; ++k) {
    firsts.push_back(&rounds[first_of[k]]);
    fingerprint.add(rounds[first_of[k]].fingerprint);
  }
  std::uint64_t attempted = 0, failed = 0;
  std::size_t sends = 0, receives = 0;
  for (const RoundResult& r : rounds) {
    check_round(r, rounds[first_of[r.sub_seed]].fingerprint, gate);
    attempted += r.ops_ok() + r.ops_failed() + r.binds.size();
    failed += r.ops_failed() + r.binds_failed();
    (r.traced ? traced : untraced).push_back(&r);
  }
  for (const RoundResult* r : firsts) {
    sends += r->send_ms.size();
    receives += r->receive_ms.size();
  }
  gate.check(sends >= min_samples && receives >= min_samples,
             "too few samples per cycle: " + std::to_string(sends) +
                 " sends, " + std::to_string(receives) + " receives");

  Metrics metrics;
  if (trace == 0) {
    end_to_end_metrics(firsts, untraced, rss_mb, metrics);
  } else {
    per_layer_metrics(traced, untraced, body_bytes, metrics);
  }

  std::printf("workload %s seed %llu rounds %zu untraced + %zu traced\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              untraced.size(), traced.size());
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(fingerprint.value()));
  std::printf("samples per cycle: send %zu receive %zu\n", sends, receives);
  for (const std::string& v : gate.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  if (trace != 0 && !trace_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_out, ec);
    const std::string path = trace_out + "/" + workload + "_seed" +
                             std::to_string(seed) + ".jsonl";
    if (!tracer.write(path)) {
      std::printf("CHECK FAILED: cannot write trace %s\n", path.c_str());
      gate.violations.push_back("trace write");
    } else {
      std::printf("trace %s (%zu spans)\n", path.c_str(),
                  tracer.spans().size());
    }
  }
  const bool correct = gate.violations.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str());
  return correct ? 0 : 1;
}
