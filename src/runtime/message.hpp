// Request/response messages exchanged between component instances.
//
// Payloads are polymorphic (MessageBody) so application components exchange
// typed data while the runtime only sees opaque bodies plus a wire size for
// the network cost model — the C++ stand-in for Java serialization.
//
// ResponseCallback is a move-only util::SmallFunction: the runtime parks it
// in a pooled call record while the request travels, so routing a call
// allocates nothing for the callback itself. A closure that captures
// another ResponseCallback exceeds the inline buffer and takes one heap
// block; capture `done` by move (the lambda becomes `mutable`) and keep
// other captures small.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/small_fn.hpp"

namespace psf::runtime {

struct MessageBody {
  virtual ~MessageBody() = default;
};

struct Request {
  std::string op;  // operation name, e.g. "mail.send"
  std::shared_ptr<const MessageBody> body;
  std::uint64_t wire_bytes = 1024;
  std::string principal;  // requesting user, carried as a credential (§2)
};

// Why an invocation failed at the transport layer, as opposed to an
// application-level error the callee produced. Retry policies key off this:
// transport failures are safe to retry (the op may simply have been lost),
// application failures are not.
enum class TransportError : std::uint8_t {
  kNone = 0,     // not a transport failure (ok, or application error)
  kUnreachable,  // no live route to the destination at send time
  kDropped,      // a hop dropped the message (link down mid-route, or loss)
  kTimeout,      // the invocation deadline expired before a response landed
  kDeadTarget,   // the target instance is gone (crashed / tombstoned)
};

inline const char* transport_error_name(TransportError e) {
  switch (e) {
    case TransportError::kNone: return "none";
    case TransportError::kUnreachable: return "unreachable";
    case TransportError::kDropped: return "dropped";
    case TransportError::kTimeout: return "timeout";
    case TransportError::kDeadTarget: return "dead-target";
  }
  return "?";
}

struct Response {
  bool ok = true;
  std::string error;
  std::shared_ptr<const MessageBody> body;
  std::uint64_t wire_bytes = 1024;
  TransportError transport = TransportError::kNone;

  static Response failure(std::string message) {
    Response r;
    r.ok = false;
    r.error = std::move(message);
    r.wire_bytes = 128;
    return r;
  }

  static Response transport_failure(TransportError kind, std::string message) {
    Response r = failure(std::move(message));
    r.transport = kind;
    return r;
  }
};

using ResponseCallback = util::SmallFunction<void(Response)>;

template <typename T>
const T* body_as(const Request& request) {
  return dynamic_cast<const T*>(request.body.get());
}

template <typename T>
const T* body_as(const Response& response) {
  return dynamic_cast<const T*>(response.body.get());
}

}  // namespace psf::runtime
