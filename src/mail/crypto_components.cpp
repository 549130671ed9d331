#include "mail/crypto_components.hpp"

#include "util/logging.hpp"

namespace psf::mail {

crypto::SymmetricKey tunnel_key(const MailServiceConfig& config) {
  return crypto::derive_key(config.master_secret, "confidential-tunnel");
}

std::vector<std::uint8_t> tunnel_image(std::uint64_t bytes,
                                       std::uint64_t nonce) {
  // Cap the materialized image; the cost model below still charges for the
  // full length, so large messages keep realistic CPU cost without large
  // allocations in tight simulation loops.
  const std::size_t materialized =
      static_cast<std::size_t>(std::min<std::uint64_t>(bytes, 4096));
  // Byte i is (nonce + 131 * i) & 0xFF: step by 131 modulo 256 instead of
  // multiplying per byte.
  std::vector<std::uint8_t> image(materialized);
  auto b = static_cast<std::uint8_t>(nonce);
  for (std::uint8_t& out : image) {
    out = b;
    b = static_cast<std::uint8_t>(b + 131);
  }
  return image;
}

void EncryptorComponent::handle_request(const runtime::Request& request,
                                        runtime::ResponseCallback done) {
  const crypto::SymmetricKey key = tunnel_key(*config_);
  const std::uint64_t nonce = (nonce_ += 2);

  auto envelope = std::make_shared<TunnelBody>();
  envelope->inner_op = request.op;
  envelope->inner = request.body;
  envelope->inner_wire_bytes = request.wire_bytes;
  envelope->principal = request.principal;
  envelope->blob =
      crypto::seal(key, nonce, tunnel_image(request.wire_bytes, nonce));
  ++stats_.requests_sealed;

  runtime::Request sealed;
  sealed.op = kTunnelOp;
  sealed.body = envelope;
  sealed.wire_bytes = request.wire_bytes + 48;  // nonce + MAC + framing

  const double units = crypto::crypto_cpu_cost(request.wire_bytes);
  charge_cpu(units, [this, key, sealed = std::move(sealed),
                     done = std::move(done)]() mutable {
    call("DecryptorInterface", std::move(sealed),
         [this, key,
          done = std::move(done)](runtime::Response response) mutable {
           // The return path arrives sealed; verify and unwrap it.
           const auto* reply = runtime::body_as<TunnelBody>(response);
           if (reply == nullptr) {
             // Plain response (e.g. an error raised before the decryptor).
             done(std::move(response));
             return;
           }
           std::vector<std::uint8_t> image;
           if (!crypto::unseal(key, reply->blob, image)) {
             ++stats_.mac_failures;
             done(runtime::Response::failure(
                 "tunnel MAC verification failed on response"));
             return;
           }
           ++stats_.responses_unsealed;
           runtime::Response plain;
           plain.ok = response.ok;
           plain.error = response.error;
           plain.transport = response.transport;
           plain.body = reply->inner;
           plain.wire_bytes = reply->inner_wire_bytes;
           const double resp_units =
               crypto::crypto_cpu_cost(reply->inner_wire_bytes);
           charge_cpu(resp_units, [plain = std::move(plain),
                                   done = std::move(done)]() mutable {
             done(std::move(plain));
           });
         });
  });
}

void DecryptorComponent::handle_request(const runtime::Request& request,
                                        runtime::ResponseCallback done) {
  if (request.op != kTunnelOp) {
    done(runtime::Response::failure(
        "Decryptor expects sealed tunnel traffic, got op '" + request.op +
        "'"));
    return;
  }
  const auto* envelope = runtime::body_as<TunnelBody>(request);
  if (envelope == nullptr) {
    done(runtime::Response::failure("malformed tunnel envelope"));
    return;
  }
  const crypto::SymmetricKey key = tunnel_key(*config_);
  std::vector<std::uint8_t> image;
  if (!crypto::unseal(key, envelope->blob, image)) {
    ++stats_.mac_failures;
    done(runtime::Response::failure("tunnel MAC verification failed"));
    return;
  }
  ++stats_.responses_unsealed;

  runtime::Request plain;
  plain.op = envelope->inner_op;
  plain.body = envelope->inner;
  plain.wire_bytes = envelope->inner_wire_bytes;
  plain.principal = envelope->principal;

  const double units = crypto::crypto_cpu_cost(envelope->inner_wire_bytes);
  charge_cpu(units, [this, key, plain = std::move(plain),
                     done = std::move(done)]() mutable {
    call("ServerInterface", std::move(plain),
         [this, key,
          done = std::move(done)](runtime::Response response) mutable {
           if (!response.ok) {
             // Failures (including transport errors from a dead upstream
             // wire) travel back plain; the encryptor forwards them verbatim.
             done(std::move(response));
             return;
           }
           // Seal the response for the trip back across the insecure link.
           const std::uint64_t nonce = (nonce_ += 2);
           auto reply = std::make_shared<TunnelBody>();
           reply->inner = response.body;
           reply->inner_wire_bytes = response.wire_bytes;
           reply->blob = crypto::seal(
               key, nonce, tunnel_image(response.wire_bytes, nonce));
           ++stats_.requests_sealed;

           runtime::Response sealed;
           sealed.ok = response.ok;
           sealed.error = response.error;
           sealed.body = reply;
           sealed.wire_bytes = response.wire_bytes + 48;
           const double resp_units =
               crypto::crypto_cpu_cost(response.wire_bytes);
           charge_cpu(resp_units, [sealed = std::move(sealed),
                                   done = std::move(done)]() mutable {
             done(std::move(sealed));
           });
         });
  });
}

}  // namespace psf::mail
