#include "mail/client.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace psf::mail {

bool MailClientComponent::supports(const std::string& /*op*/) const {
  return true;
}

bool ViewMailClientComponent::supports(const std::string& op) const {
  return op == ops::kSend || op == ops::kReceive;
}

void MailClientComponent::handle_request(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  if (!supports(request.op)) {
    ++stats_.rejected_ops;
    done(runtime::Response::failure("operation '" + request.op +
                                    "' not available on this client view"));
    return;
  }
  if (request.op == ops::kSend) {
    handle_send(request, std::move(done));
  } else if (request.op == ops::kReceive) {
    handle_receive(request, std::move(done));
  } else {
    // Account management passes straight through to the server side.
    call("ServerInterface", request, std::move(done));
  }
}

void MailClientComponent::handle_send(const runtime::Request& request,
                                      runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<SendBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed send"));
    return;
  }
  ++stats_.sends;

  // A message that needs no sealing travels on as the caller's own body.
  runtime::Request forwarded;
  forwarded.op = ops::kSend;
  forwarded.body = request.body;
  forwarded.wire_bytes = send_wire_bytes(body->message);
  forwarded.principal = request.principal;
  double crypto_units = 0.0;
  if (body->message.sensitivity > 0 && !body->message.sealed) {
    auto key = config_->keys->key(
        crypto::KeyRef{body->message.from, body->message.sensitivity});
    if (!key) {
      done(runtime::Response::failure(
          "sender has no key at level " +
          std::to_string(body->message.sensitivity)));
      return;
    }
    auto outgoing = std::make_shared<SendBody>();
    outgoing->message = body->message;
    crypto_units = crypto::crypto_cpu_cost(body->message.plaintext.size());
    outgoing->message.sealed = std::make_shared<const crypto::SealedBlob>(
        crypto::seal(*key, body->message.id, body->message.plaintext));
    outgoing->message.key_owner = body->message.from;
    outgoing->message.plaintext.clear();
    forwarded.wire_bytes = send_wire_bytes(outgoing->message);
    forwarded.body = std::move(outgoing);
  }

  auto send_it = [this, forwarded = std::move(forwarded),
                  done = std::move(done)]() mutable {
    call("ServerInterface", std::move(forwarded), std::move(done));
  };
  if (crypto_units > 0.0) {
    charge_cpu(crypto_units, std::move(send_it));
  } else {
    send_it();
  }
}

void MailClientComponent::handle_receive(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<ReceiveBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed receive"));
    return;
  }
  ++stats_.receives;

  call("ServerInterface", request,
       [this, done = std::move(done)](runtime::Response response) mutable {
         if (!response.ok) {
           done(std::move(response));
           return;
         }
         const auto* result = runtime::body_as<ReceiveResultBody>(response);
         if (result == nullptr ||
             std::none_of(result->messages.begin(), result->messages.end(),
                          [](const MailMessage& m) {
                            return m.sealed != nullptr;
                          })) {
           // Nothing to decrypt: the server's reply is already plaintext
           // for the local user, so it goes back as is.
           done(std::move(response));
           return;
         }
         // Decrypt and verify every sealed message for the local user.
         auto plain = std::make_shared<ReceiveResultBody>();
         plain->messages.reserve(result->messages.size());
         double crypto_units = 0.0;
         for (const MailMessage& m : result->messages) {
           MailMessage copy = m;
           if (copy.sealed) {
             auto key = config_->keys->key(
                 crypto::KeyRef{copy.key_owner, copy.sensitivity});
             std::vector<std::uint8_t> text;
             if (key && crypto::unseal(*key, *copy.sealed, text)) {
               crypto_units += crypto::crypto_cpu_cost(text.size());
               copy.plaintext = std::move(text);
               copy.sealed.reset();
               ++stats_.messages_decrypted;
             } else {
               ++stats_.mac_failures;
               PSF_WARN() << "MailClient: failed to unseal message "
                          << copy.id;
             }
           }
           plain->messages.push_back(std::move(copy));
         }
         runtime::Response out;
         out.body = plain;
         out.wire_bytes = response.wire_bytes;
         if (crypto_units > 0.0) {
           charge_cpu(crypto_units, [out = std::move(out),
                                     done = std::move(done)]() mutable {
             done(std::move(out));
           });
         } else {
           done(std::move(out));
         }
       });
}

}  // namespace psf::mail
