#include "core/workload.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace psf::core {

WorkloadClient::WorkloadClient(runtime::SmockRuntime& runtime,
                               std::string user, mail::MailConfigPtr config,
                               Transport transport, WorkloadParams params)
    : runtime_(runtime),
      user_(std::move(user)),
      config_(std::move(config)),
      transport_(std::move(transport)),
      params_(params) {
  PSF_CHECK(params_.sends > 0);
}

void WorkloadClient::start() {
  // Account setup time: the user's per-level keys exist before any message
  // is sealed (paper §2).
  config_->keys->provision_user(user_, mail::kMaxSensitivity);
  started_ = runtime_.simulator().now();
  schedule_next();
}

void WorkloadClient::schedule_next() {
  runtime_.simulator().schedule(params_.think, [this]() { issue_op(); });
}

void WorkloadClient::issue_op() {
  // Interleave: after every (sends / receives) sends, one receive.
  const std::size_t sends_per_receive =
      params_.receives == 0 ? params_.sends + 1
                            : std::max<std::size_t>(1, params_.sends /
                                                           params_.receives);
  const bool receive_due =
      receives_issued_ < params_.receives &&
      sends_issued_ > 0 &&
      sends_issued_ % sends_per_receive == 0 &&
      receives_issued_ < sends_issued_ / sends_per_receive;

  if (sends_issued_ < params_.sends && !receive_due) {
    issue_send();
  } else if (receives_issued_ < params_.receives) {
    issue_receive();
  } else if (sends_issued_ < params_.sends) {
    issue_send();
  } else {
    finished_ = true;
  }
}

void WorkloadClient::issue_send() {
  ++sends_issued_;
  const bool high = params_.high_send_every != 0 &&
                    sends_issued_ % params_.high_send_every == 0;

  auto body = std::make_shared<mail::SendBody>();
  body->message.id = next_message_id_++;
  body->message.from = user_;
  body->message.to = user_;  // self-mail: inbox observable by our receives
  body->message.subject = "msg-" + std::to_string(body->message.id);
  body->message.sensitivity =
      high ? params_.high_sensitivity : params_.low_sensitivity;
  body->message.plaintext.assign(params_.body_bytes,
                                 static_cast<std::uint8_t>(body->message.id));

  runtime::Request request;
  request.op = mail::ops::kSend;
  request.body = body;
  request.wire_bytes = mail::send_wire_bytes(body->message);
  request.principal = user_;

  const sim::Time issued = runtime_.simulator().now();
  transport_(std::move(request), [this, issued](runtime::Response response) {
    if (response.ok) {
      ++stats_.sends_ok;
    } else {
      ++stats_.sends_failed;
      PSF_DEBUG() << "send failed: " << response.error;
    }
    send_latency_ms_.add((runtime_.simulator().now() - issued).millis());
    op_completed();
  });
}

void WorkloadClient::issue_receive() {
  ++receives_issued_;
  auto body = std::make_shared<mail::ReceiveBody>();
  body->user = user_;
  body->max_messages = 16;
  body->include_high_sensitivity =
      params_.high_receive_every != 0 &&
      receives_issued_ % params_.high_receive_every == 0;

  runtime::Request request;
  request.op = mail::ops::kReceive;
  request.body = body;
  request.wire_bytes = 256;
  request.principal = user_;

  transport_(std::move(request), [this](runtime::Response response) {
    if (response.ok) {
      ++stats_.receives_ok;
      if (const auto* result =
              runtime::body_as<mail::ReceiveResultBody>(response)) {
        stats_.messages_received += result->messages.size();
        for (const mail::MailMessage& m : result->messages) {
          // End-to-end integrity: a plaintext body must match what we sent,
          // in length and in every byte. A body still sealed (read without
          // a decrypting client) has nothing to compare.
          if (m.sealed) continue;
          const auto id_byte = static_cast<std::uint8_t>(m.id);
          if (m.plaintext.size() != params_.body_bytes ||
              std::any_of(m.plaintext.begin(), m.plaintext.end(),
                          [id_byte](std::uint8_t b) { return b != id_byte; })) {
            ++stats_.plaintext_mismatches;
          }
        }
      }
    } else {
      ++stats_.receives_failed;
      PSF_DEBUG() << "receive failed: " << response.error;
    }
    op_completed();
  });
}

void WorkloadClient::op_completed() {
  if (stats_.first_op_ms < 0.0) {
    stats_.first_op_ms = (runtime_.simulator().now() - started_).millis();
  }
  if (sends_issued_ >= params_.sends &&
      receives_issued_ >= params_.receives) {
    finished_ = true;
    return;
  }
  schedule_next();
}

}  // namespace psf::core
