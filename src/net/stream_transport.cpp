#include "net/stream_transport.hpp"

#include "util/assert.hpp"

namespace mahimahi::net {

// --- OriginServer --------------------------------------------------------------

OriginServer::OriginServer(Fabric& fabric, Address local, Handler handler,
                           Microseconds processing_delay,
                           TcpConnection::Config config)
    : fabric_{fabric},
      handler_{std::move(handler)},
      processing_delay_{processing_delay},
      listener_{fabric, local,
                [this](const std::shared_ptr<TcpConnection>& c) {
                  return accept(c);
                },
                std::move(config)} {
  MAHI_ASSERT(handler_ != nullptr);
}

// --- ClientConnection ----------------------------------------------------------

ClientConnection::ClientConnection(Fabric& fabric, Address server,
                                   ErrorCallback on_error,
                                   TcpConnection::Config config,
                                   std::string_view dead_fetch_error)
    : dead_fetch_error_{dead_fetch_error},
      on_error_{std::move(on_error)},
      client_{fabric, server,
              TcpConnection::Callbacks{
                  .on_connected =
                      [this] {
                        connected_ = true;
                        on_handshake();
                      },
                  .on_data = [this](std::string_view bytes) { on_data(bytes); },
                  .on_peer_close =
                      [this] {
                        on_server_close();
                        alive_ = false;
                      },
                  .on_reset =
                      [this] {
                        // Typed close reason from TCP: a deadline-driven
                        // resilience layer treats "server crashed" and
                        // "network unreachable" differently.
                        const auto reason = tcp().close_reason();
                        switch (reason) {
                          case TcpConnection::CloseReason::kSynTimeout:
                          case TcpConnection::CloseReason::kRetransmitExhausted:
                            fail(std::string{to_string(reason)});
                            break;
                          default:
                            fail("connection reset");
                            break;
                        }
                      }},
              std::move(config)} {}

void ClientConnection::fetch(http::Request request, ResponseCallback callback,
                             FetchHooks hooks) {
  MAHI_ASSERT(callback != nullptr);
  if (!alive_) {
    if (on_error_) {
      on_error_(std::string{dead_fetch_error_});
    }
    return;
  }
  issue(std::move(request), std::move(callback), std::move(hooks));
}

void ClientConnection::fail(const std::string& reason) {
  if (!alive_ && !busy()) {
    return;
  }
  alive_ = false;
  drop_requests();
  if (on_error_) {
    on_error_(reason);
  }
}

}  // namespace mahimahi::net
