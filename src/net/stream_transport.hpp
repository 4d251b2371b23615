#pragma once

// What HTTP/1.1 (net/http_session.hpp) and the mux (net/mux.hpp) share as
// application protocols over one simulated TCP stream: the origin-server
// request path and the client-connection lifecycle. A transport adds only
// its framing.

#include <algorithm>
#include <string>

#include "http/message.hpp"
#include "net/fault_hooks.hpp"
#include "net/fetch_hooks.hpp"
#include "net/tcp.hpp"

namespace mahimahi::net {

/// An origin server: listener, handler, processing delay, fault hook and
/// counters. A transport wires each accepted connection in `accept` and
/// hands every parsed request to `serve`.
class OriginServer {
 public:
  /// Maps a request to its response. Runs once per served request.
  using Handler = std::function<http::Response(const http::Request&)>;

  virtual ~OriginServer() = default;

  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  /// Fault injection: consulted once per parsed request (indexed in parse
  /// order, including requests that end up faulted). Null = no faults.
  void set_fault_hook(ServerFaultHook hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] Address address() const { return listener_.local_address(); }
  [[nodiscard]] std::uint64_t requests_served() const { return requests_served_; }
  [[nodiscard]] std::size_t active_connections() const {
    return listener_.active_connections();
  }
  [[nodiscard]] std::uint64_t total_accepted() const {
    return listener_.total_accepted();
  }
  [[nodiscard]] std::uint64_t faults_injected() const { return faults_injected_; }

 protected:
  /// `config` applies to every accepted connection — notably the
  /// congestion controller serving this origin's responses.
  OriginServer(Fabric& fabric, Address local, Handler handler,
               Microseconds processing_delay, TcpConnection::Config config);

  /// The transport's callbacks for one accepted connection.
  virtual TcpConnection::Callbacks accept(
      const std::shared_ptr<TcpConnection>& connection) = 0;

  /// Decides one parsed request's fate. A stalled request is swallowed.
  /// Otherwise the handler runs now and, after the processing delay plus
  /// any brown-out delay (immediately when that is zero), either
  /// `respond(std::string wire)` gets the serialized response or, on a
  /// crash, `crash(std::string prefix)` gets a clamped prefix of it and
  /// must reset the connection. Returns false after a crash: the
  /// connection is (about to be) gone, so the transport stops reading it.
  template <typename Respond, typename Crash>
  bool serve(const http::Request& request, Respond&& respond, Crash&& crash);

  Fabric& fabric_;

 private:
  template <typename F>
  void after_delay(Microseconds delay, F&& f) {
    if (delay > 0) {
      fabric_.loop().schedule_in(delay, std::forward<F>(f));
    } else {
      f();
    }
  }

  Handler handler_;
  Microseconds processing_delay_;
  std::uint64_t requests_served_{0};
  std::uint64_t requests_seen_{0};  // fault-hook index (includes faulted)
  std::uint64_t faults_injected_{0};
  ServerFaultHook fault_hook_;
  TcpListener listener_;  // declared last: destroyed before the rest
};

/// One client connection over simulated TCP: the TcpClient, the
/// connected/alive state, and how the connection fails. A transport
/// supplies the framing through the private virtuals.
class ClientConnection {
 public:
  using ResponseCallback = std::function<void(http::Response)>;
  /// Connection failed or died before/while a request was outstanding.
  using ErrorCallback = std::function<void(const std::string& reason)>;

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Issue a request; `callback` fires with the complete response.
  /// `hooks` (optional) observe the request's transport edges. On a dead
  /// connection only the error callback fires.
  void fetch(http::Request request, ResponseCallback callback,
             FetchHooks hooks = {});

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] const TcpConnection& connection() const {
    return client_.connection();
  }

 protected:
  /// `dead_fetch_error` (a string literal: it is stored as a view)
  /// reports a fetch on a dead connection.
  ClientConnection(Fabric& fabric, Address server, ErrorCallback on_error,
                   TcpConnection::Config config,
                   std::string_view dead_fetch_error);
  ~ClientConnection() = default;

  /// Runs a one-shot hook, if armed, and disarms it.
  static void fire_once(std::function<void()>& hook) {
    if (hook) {
      auto run = std::move(hook);
      hook = nullptr;
      run();
    }
  }

  /// Marks the connection dead, drops every request and reports `reason`
  /// — unless it is already dead and idle.
  void fail(const std::string& reason);

  [[nodiscard]] TcpConnection& tcp() { return client_.connection(); }

  bool connected_{false};
  bool alive_{true};

 private:
  /// Hands a request to the transport (the connection is alive).
  virtual void issue(http::Request request, ResponseCallback callback,
                     FetchHooks hooks) = 0;
  /// The handshake completed (`connected_` is set): fire the
  /// `on_connected` hooks of the requests that waited for it, then send.
  virtual void on_handshake() = 0;
  virtual void on_data(std::string_view bytes) = 0;
  /// The server half-closed; the connection is marked dead afterwards.
  virtual void on_server_close() = 0;
  /// True while any request is queued or outstanding.
  [[nodiscard]] virtual bool busy() const = 0;
  /// Forgets every queued and outstanding request without answering it.
  virtual void drop_requests() = 0;

  std::string_view dead_fetch_error_;
  ErrorCallback on_error_;
  TcpClient client_;  // declared last: its callbacks reference the above
};

// --- OriginServer::serve -----------------------------------------------------

template <typename Respond, typename Crash>
bool OriginServer::serve(const http::Request& request, Respond&& respond,
                         Crash&& crash) {
  ServerFault fault;
  if (fault_hook_) {
    fault = fault_hook_(requests_seen_);
  }
  ++requests_seen_;
  if (fault.kind == ServerFault::Kind::kStall) {
    // Accept-and-stall: the request is swallowed and no response ever
    // comes (a hung Apache child; a mux stream that never sees data).
    ++faults_injected_;
    return true;
  }
  http::Response response = handler_(request);
  http::finalize_content_length(response);
  ++requests_served_;
  std::string wire = http::to_bytes(response);
  // Simulated server think time (first-byte latency); overlaps freely
  // across requests.
  const Microseconds delay = processing_delay_ + fault.extra_delay;
  if (fault.kind == ServerFault::Kind::kCrash) {
    // Crash mid-response: a prefix of the wire bytes (at least one), then
    // RST.
    ++faults_injected_;
    const double fraction = std::clamp(fault.fraction, 0.0, 1.0);
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(wire.size()) * fraction);
    wire.resize(std::max<std::size_t>(1, std::min(cut, wire.size())));
    after_delay(delay, [crash = std::forward<Crash>(crash),
                        wire = std::move(wire)]() mutable {
      crash(std::move(wire));
    });
    return false;
  }
  after_delay(delay, [respond = std::forward<Respond>(respond),
                      wire = std::move(wire)]() mutable {
    respond(std::move(wire));
  });
  return true;
}

}  // namespace mahimahi::net
