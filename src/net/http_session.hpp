#pragma once

#include <deque>
#include <memory>
#include <string>

#include "http/parser.hpp"
#include "net/stream_transport.hpp"

namespace mahimahi::net {

/// Prefork-style worker pool semantics for one server instance: each live
/// connection holds a worker for its whole lifetime (Apache prefork with
/// keep-alive); when the pool is exhausted, further connections wait while
/// the server spawns workers at a bounded rate. Collapsing a 20-origin
/// site onto one server funnels ~60+ simultaneous browser connections
/// into one cold pool — the mechanism behind the paper's Table 2 and
/// Figure 3 single-server penalty. A multi-origin replay gives each origin
/// its own pool, and per-origin demand (<= 6 connections) never starves.
struct WorkerPool {
  int initial_workers{1024};  // effectively uncontended by default
  int max_workers{4096};
  /// One extra worker is spawned per interval while connections wait.
  Microseconds spawn_interval{25'000};
};

/// An HTTP/1.1 origin server running over simulated TCP. Each accepted
/// connection gets a RequestParser; complete requests are answered by the
/// handler in arrival order, honouring keep-alive. Both RecordShell's
/// upstream origins (LiveWeb) and ReplayShell's origin servers are built
/// on this. `processing_delay` is pure per-request latency (think time);
/// connection concurrency is governed by the WorkerPool.
class HttpServer final : public OriginServer {
 public:
  HttpServer(Fabric& fabric, Address local, Handler handler,
             Microseconds processing_delay = 0,
             TcpConnection::Config config = {});

  /// Install prefork-style concurrency limits. Call before traffic arrives.
  void set_worker_pool(const WorkerPool& pool);

  /// Connections that had to wait for a worker (starvation indicator).
  [[nodiscard]] std::uint64_t worker_waits() const { return worker_waits_; }

 private:
  struct Session {
    std::weak_ptr<TcpConnection> connection;
    http::RequestParser parser;
    bool closing{false};
    bool has_worker{false};
    bool worker_released{false};
  };

  TcpConnection::Callbacks accept(
      const std::shared_ptr<TcpConnection>& connection) override;
  void on_data(const std::shared_ptr<Session>& session, std::string_view bytes);
  void drain_requests(const std::shared_ptr<Session>& session);
  void request_worker(const std::shared_ptr<Session>& session);
  void release_worker(const std::shared_ptr<Session>& session);
  void grant_workers();
  void arm_spawn_timer();

  WorkerPool pool_;
  int workers_spawned_{0};   // current pool size
  int workers_busy_{0};
  std::deque<std::shared_ptr<Session>> waiting_;
  EventLoop::EventId spawn_event_{0};
  std::uint64_t worker_waits_{0};
};

/// One HTTP/1.1 client connection over simulated TCP with keep-alive and
/// request queuing (no pipelining: the next request goes out when the
/// previous response has fully arrived — matching 2014 browsers).
class HttpClientConnection final : public ClientConnection {
 public:
  HttpClientConnection(Fabric& fabric, Address server,
                       ErrorCallback on_error = {},
                       TcpConnection::Config config = {});

  /// Half-close after the queue drains (Connection: close semantics).
  void close_when_idle();

  /// Hard-kill the connection (RST) without invoking the error callback —
  /// the caller has already decided this request's fate (deadline expiry).
  void abort();

  [[nodiscard]] bool idle() const { return outstanding_ == 0 && queue_.empty(); }

 private:
  struct PendingRequest {
    http::Request request;
    ResponseCallback callback;
    FetchHooks hooks;
  };

  void issue(http::Request request, ResponseCallback callback,
             FetchHooks hooks) override;
  void on_handshake() override;
  void on_data(std::string_view bytes) override;
  void on_server_close() override;
  [[nodiscard]] bool busy() const override { return !idle(); }
  void drop_requests() override;
  void maybe_send_next();

  http::ResponseParser parser_;
  std::deque<PendingRequest> queue_;
  std::deque<ResponseCallback> in_flight_callbacks_;
  /// Hooks of the single outstanding request (no pipelining, so one set).
  FetchHooks current_hooks_;
  std::size_t outstanding_{0};
  bool close_when_idle_{false};
};

}  // namespace mahimahi::net
