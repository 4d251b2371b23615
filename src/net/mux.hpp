#pragma once

#include <deque>
#include <map>
#include <memory>

#include "http/parser.hpp"
#include "net/stream_transport.hpp"

namespace mahimahi::net::mux {

/// A SPDY-like multiplexing protocol over one TCP connection per origin —
/// the kind of "new multiplexing protocol" the paper's introduction says
/// the toolkit exists to evaluate.
///
/// Wire format (little-endian): stream_id u32 | type u8 | length u32 |
/// payload. A kRequest frame carries one serialized HTTP request; the
/// server answers with kData frames carrying the serialized HTTP response
/// in chunks, interleaved round-robin across active streams and paced
/// against the TCP send buffer, then a kEnd frame. Many streams share one
/// connection: no per-request handshakes, no six-connection limit — and
/// full exposure to TCP head-of-line blocking under loss.
struct Frame {
  enum class Type : std::uint8_t { kRequest = 1, kData = 2, kEnd = 3 };
  std::uint32_t stream_id{0};
  Type type{Type::kData};
  std::string payload;

  bool operator==(const Frame&) const = default;
};

std::string encode_frame(const Frame& frame);

/// Just the 9-byte frame header — the zero-copy send path writes the
/// header and then hands the payload to TCP as an aliasing Payload slice,
/// so response bytes are never copied into a wire string.
std::string encode_frame_header(std::uint32_t stream_id, Frame::Type type,
                                std::uint32_t payload_length);

/// Incremental frame decoder (arbitrary fragmentation). Parsed bytes are
/// consumed by advancing an offset; the buffer compacts lazily instead of
/// memmoving its tail after every frame.
class FrameParser {
 public:
  void push(std::string_view bytes);
  [[nodiscard]] bool has_frame() const { return !frames_.empty(); }
  Frame pop();
  [[nodiscard]] bool failed() const { return failed_; }

  /// Frames above this payload size indicate a corrupt stream.
  static constexpr std::uint32_t kMaxPayload = 8u << 20;

 private:
  std::string buffer_;
  std::size_t consumed_{0};  // parsed prefix of buffer_ awaiting compaction
  std::deque<Frame> frames_;
  bool failed_{false};
};

/// Server side: binds an origin address and answers mux-framed HTTP
/// requests with the same Handler signature HttpServer uses.
class MuxServer final : public OriginServer {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;

  MuxServer(Fabric& fabric, Address local, Handler handler,
            Microseconds processing_delay = 0,
            std::size_t chunk_bytes = kDefaultChunkBytes,
            TcpConnection::Config config = {});

 private:
  struct Session {
    std::weak_ptr<TcpConnection> connection;
    FrameParser parser;
    /// Per-stream unsent response bytes (aliasing views into the
    /// serialized response — draining advances the view, copying nothing),
    /// round-robin interleaved.
    std::map<std::uint32_t, Payload> pending_streams;
    std::map<std::uint32_t, Payload>::iterator next_stream;

    Session() : next_stream{pending_streams.end()} {}
  };

  TcpConnection::Callbacks accept(
      const std::shared_ptr<TcpConnection>& connection) override;
  void on_data(const std::shared_ptr<Session>& session, std::string_view bytes);
  void start_response(const std::shared_ptr<Session>& session,
                      std::uint32_t stream_id, std::string wire);
  void pump_writer(const std::shared_ptr<Session>& session);

  std::size_t chunk_bytes_;
};

/// Client side: one connection, many concurrent fetches.
class MuxClientConnection final : public ClientConnection {
 public:
  MuxClientConnection(Fabric& fabric, Address server,
                      ErrorCallback on_error = {},
                      TcpConnection::Config config = {});

  [[nodiscard]] std::size_t outstanding() const { return streams_.size(); }

 private:
  struct Stream {
    http::ResponseParser parser;
    ResponseCallback callback;
    FetchHooks hooks;  // on_first_byte disarmed after the first kData frame
  };

  /// Unlike HTTP/1.1, any number of requests may be outstanding.
  void issue(http::Request request, ResponseCallback callback,
             FetchHooks hooks) override;
  void on_handshake() override;
  void on_data(std::string_view bytes) override;
  void on_server_close() override;
  [[nodiscard]] bool busy() const override { return !streams_.empty(); }
  void drop_requests() override { streams_.clear(); }

  FrameParser parser_;
  std::map<std::uint32_t, Stream> streams_;
  std::uint32_t next_stream_id_{1};
  std::deque<std::string> queued_frames_;  // sent once connected
};

}  // namespace mahimahi::net::mux
