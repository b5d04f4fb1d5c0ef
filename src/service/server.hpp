#pragma once

#include "service/chaos.hpp"
#include "service/core.hpp"
#include "service/transport.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lph {
namespace service {

/// Counters of one transport session (one pipe run / one TCP connection).
struct ServeReport {
    std::uint64_t lines = 0;           ///< non-empty lines read
    std::uint64_t requests = 0;        ///< lines that parsed into requests
    std::uint64_t protocol_errors = 0; ///< lines answered with ProtocolError
};

/// Runs the line protocol over a stream pair until EOF on `in` — the
/// `lphd --pipe` transport.  Requests are submitted to the core as they are
/// read (so the workers see the whole pipelined window) while a writer
/// thread emits responses in request order; a malformed line produces an
/// immediate ProtocolError response and the stream stays usable.
ServeReport serve_stream(ServiceCore& core, std::istream& in, std::ostream& out);

/// Binds + listens on 127.0.0.1:`port` (0 picks a free port) and returns the
/// listening fd, with the resolved port in `*bound_port`.  Split out of
/// TcpServer so a supervisor can bind once *before* forking: workers inherit
/// this fd and accept from one shared kernel queue.  Throws
/// precondition_error on failure.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port);

/// Tag for the adopted-listener TcpServer constructor.
struct AdoptSocket {
    int fd = -1;
};

/// Blocking TCP listener on 127.0.0.1 with a fixed pool of connection
/// workers, each speaking the same line protocol as serve_stream.
class TcpServer {
public:
    /// Binds and listens; port 0 picks a free port (read it back via
    /// port()).  Throws precondition_error when the socket cannot be set up.
    TcpServer(ServiceCore& core, std::uint16_t port,
              unsigned connection_workers = 4);

    /// Adopts an fd already listening (from listen_loopback, possibly
    /// inherited across fork); the server owns and closes it.
    TcpServer(ServiceCore& core, AdoptSocket adopted,
              unsigned connection_workers = 4);
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    /// The bound port (resolves port 0).
    std::uint16_t port() const { return port_; }

    /// Installs a wire-level chaos injector on the response path (nullptr to
    /// disable); call before start().  The injector must outlive the server.
    void set_chaos(ChaosInjector* chaos) { chaos_ = chaos; }

    /// Spawns the accept thread and the connection workers.
    void start();

    /// Closes the listener, wakes every worker, and joins; idempotent.
    void shutdown();

private:
    void accept_loop();
    void connection_loop(unsigned worker);
    void handle_connection(int fd);

    ServiceCore& core_;
    ChaosInjector* chaos_ = nullptr;
    std::atomic<int> listen_fd_{-1}; ///< written by shutdown, read by accept
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};

    std::mutex pending_mutex_;
    std::condition_variable pending_cv_;
    std::deque<int> pending_fds_;

    std::mutex active_mutex_;
    std::vector<int> active_fds_; ///< one slot per connection worker

    std::thread accept_thread_;
    std::vector<std::thread> connection_threads_;
};

/// Line-oriented client over a loopback TCP connection (lph_client and the
/// service tests).
class TcpClient {
public:
    TcpClient(const std::string& host, std::uint16_t port);
    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    void send_line(const std::string& line);

    /// send_line with the transport status surfaced instead of best-effort:
    /// PeerClosed (EPIPE/ECONNRESET — the daemon died mid-conversation) and
    /// Error come back as values, with `*error` describing the failure.
    TransportStatus send_line_status(const std::string& line,
                                     std::string* error = nullptr);

    /// Reads one response line (without the newline); false on EOF.
    bool recv_line(std::string& line);

    /// recv_line with a per-read timeout (0 = block) and the transport
    /// status surfaced — the retry layer's read primitive.
    TransportStatus recv_line_status(std::string& line, int timeout_ms = 0,
                                     std::string* error = nullptr);

private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace service
} // namespace lph
