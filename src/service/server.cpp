#include "service/server.hpp"

#include "core/check.hpp"
#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <istream>
#include <ostream>

namespace lph {
namespace service {

namespace {

/// Emits responses in request order as their futures resolve, on its own
/// thread so the reader can keep submitting (and the workers keep serving)
/// while earlier requests are still in flight.
class ResponseWriter {
public:
    explicit ResponseWriter(std::function<void(const std::string&)> sink)
        : sink_(std::move(sink)), thread_([this] { run(); }) {}

    ~ResponseWriter() { finish(); }

    void push(std::future<Response> future) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(future));
        }
        cv_.notify_one();
    }

    void push_ready(Response response) {
        std::promise<Response> promise;
        promise.set_value(std::move(response));
        push(promise.get_future());
    }

    /// Drains the queue and joins; idempotent.
    void finish() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable()) {
            thread_.join();
        }
    }

private:
    void run() {
        for (;;) {
            std::future<Response> next;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
                if (queue_.empty()) {
                    return;
                }
                next = std::move(queue_.front());
                queue_.pop_front();
            }
            sink_(next.get().to_json());
        }
    }

    std::function<void(const std::string&)> sink_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::future<Response>> queue_;
    bool closed_ = false;
    std::thread thread_;
};

bool is_blank(const std::string& line) {
    for (const char c : line) {
        if (c != ' ' && c != '\t' && c != '\r') {
            return false;
        }
    }
    return true;
}

/// One protocol session over an abstract line source/sink — shared between
/// the pipe transport and each TCP connection.
ServeReport serve_lines(ServiceCore& core,
                        const std::function<bool(std::string&)>& read_line,
                        const std::function<void(const std::string&)>& sink) {
    ServeReport report;
    ResponseWriter writer(sink);
    std::string line;
    std::size_t line_number = 0;
    while (read_line(line)) {
        ++line_number;
        if (is_blank(line)) {
            continue;
        }
        ++report.lines;
        try {
            Request request =
                parse_request(line, line_number, core.options().wire);
            ++report.requests;
            writer.push(core.submit(std::move(request)));
        } catch (const precondition_error& e) {
            ++report.protocol_errors;
            core.note_protocol_error();
            writer.push_ready(Response::protocol_error(e.what()));
        }
    }
    writer.finish();
    return report;
}

} // namespace

ServeReport serve_stream(ServiceCore& core, std::istream& in,
                         std::ostream& out) {
    std::mutex out_mutex;
    return serve_lines(
        core, [&in](std::string& line) { return bool(std::getline(in, line)); },
        [&out, &out_mutex](const std::string& response) {
            const std::lock_guard<std::mutex> lock(out_mutex);
            out << response << '\n';
            out.flush();
        });
}

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd >= 0, std::string("socket() failed: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string detail = std::strerror(errno);
        ::close(fd);
        check(false, "bind(127.0.0.1:" + std::to_string(port) +
                         ") failed: " + detail);
    }
    if (::listen(fd, 64) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(fd);
        check(false, std::string("listen() failed: ") + detail);
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    check(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
          std::string("getsockname() failed: ") + std::strerror(errno));
    if (bound_port != nullptr) {
        *bound_port = ntohs(bound.sin_port);
    }
    return fd;
}

TcpServer::TcpServer(ServiceCore& core, std::uint16_t port,
                     unsigned connection_workers)
    : core_(core) {
    std::uint16_t bound = 0;
    listen_fd_ = listen_loopback(port, &bound);
    port_ = bound;
    active_fds_.assign(std::max(1u, connection_workers), -1);
}

TcpServer::TcpServer(ServiceCore& core, AdoptSocket adopted,
                     unsigned connection_workers)
    : core_(core) {
    check(adopted.fd >= 0, "adopted listener fd must be valid");
    listen_fd_ = adopted.fd;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    check(::getsockname(adopted.fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0,
          std::string("getsockname() failed: ") + std::strerror(errno));
    port_ = ntohs(bound.sin_port);
    active_fds_.assign(std::max(1u, connection_workers), -1);
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::start() {
    accept_thread_ = std::thread([this] { accept_loop(); });
    connection_threads_.reserve(active_fds_.size());
    for (unsigned i = 0; i < active_fds_.size(); ++i) {
        connection_threads_.emplace_back([this, i] { connection_loop(i); });
    }
}

void TcpServer::shutdown() {
    if (stopping_.exchange(true)) {
        if (accept_thread_.joinable()) {
            accept_thread_.join();
        }
        for (std::thread& t : connection_threads_) {
            if (t.joinable()) {
                t.join();
            }
        }
        return;
    }
    if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    {
        // Kick connection workers out of blocking reads.
        const std::lock_guard<std::mutex> lock(active_mutex_);
        for (const int fd : active_fds_) {
            if (fd >= 0) {
                ::shutdown(fd, SHUT_RDWR);
            }
        }
    }
    pending_cv_.notify_all();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    for (std::thread& t : connection_threads_) {
        if (t.joinable()) {
            t.join();
        }
    }
    {
        const std::lock_guard<std::mutex> lock(pending_mutex_);
        for (const int fd : pending_fds_) {
            ::close(fd);
        }
        pending_fds_.clear();
    }
}

void TcpServer::accept_loop() {
    for (;;) {
        const int listen_fd = listen_fd_.load();
        if (listen_fd < 0) {
            return; // listener already closed by shutdown
        }
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            return; // listener closed (shutdown) or fatal
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        {
            const std::lock_guard<std::mutex> lock(pending_mutex_);
            pending_fds_.push_back(fd);
        }
        pending_cv_.notify_one();
    }
}

void TcpServer::connection_loop(unsigned worker) {
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(pending_mutex_);
            pending_cv_.wait(lock, [this] {
                return stopping_.load() || !pending_fds_.empty();
            });
            if (pending_fds_.empty()) {
                return;
            }
            fd = pending_fds_.front();
            pending_fds_.pop_front();
        }
        {
            const std::lock_guard<std::mutex> lock(active_mutex_);
            active_fds_[worker] = fd;
        }
        handle_connection(fd);
        {
            const std::lock_guard<std::mutex> lock(active_mutex_);
            active_fds_[worker] = -1;
        }
        ::close(fd);
        if (stopping_.load()) {
            return;
        }
    }
}

void TcpServer::handle_connection(int fd) {
    std::string buffer;
    std::mutex write_mutex;
    serve_lines(
        core_,
        [fd, &buffer](std::string& line) {
            return recv_line_fd(fd, buffer, line) == TransportStatus::Ok;
        },
        [this, fd, &write_mutex](const std::string& response) {
            const std::lock_guard<std::mutex> lock(write_mutex);
            std::string line = response + '\n';
            const ChaosAction action = chaos_ != nullptr
                                           ? chaos_->next_action()
                                           : ChaosAction::None;
            switch (action) {
            case ChaosAction::KillWorker:
                // Die the way a real crash does: no unwinding, no snapshot
                // save, no response bytes.  The supervisor's waitpid sees
                // kChaosKillExitStatus and restarts us.
                std::_Exit(kChaosKillExitStatus);
            case ChaosAction::Drop:
                ::shutdown(fd, SHUT_RDWR);
                return;
            case ChaosAction::Truncate:
                line.erase(line.size() / 2);
                send_all(fd, line);
                ::shutdown(fd, SHUT_RDWR);
                return;
            case ChaosAction::Garble:
                ChaosInjector::garble(line);
                break;
            case ChaosAction::Delay:
                std::this_thread::sleep_for(std::chrono::duration<double,
                                                                  std::milli>(
                    chaos_->delay_ms()));
                break;
            case ChaosAction::None:
                break;
            }
            // A failed send (peer gone mid-response) is the reader's cue to
            // wind the connection down; EPIPE must not kill the daemon,
            // hence MSG_NOSIGNAL inside send_all.
            send_all(fd, line);
        });
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd_ >= 0, std::string("socket() failed: ") + std::strerror(errno));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    check(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
          "invalid IPv4 address '" + host + "'");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        check(false, "connect(" + host + ":" + std::to_string(port) +
                         ") failed: " + detail);
    }
}

TcpClient::~TcpClient() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void TcpClient::send_line(const std::string& line) {
    send_all(fd_, line + '\n');
}

TransportStatus TcpClient::send_line_status(const std::string& line,
                                            std::string* error) {
    return send_all(fd_, line + '\n', error);
}

bool TcpClient::recv_line(std::string& line) {
    return recv_line_fd(fd_, buffer_, line) == TransportStatus::Ok;
}

TransportStatus TcpClient::recv_line_status(std::string& line, int timeout_ms,
                                            std::string* error) {
    return recv_line_fd(fd_, buffer_, line, timeout_ms, error);
}

} // namespace service
} // namespace lph
