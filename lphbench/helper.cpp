// lphbench_helper: the compiled half of the end-to-end benchmark
// (lphbench/run.py drives it).
//
//   lphbench_helper load --port P --requests FILE --mode closed|open|chains
//                        [--seconds S] [--due FILE]
//                        [--limit N] [--server-pid PID]
//                        --records FILE --bodies FILE
//       The load client.  Plain POSIX sockets, one thread per connection
//       (plus one sender thread in open mode), exactly kConns connections.
//       closed: each connection sends its next request after the previous
//       reply; open: requests are sent at the due times in --due
//       (microseconds from the phase start), spread round-robin over
//       pipelined connections; chains: each request line is
//       "<chain>\t<line>", chain c runs in order on connection c, and the
//       token @DIGEST@ is replaced by the digest the chain's previous reply
//       echoed.  Writes one fixed-size binary record per request (with the
//       id its reply echoed), one canonical reply body per answered request,
//       and a JSON summary line (phase time, lphd and client CPU time) on
//       stdout.
//
//   lphbench_helper ref JOBS OUT
//       Reference answers from src/oracle/reference.hpp, one JSON line per
//       job line (see run_ref_job for the job grammar).
//
//   lphbench_helper wire --requests FILE --out FILE [--chains]
//       In-process timing of service::parse_request and Response::to_json on
//       what ServiceCore::serve_unbatched returns for each line, in stream
//       order until kWireBudgetMs is spent.
//
// Exit status: 0 ok, 1 runtime failure, 2 usage.

#include "graph/serialize.hpp"
#include "oracle/generators.hpp"
#include "oracle/reference.hpp"
#include "service/core.hpp"
#include "service/registry.hpp"
#include "service/wire.hpp"
#include "structure/graph_structure.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void usage(const std::string& message) {
    std::cerr << "lphbench_helper: " << message
              << "\nusage: lphbench_helper load|ref|wire ... (see helper.cpp)\n";
    std::exit(2);
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            lines.push_back(line);
        }
    }
    return lines;
}

std::int64_t now_ns(Clock::time_point epoch) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
}

std::int64_t realtime_us() {
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

std::int64_t cpu_clock_ns(clockid_t clock) {
    timespec ts{};
    if (clock_gettime(clock, &ts) != 0) {
        return -1;
    }
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

// --- minimal JSON member scanner --------------------------------------------
//
// The client reads replies without the program's own parser: it only needs
// the top-level members of one object (key plus the raw text of its value),
// which is enough to drop envelope fields and read the timing numbers.

struct Member {
    std::string key;
    std::string raw; ///< the value's JSON text, verbatim
};

std::size_t skip_ws(const std::string& s, std::size_t i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                            s[i] == '\n')) {
        ++i;
    }
    return i;
}

/// Index one past the JSON string starting at s[i] == '"'.
std::size_t skip_string(const std::string& s, std::size_t i) {
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\') {
            ++i;
        } else if (s[i] == '"') {
            return i + 1;
        }
    }
    throw std::runtime_error("unterminated string");
}

/// Index one past the JSON value starting at s[i].
std::size_t skip_value(const std::string& s, std::size_t i) {
    i = skip_ws(s, i);
    if (i >= s.size()) {
        throw std::runtime_error("missing value");
    }
    if (s[i] == '"') {
        return skip_string(s, i);
    }
    if (s[i] == '{' || s[i] == '[') {
        int depth = 0;
        for (; i < s.size(); ++i) {
            if (s[i] == '"') {
                i = skip_string(s, i) - 1;
            } else if (s[i] == '{' || s[i] == '[') {
                ++depth;
            } else if (s[i] == '}' || s[i] == ']') {
                if (--depth == 0) {
                    return i + 1;
                }
            }
        }
        throw std::runtime_error("unterminated container");
    }
    const std::size_t start = i;
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           s[i] != ' ') {
        ++i;
    }
    if (i == start) {
        throw std::runtime_error("empty scalar");
    }
    return i;
}

std::vector<Member> scan_object(const std::string& s) {
    std::vector<Member> members;
    std::size_t i = skip_ws(s, 0);
    if (i >= s.size() || s[i] != '{') {
        throw std::runtime_error("not an object");
    }
    i = skip_ws(s, i + 1);
    if (i < s.size() && s[i] == '}') {
        return members;
    }
    for (;;) {
        i = skip_ws(s, i);
        if (i >= s.size() || s[i] != '"') {
            throw std::runtime_error("expected key");
        }
        const std::size_t key_end = skip_string(s, i);
        Member m;
        m.key = s.substr(i + 1, key_end - i - 2);
        i = skip_ws(s, key_end);
        if (i >= s.size() || s[i] != ':') {
            throw std::runtime_error("expected ':'");
        }
        const std::size_t vstart = skip_ws(s, i + 1);
        const std::size_t vend = skip_value(s, vstart);
        m.raw = s.substr(vstart, vend - vstart);
        members.push_back(std::move(m));
        i = skip_ws(s, vend);
        if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
        }
        if (i < s.size() && s[i] == '}') {
            return members;
        }
        throw std::runtime_error("expected ',' or '}'");
    }
}

const Member* find_member(const std::vector<Member>& members,
                          const std::string& key) {
    for (const Member& m : members) {
        if (m.key == key) {
            return &m;
        }
    }
    return nullptr;
}

std::string unquote(const std::string& raw) {
    return raw.size() >= 2 && raw.front() == '"' ? raw.substr(1, raw.size() - 2)
                                                 : raw;
}

// --- load client ------------------------------------------------------------

enum Status : std::uint8_t {
    kOk = 0,
    kError = 1,
    kRejected = 2,
    kUnanswered = 3,
    kUnparseable = 4,
};

/// `reply_id` of a reply that names no request index (lphd's protocol
/// errors carry no id).
constexpr std::uint32_t kNoReplyId = 0xffffffff;

/// One request as the client saw it; written verbatim (little-endian, packed
/// by hand) to the --records file, 60 bytes each.  The index is the request's
/// position in the stream, which is also the "id" the request line carries.
struct Record {
    std::uint32_t index = 0;
    std::uint16_t conn = 0;
    std::uint8_t status = kUnanswered;
    std::uint8_t memo_hit = 0;
    std::int64_t due_ns = 0;
    std::int64_t send_ns = 0;
    std::int64_t recv_ns = 0;
    std::uint32_t queue_us = 0;
    std::uint32_t batch_us = 0;
    std::uint32_t exec_us = 0;
    std::uint32_t write_us = 0;
    std::uint32_t req_bytes = 0;
    std::uint32_t resp_bytes = 0;
    std::uint32_t reply_id = kNoReplyId; ///< the "id" the reply echoed
};

template <typename T>
void put(std::string& out, T value) {
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out.append(buf, sizeof(T));
}

/// Envelope fields: they describe how a reply was produced, never what it
/// answers, so they are left out of the canonical body.
bool is_envelope(const std::string& key) {
    return key == "id" || key == "memo" || key == "batch" ||
           key == "service_ms" || key == "timing" || key == "trace";
}

std::uint32_t to_u32(const std::string& raw) {
    try {
        return static_cast<std::uint32_t>(
            std::min<unsigned long long>(std::stoull(raw), 0xffffffffull));
    } catch (const std::exception&) {
        return 0;
    }
}

/// Fills status/id/timing fields of `rec` from a reply line and returns its
/// canonical body: every non-envelope member, in reply order.  stats and
/// health bodies are reduced to type and status (they are never compared).
std::string digest_reply(const std::string& line, Record& rec,
                         std::string* echoed_digest) {
    std::vector<Member> members;
    try {
        members = scan_object(line);
    } catch (const std::exception&) {
        rec.status = kUnparseable;
        return "{\"status\":\"unparseable\"}";
    }
    const Member* status = find_member(members, "status");
    const std::string st = status != nullptr ? unquote(status->raw) : "";
    rec.status = st == "ok" ? kOk : st == "rejected" ? kRejected : kError;
    if (const Member* id = find_member(members, "id");
        id != nullptr && !id->raw.empty() && id->raw.size() <= 9 &&
        std::all_of(id->raw.begin(), id->raw.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
        rec.reply_id = static_cast<std::uint32_t>(std::stoul(id->raw));
    }
    if (const Member* timing = find_member(members, "timing")) {
        try {
            for (const Member& t : scan_object(timing->raw)) {
                if (t.key == "queue_us") {
                    rec.queue_us = to_u32(t.raw);
                } else if (t.key == "batch_us") {
                    rec.batch_us = to_u32(t.raw);
                } else if (t.key == "exec_us") {
                    rec.exec_us = to_u32(t.raw);
                } else if (t.key == "write_us") {
                    rec.write_us = to_u32(t.raw);
                } else if (t.key == "memo_hit") {
                    rec.memo_hit = t.raw == "true" ? 1 : 0;
                }
            }
        } catch (const std::exception&) {
            rec.status = kUnparseable;
        }
    }
    if (echoed_digest != nullptr && rec.status == kOk) {
        if (const Member* digest = find_member(members, "digest")) {
            *echoed_digest = unquote(digest->raw);
        }
    }
    const Member* type = find_member(members, "type");
    const bool opaque =
        type != nullptr && (type->raw == "\"stats\"" || type->raw == "\"health\"");
    std::string canonical = "{";
    bool first = true;
    for (const Member& m : members) {
        if (is_envelope(m.key) ||
            (opaque && m.key != "type" && m.key != "status")) {
            continue;
        }
        canonical += first ? "\"" : ",\"";
        canonical += m.key + "\":" + m.raw;
        first = false;
    }
    return canonical + "}";
}

class Connection {
public:
    explicit Connection(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            const std::string detail = std::strerror(errno);
            ::close(fd_);
            throw std::runtime_error("connect: " + detail);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    bool send_line(const std::string& line) {
        std::string data = line + '\n';
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                                     MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    enum class Got { kLine, kTimeout, kClosed };

    /// Waits in poll() for one reply line until `deadline`.
    Got recv_line(std::string& line, Clock::time_point deadline) {
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buffer_, 0, nl);
                buffer_.erase(0, nl + 1);
                return Got::kLine;
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - Clock::now());
            if (left.count() <= 0) {
                return Got::kTimeout;
            }
            pollfd p{fd_, POLLIN, 0};
            const int r = ::poll(&p, 1, static_cast<int>(std::min<long long>(
                                            left.count(), 1000)));
            if (r < 0 && errno != EINTR) {
                return Got::kClosed;
            }
            if (r <= 0) {
                continue;
            }
            char buf[65536];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return Got::kClosed;
            }
            buffer_.append(buf, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

/// Connections the client opens: lphd's TcpServer has 4 connection workers,
/// and a fifth connection gets no reply until one of the four closes.
constexpr unsigned kConns = 4;

struct LoadOptions {
    std::uint16_t port = 0;
    std::string requests_path;
    std::string mode = "closed";
    double seconds = 0; ///< 0 = no time box
    std::string due_path;
    long limit = -1; ///< max requests sent; -1 = unlimited
    long server_pid = 0;
    std::string records_path;
    std::string bodies_path;
};

/// How long the client waits for one reply before it counts the request
/// (and every later one on the connection) as unanswered.
constexpr double kReplyTimeoutS = 120;

int run_load(const LoadOptions& opt) {
    const std::vector<std::string> raw = read_lines(opt.requests_path);
    if (raw.empty()) {
        throw std::runtime_error("no requests in " + opt.requests_path);
    }
    std::vector<std::string> lines;
    std::vector<unsigned> chain_of;
    for (const std::string& r : raw) {
        if (opt.mode == "chains") {
            const std::size_t tab = r.find('\t');
            if (tab == std::string::npos) {
                throw std::runtime_error("chains mode needs '<chain>\\t<line>'");
            }
            chain_of.push_back(static_cast<unsigned>(std::stoul(r.substr(0, tab))));
            lines.push_back(r.substr(tab + 1));
        } else {
            lines.push_back(r);
        }
    }
    std::vector<std::int64_t> due;
    if (opt.mode == "open") {
        for (const std::string& d : read_lines(opt.due_path)) {
            due.push_back(static_cast<std::int64_t>(std::stoll(d)) * 1000);
        }
        if (due.size() != lines.size()) {
            throw std::runtime_error("--due must have one line per request");
        }
    }

    clockid_t server_clock = 0;
    const bool have_server_clock =
        opt.server_pid > 0 &&
        clock_getcpuclockid(static_cast<pid_t>(opt.server_pid), &server_clock) ==
            0;

    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < kConns; ++c) {
        conns.push_back(std::make_unique<Connection>(opt.port));
    }

    const std::size_t n = lines.size();
    const std::size_t cap =
        opt.limit >= 0 ? std::min(static_cast<std::size_t>(opt.limit), n) : n;
    std::vector<std::vector<Record>> records(kConns);
    // Per connection, "<index>\t<canonical body>" of every answered request.
    std::vector<std::string> bodies(kConns);
    std::atomic<std::size_t> next{0};
    std::atomic<std::int64_t> max_late_ns{0};
    std::atomic<bool> aborted{false};

    const auto epoch = Clock::now();
    const std::int64_t epoch_realtime = realtime_us();
    const std::int64_t cpu0_server =
        have_server_clock ? cpu_clock_ns(server_clock) : -1;
    const std::int64_t cpu0_client = cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    const auto stop_at =
        opt.seconds > 0
            ? epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(opt.seconds))
            : Clock::time_point::max();
    const auto reply_timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kReplyTimeoutS));

    const auto finish = [&](Record& rec, const std::string& reply,
                            std::string* digest, unsigned c) {
        rec.recv_ns = now_ns(epoch);
        rec.resp_bytes = static_cast<std::uint32_t>(reply.size() + 1);
        const std::string body = digest_reply(reply, rec, digest);
        bodies[c] += std::to_string(rec.index) + '\t' + body + '\n';
    };

    // Open-mode state; declared here because the receivers outlive the
    // branch that starts them.
    std::vector<std::mutex> mutexes(kConns);
    std::vector<std::deque<Record>> inflight(kConns);
    std::atomic<bool> sending{true};
    std::vector<std::thread> threads;
    if (opt.mode == "closed" || opt.mode == "chains") {
        for (unsigned c = 0; c < kConns; ++c) {
            threads.emplace_back([&, c] {
                std::string digest;
                std::size_t chain_pos = 0;
                std::string reply;
                for (;;) {
                    if (Clock::now() >= stop_at || aborted.load()) {
                        return;
                    }
                    std::size_t idx = 0;
                    if (opt.mode == "closed") {
                        idx = next.fetch_add(1);
                        if (idx >= cap) {
                            return;
                        }
                    } else {
                        while (chain_pos < n && chain_of[chain_pos] != c) {
                            ++chain_pos;
                        }
                        if (chain_pos >= n || next.fetch_add(1) >= cap) {
                            return;
                        }
                        idx = chain_pos++;
                    }
                    std::string line = lines[idx];
                    if (const std::size_t at = line.find("@DIGEST@");
                        at != std::string::npos) {
                        line.replace(at, 8, digest);
                    }
                    Record rec;
                    rec.index = static_cast<std::uint32_t>(idx);
                    rec.conn = static_cast<std::uint16_t>(c);
                    rec.req_bytes = static_cast<std::uint32_t>(line.size() + 1);
                    rec.send_ns = rec.due_ns = now_ns(epoch);
                    if (!conns[c]->send_line(line) ||
                        conns[c]->recv_line(reply,
                                            Clock::now() + reply_timeout) !=
                            Connection::Got::kLine) {
                        rec.status = kUnanswered;
                        records[c].push_back(rec);
                        aborted.store(true);
                        return;
                    }
                    finish(rec, reply, opt.mode == "chains" ? &digest : nullptr,
                           c);
                    records[c].push_back(rec);
                }
            });
        }
    } else if (opt.mode == "open") {
        // One sender walks the schedule; one receiver per connection matches
        // replies to its connection's sends in FIFO order (lphd answers each
        // connection in request order; the echoed id in each record lets the
        // checker confirm it).
        for (unsigned c = 0; c < kConns; ++c) {
            threads.emplace_back([&, c] {
                // Waits in poll() in slices, so an idle connection costs no
                // CPU and the thread notices the end of the schedule.
                const auto slice = std::chrono::milliseconds(50);
                std::string reply;
                for (;;) {
                    const Connection::Got got =
                        conns[c]->recv_line(reply, Clock::now() + slice);
                    std::unique_lock<std::mutex> lock(mutexes[c]);
                    if (got == Connection::Got::kTimeout) {
                        if (inflight[c].empty()) {
                            if (!sending.load()) {
                                return;
                            }
                            continue;
                        }
                        const auto sent_at = epoch + std::chrono::nanoseconds(
                                                         inflight[c].front().send_ns);
                        if (Clock::now() - sent_at < reply_timeout) {
                            continue;
                        }
                    }
                    if (got != Connection::Got::kLine || inflight[c].empty()) {
                        // Closed, timed out, or a reply to nothing sent.
                        for (Record& left : inflight[c]) {
                            left.status = kUnanswered;
                            records[c].push_back(left);
                        }
                        inflight[c].clear();
                        aborted.store(true);
                        return;
                    }
                    Record rec = inflight[c].front();
                    inflight[c].pop_front();
                    lock.unlock();
                    finish(rec, reply, nullptr, c);
                    records[c].push_back(rec);
                }
            });
        }
        for (std::size_t i = 0; i < cap && !aborted.load(); ++i) {
            // Sleep to just before the due time, then spin, so a send's
            // lateness is the client's least concern.
            const auto due_at = epoch + std::chrono::nanoseconds(due[i]);
            std::this_thread::sleep_until(due_at -
                                          std::chrono::microseconds(200));
            while (Clock::now() < due_at) {
            }
            const unsigned c = static_cast<unsigned>(i % kConns);
            Record rec;
            rec.index = static_cast<std::uint32_t>(i);
            rec.conn = static_cast<std::uint16_t>(c);
            rec.req_bytes = static_cast<std::uint32_t>(lines[i].size() + 1);
            rec.due_ns = due[i];
            {
                const std::lock_guard<std::mutex> lock(mutexes[c]);
                rec.send_ns = now_ns(epoch);
                inflight[c].push_back(rec);
            }
            const std::int64_t late = rec.send_ns - rec.due_ns;
            if (late > max_late_ns.load()) {
                max_late_ns.store(late);
            }
            if (!conns[c]->send_line(lines[i])) {
                aborted.store(true);
            }
        }
        sending.store(false);
    } else {
        usage("unknown --mode " + opt.mode);
    }
    for (std::thread& t : threads) {
        t.join();
    }
    const std::int64_t phase_ns = now_ns(epoch);
    const std::int64_t cpu1_server =
        have_server_clock ? cpu_clock_ns(server_clock) : -1;
    const std::int64_t cpu1_client = cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    conns.clear();

    std::string out;
    std::size_t count = 0;
    for (const std::vector<Record>& recs : records) {
        for (const Record& r : recs) {
            put(out, r.index);
            put(out, r.conn);
            put(out, r.status);
            put(out, r.memo_hit);
            put(out, r.due_ns);
            put(out, r.send_ns);
            put(out, r.recv_ns);
            put(out, r.queue_us);
            put(out, r.batch_us);
            put(out, r.exec_us);
            put(out, r.write_us);
            put(out, r.req_bytes);
            put(out, r.resp_bytes);
            put(out, r.reply_id);
            ++count;
        }
    }
    std::ofstream(opt.records_path, std::ios::binary) << out;
    std::ofstream body_out(opt.bodies_path);
    for (const std::string& b : bodies) {
        body_out << b;
    }

    std::cout << "{\"records\":" << count << ",\"phase_ns\":" << phase_ns
              << ",\"epoch_realtime_us\":" << epoch_realtime
              << ",\"server_cpu_ns\":"
              << (have_server_clock ? cpu1_server - cpu0_server : -1)
              << ",\"client_cpu_ns\":" << cpu1_client - cpu0_client
              << ",\"max_late_ns\":" << max_late_ns.load()
              << ",\"aborted\":" << (aborted.load() ? "true" : "false")
              << "}\n";
    return 0;
}

// --- reference answers ------------------------------------------------------

lph::LabeledGraph decode_graph(const std::string& field) {
    std::string text = field;
    std::replace(text.begin(), text.end(), ';', '\n');
    return lph::graph_from_text(text);
}

std::vector<std::string> split_tabs(const std::string& line) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t tab = line.find('\t', start);
        parts.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos) {
            return parts;
        }
        start = tab + 1;
    }
}

/// One job line, tab-separated, graphs in the serialize.hpp text format with
/// ';' for newlines:
///   game <machine> <layers> <sigma 0|1> <ids> <graph>
///   eulerian <graph> | hamiltonian <graph> | colorable <k> <graph>
///   fo <formula name> <fseed> <graph>
std::string run_ref_job(const std::string& line) {
    const std::vector<std::string> f = split_tabs(line);
    const std::string& kind = f.at(0);
    std::ostringstream out;
    if (kind == "game") {
        const lph::LabeledGraph g = decode_graph(f.at(5));
        const lph::service::BuiltGame game = lph::service::build_game(
            f.at(1), std::stoi(f.at(2)), f.at(3) == "1");
        const lph::IdentifierAssignment id = lph::identifier_scheme_by_name(
            f.at(4), g, game.spec.machine->id_radius());
        const lph::RefGameResult r = lph::ref_play_game(game.spec, g, id);
        out << "{\"accepted\":" << (r.accepted ? "true" : "false")
            << ",\"machine_runs\":" << r.machine_runs
            << ",\"faulted_runs\":" << r.faulted_runs;
        if (r.witness) {
            out << ",\"witness\":[";
            for (lph::NodeId u = 0; u < r.witness->size(); ++u) {
                out << (u ? "," : "") << '"' << json_escape((*r.witness)(u))
                    << '"';
            }
            out << ']';
        }
        out << '}';
    } else if (kind == "eulerian") {
        out << "{\"answer\":"
            << (lph::ref_is_eulerian(decode_graph(f.at(1))) ? "true" : "false")
            << '}';
    } else if (kind == "hamiltonian") {
        out << "{\"answer\":"
            << (lph::ref_is_hamiltonian(decode_graph(f.at(1))) ? "true"
                                                                : "false")
            << '}';
    } else if (kind == "colorable") {
        out << "{\"answer\":"
            << (lph::ref_is_k_colorable(decode_graph(f.at(2)),
                                        std::stoi(f.at(1)))
                    ? "true"
                    : "false")
            << '}';
    } else if (kind == "fo") {
        const lph::GraphStructure gs(decode_graph(f.at(3)));
        const lph::Formula phi = lph::service::formula_by_name(
            f.at(1), std::stoull(f.at(2)));
        out << "{\"answer\":"
            << (lph::ref_satisfies(gs.structure(), phi) ? "true" : "false")
            << '}';
    } else {
        throw std::runtime_error("unknown job kind '" + kind + "'");
    }
    return out.str();
}

int run_ref(const std::string& jobs_path, const std::string& out_path) {
    std::ofstream out(out_path);
    for (const std::string& job : read_lines(jobs_path)) {
        try {
            out << run_ref_job(job) << '\n';
        } catch (const std::exception& e) {
            out << "{\"error\":\"" << json_escape(e.what()) << "\"}\n";
        }
    }
    return out ? 0 : 1;
}

// --- in-process wire timing -------------------------------------------------

/// Wall time the wire timing may spend: enough for a few hundred lines of
/// every workload, short beside a run.
constexpr double kWireBudgetMs = 1500;

int run_wire(const std::string& requests_path, const std::string& out_path,
             bool chains) {
    const std::vector<std::string> raw = read_lines(requests_path);
    lph::service::ServiceOptions options;
    options.manual_drain = true;
    options.threads = 1;
    lph::service::ServiceCore core(options);
    const lph::service::WireLimits limits;

    const auto epoch = Clock::now();
    const std::int64_t epoch_realtime = realtime_us();
    std::map<std::string, std::string> digest_of_chain;
    std::ostringstream out;
    out << "{\"epoch_realtime_us\":" << epoch_realtime << "}\n";
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (now_ns(epoch) > static_cast<std::int64_t>(kWireBudgetMs * 1e6)) {
            break;
        }
        std::string chain;
        std::string line = raw[i];
        if (chains) {
            const std::size_t tab = line.find('\t');
            chain = line.substr(0, tab);
            line = line.substr(tab + 1);
            if (const std::size_t at = line.find("@DIGEST@");
                at != std::string::npos) {
                line.replace(at, 8, digest_of_chain[chain]);
            }
        }
        const std::int64_t p0 = now_ns(epoch);
        const lph::service::Request request =
            lph::service::parse_request(line, i + 1, limits);
        const std::int64_t p1 = now_ns(epoch);
        const lph::service::Response response = core.serve_unbatched(request);
        const std::int64_t r0 = now_ns(epoch);
        const std::string rendered = response.to_json();
        const std::int64_t r1 = now_ns(epoch);
        if (chains) {
            Record ignored;
            std::string digest;
            digest_reply(rendered, ignored, &digest);
            if (!digest.empty()) {
                digest_of_chain[chain] = digest;
            }
        }
        out << i << '\t' << p0 << '\t' << p1 << '\t' << r0 << '\t' << r1
            << '\t' << line.size() + 1 << '\t' << rendered.size() + 1 << '\n';
    }
    std::ofstream file(out_path);
    file << out.str();
    return file ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage("missing subcommand");
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "ref") {
            if (argc != 4) {
                usage("ref JOBS OUT");
            }
            return run_ref(argv[2], argv[3]);
        }
        if (cmd == "wire") {
            std::string requests, out;
            bool chains = false;
            for (int i = 2; i < argc; ++i) {
                const std::string a = argv[i];
                auto value = [&]() -> std::string {
                    if (i + 1 >= argc) {
                        usage(a + " needs a value");
                    }
                    return argv[++i];
                };
                if (a == "--requests") {
                    requests = value();
                } else if (a == "--out") {
                    out = value();
                } else if (a == "--chains") {
                    chains = true;
                } else {
                    usage("unknown argument " + a);
                }
            }
            return run_wire(requests, out, chains);
        }
        if (cmd == "load") {
            LoadOptions opt;
            for (int i = 2; i < argc; ++i) {
                const std::string a = argv[i];
                auto value = [&]() -> std::string {
                    if (i + 1 >= argc) {
                        usage(a + " needs a value");
                    }
                    return argv[++i];
                };
                if (a == "--port") {
                    opt.port = static_cast<std::uint16_t>(std::stoul(value()));
                } else if (a == "--requests") {
                    opt.requests_path = value();
                } else if (a == "--mode") {
                    opt.mode = value();
                } else if (a == "--seconds") {
                    opt.seconds = std::stod(value());
                } else if (a == "--due") {
                    opt.due_path = value();
                } else if (a == "--limit") {
                    opt.limit = std::stol(value());
                } else if (a == "--server-pid") {
                    opt.server_pid = std::stol(value());
                } else if (a == "--records") {
                    opt.records_path = value();
                } else if (a == "--bodies") {
                    opt.bodies_path = value();
                } else {
                    usage("unknown argument " + a);
                }
            }
            if (opt.port == 0 || opt.requests_path.empty() ||
                opt.records_path.empty() || opt.bodies_path.empty()) {
                usage("load needs --port, --requests, --records, --bodies");
            }
            return run_load(opt);
        }
    } catch (const std::exception& e) {
        std::cerr << "lphbench_helper: " << e.what() << "\n";
        return 1;
    }
    usage("unknown subcommand " + cmd);
}
