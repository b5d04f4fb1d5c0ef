// lphd: the query-serving daemon (DESIGN.md "Serving layer" and
// "Resilience").
//
// Speaks one strict JSON object per line over stdin/stdout (--pipe) or a
// loopback TCP listener (--port).  Every request line gets exactly one
// response line; malformed lines get a ProtocolError response and the
// connection stays usable.
//
//   lph_client --generate 20 --seed 7 | lphd --pipe | lph_client --verify
//   lphd --port 7411 --threads 4 --queue-cap 512 --default-deadline-ms 250
//   lphd --port 0 --supervise 2 --snapshot-dir /tmp/lph-snap
//
// Serving knobs: --threads N (engine workers, each serving one request per
// dequeue), --queue-cap N (admission control), --memo-entries N (result memo
// capacity) and --default-deadline-ms X.
//
// Admission control (off by default): --admission prices every workload
// request through the calibrated cost model before it is queued.  Requests
// whose predicted cost exceeds --admission-max-cost-us are rejected with a
// structured AdmissionRejected response; requests over
// --admission-defer-cost-us are routed to a dedicated big-job queue drained
// by --admission-big-threads workers, so interactive deadlines never wait
// behind a big job.
//
// Resilience knobs:
//   --supervise N          fork N worker processes sharing one listener; a
//                          crashed worker is restarted with exponential
//                          backoff, a crash-looping one is given up on
//   --snapshot FILE        warm-start memo/verdict-table persistence (single
//                          process); loaded at startup, saved periodically
//                          and on clean shutdown
//   --snapshot-dir DIR     per-worker snapshot files (supervised mode)
//   --snapshot-period-ms X background save period (0 = only on shutdown)
//   --chaos-* (seed/drop/truncate/garble/delay/kill probabilities)
//                          deterministic wire-level fault injection on the
//                          response path, for resilience testing; a chaos
//                          kill exits the worker mid-request
//
// Observability: --trace=OUT.json exports a Chrome/Perfetto trace of every
// queue/request/dispatch stage; --metrics=OUT.json writes the service.* metrics
// snapshot (same schema as the bench BENCH rows).  Both paths are probed at
// startup: an unwritable path is a structured startup error, not a silent
// loss at exit.  In supervised mode --trace names a *directory*: each worker
// writes DIR/worker-<slot>.trace with its real pid, the supervisor writes
// DIR/supervisor.trace with worker_start/worker_exit/backoff instants, and
// scripts/trace_merge.py stitches them onto one timeline.  Supervised
// --metrics still writes to PATH.workerI.  --slow-ms X makes every request
// whose server-side stage sum exceeds X ms emit one structured
// {"event":"slow_request",...} line on stderr (0 = off).
//
// Exit status: 0 on a clean run (protocol errors are per-line responses, not
// daemon failures); 1 when every supervised worker crash-looped into the
// circuit breaker; 2 on usage/startup errors.

#include "core/check.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "service/chaos.hpp"
#include "service/core.hpp"
#include "service/server.hpp"
#include "service/supervisor.hpp"
#include "service/transport.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace lph;

struct Options {
    bool pipe = false;
    int port = -1; // -1 = unset; 0 = pick a free port
    unsigned threads = 0;
    std::size_t queue_cap = 256;
    std::size_t memo_entries = 1 << 12;
    double default_deadline_ms = 0;
    double slow_ms = 0;
    std::string trace_path;
    std::string metrics_path;

    // admission control (DESIGN.md "Language frontend & admission control")
    bool admission = false;
    double admission_max_cost_us = 5e6;
    double admission_defer_cost_us = 250e3;
    unsigned admission_big_threads = 1;

    // resilience
    int supervise = 0; // 0 = no supervisor, run in-process
    service::RestartPolicy restart;
    std::string snapshot_path;
    std::string snapshot_dir;
    double snapshot_period_ms = 0;
    std::uint64_t chaos_seed = 0;
    service::ChaosPlan chaos; // seed filled in per worker
};

[[noreturn]] void usage_error(const std::string& message) {
    std::cerr << "lphd: " << message << "\n"
              << "usage: lphd (--pipe | --port P) [--threads N]\n"
              << "            [--queue-cap N] [--memo-entries N]\n"
              << "            [--default-deadline-ms X]\n"
              << "            [--admission] [--admission-max-cost-us X]\n"
              << "            [--admission-defer-cost-us X]\n"
              << "            [--admission-big-threads N]\n"
              << "            [--supervise N] [--restart-backoff-ms X]\n"
              << "            [--restart-max-backoff-ms X] [--min-healthy-ms X]\n"
              << "            [--max-crashes N]\n"
              << "            [--snapshot FILE | --snapshot-dir DIR]\n"
              << "            [--snapshot-period-ms X]\n"
              << "            [--chaos-seed S] [--chaos-drop P] [--chaos-truncate P]\n"
              << "            [--chaos-garble P] [--chaos-delay P] [--chaos-kill P]\n"
              << "            [--chaos-delay-ms X]\n"
              << "            [--slow-ms X]\n"
              << "            [--trace OUT.json | --trace DIR (supervised)]\n"
              << "            [--metrics OUT.json]\n";
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage_error(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--pipe") {
            opt.pipe = true;
        } else if (arg == "--port") {
            opt.port = std::stoi(value());
        } else if (arg == "--threads") {
            opt.threads = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--queue-cap") {
            opt.queue_cap = std::stoull(value());
        } else if (arg == "--memo-entries") {
            opt.memo_entries = std::stoull(value());
        } else if (arg == "--default-deadline-ms") {
            opt.default_deadline_ms = std::stod(value());
        } else if (arg == "--admission") {
            opt.admission = true;
        } else if (arg == "--admission-max-cost-us") {
            opt.admission_max_cost_us = std::stod(value());
        } else if (arg == "--admission-defer-cost-us") {
            opt.admission_defer_cost_us = std::stod(value());
        } else if (arg == "--admission-big-threads") {
            opt.admission_big_threads =
                static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--supervise") {
            opt.supervise = std::stoi(value());
        } else if (arg == "--restart-backoff-ms") {
            opt.restart.base_backoff_ms = std::stod(value());
        } else if (arg == "--restart-max-backoff-ms") {
            opt.restart.max_backoff_ms = std::stod(value());
        } else if (arg == "--min-healthy-ms") {
            opt.restart.min_healthy_uptime_ms = std::stod(value());
        } else if (arg == "--max-crashes") {
            opt.restart.max_consecutive_crashes = std::stoi(value());
        } else if (arg == "--snapshot") {
            opt.snapshot_path = value();
        } else if (arg == "--snapshot-dir") {
            opt.snapshot_dir = value();
        } else if (arg == "--snapshot-period-ms") {
            opt.snapshot_period_ms = std::stod(value());
        } else if (arg == "--chaos-seed") {
            opt.chaos_seed = std::stoull(value());
        } else if (arg == "--chaos-drop") {
            opt.chaos.drop_prob = std::stod(value());
        } else if (arg == "--chaos-truncate") {
            opt.chaos.truncate_prob = std::stod(value());
        } else if (arg == "--chaos-garble") {
            opt.chaos.garble_prob = std::stod(value());
        } else if (arg == "--chaos-delay") {
            opt.chaos.delay_prob = std::stod(value());
        } else if (arg == "--chaos-kill") {
            opt.chaos.kill_prob = std::stod(value());
        } else if (arg == "--chaos-delay-ms") {
            opt.chaos.delay_ms = std::stod(value());
        } else if (arg == "--slow-ms") {
            opt.slow_ms = std::stod(value());
        } else if (arg == "--trace") {
            opt.trace_path = value();
        } else if (arg.rfind("--trace=", 0) == 0) {
            opt.trace_path = arg.substr(8);
        } else if (arg == "--metrics") {
            opt.metrics_path = value();
        } else if (arg.rfind("--metrics=", 0) == 0) {
            opt.metrics_path = arg.substr(10);
        } else {
            usage_error("unknown argument '" + arg + "'");
        }
    }
    if (opt.pipe == (opt.port >= 0)) {
        usage_error("pass exactly one of --pipe or --port");
    }
    if (opt.port > 65535) {
        usage_error("--port must be in [0, 65535]");
    }
    if (opt.queue_cap == 0) {
        usage_error("--queue-cap must be positive");
    }
    if (opt.supervise < 0 || opt.supervise > 64) {
        usage_error("--supervise must be in [0, 64]");
    }
    if (opt.supervise > 0 && opt.pipe) {
        usage_error("--supervise requires --port");
    }
    if (opt.supervise > 0 && !opt.snapshot_path.empty()) {
        usage_error("supervised workers need per-worker files: use "
                    "--snapshot-dir, not --snapshot");
    }
    if (opt.supervise == 0 && !opt.snapshot_dir.empty()) {
        usage_error("--snapshot-dir only applies with --supervise; use "
                    "--snapshot FILE");
    }
    if (!opt.chaos.empty() && opt.pipe) {
        usage_error("--chaos-* applies to the TCP response path; use --port");
    }
    return opt;
}

/// Startup probe for --trace= / --metrics= destinations: failing at exit —
/// after the whole run — is the worst possible time to learn the path was
/// wrong, so an unwritable path is a structured startup error instead.
void require_writable(const char* flag, const std::string& path) {
    if (path.empty()) {
        return;
    }
    const bool existed = std::filesystem::exists(std::filesystem::path(path));
    std::FILE* probe = std::fopen(path.c_str(), "ab");
    if (probe == nullptr) {
        std::cerr << "{\"event\":\"output_path_unwritable\",\"flag\":\"" << flag
                  << "\",\"path\":\"" << path << "\",\"error\":\""
                  << std::strerror(errno) << "\"}\n";
        std::exit(2);
    }
    std::fclose(probe);
    if (!existed) {
        std::remove(path.c_str()); // the probe created it; leave no droppings
    }
}

service::ServiceOptions make_service_options(const Options& opt,
                                             obs::Session* session) {
    service::ServiceOptions service_options;
    service_options.threads = opt.threads;
    service_options.queue_capacity = opt.queue_cap;
    service_options.memo_entries = opt.memo_entries;
    service_options.default_deadline_ms = opt.default_deadline_ms;
    service_options.snapshot_period_ms = opt.snapshot_period_ms;
    service_options.slow_ms = opt.slow_ms;
    service_options.admission.enabled = opt.admission;
    service_options.admission.max_cost_us = opt.admission_max_cost_us;
    service_options.admission.defer_cost_us = opt.admission_defer_cost_us;
    service_options.admission.big_job_threads = opt.admission_big_threads;
    service_options.obs = session;
    return service_options;
}

/// Per-worker suffix for output files so supervised workers do not clobber
/// each other ("" for the standalone daemon).
std::string worker_suffix(int worker_index) {
    return worker_index >= 0 ? ".worker" + std::to_string(worker_index) : "";
}

/// One serving process over an already-listening fd: standalone daemon
/// (worker_index = -1) or one supervised worker (fd inherited across fork).
/// Blocks until SIGINT/SIGTERM (which the caller has already masked).
int serve_tcp(const Options& opt, int listen_fd, int worker_index,
              std::uint64_t generation) {
    obs::Session::Options session_options;
    session_options.tracing = !opt.trace_path.empty();
    obs::Session session(session_options);
    session.activate();

    service::ServiceOptions service_options = make_service_options(opt, &session);
    service_options.worker_index = worker_index;
    service_options.worker_generation = generation;
    if (worker_index >= 0 && !opt.snapshot_dir.empty()) {
        // Keyed by slot, not generation: a restarted worker warm-starts from
        // its predecessor's snapshot.
        service_options.snapshot_path = opt.snapshot_dir + "/worker-" +
                                        std::to_string(worker_index) + ".snap";
    } else {
        service_options.snapshot_path = opt.snapshot_path;
    }

    service::ChaosPlan plan = opt.chaos;
    // Distinct per-worker streams that are still pure functions of
    // (--chaos-seed, slot): replayable, but workers do not fault in lockstep.
    plan.seed = opt.chaos_seed +
                static_cast<std::uint64_t>(worker_index >= 0 ? worker_index : 0);

    int status = 0;
    {
        service::ServiceCore core(service_options);
        service::ChaosInjector chaos(&plan);
        try {
            service::TcpServer server(core, service::AdoptSocket{listen_fd});
            if (chaos.active()) {
                server.set_chaos(&chaos);
            }
            server.start();
            if (worker_index < 0) {
                std::cerr << "lphd: listening on 127.0.0.1:" << server.port()
                          << "\n";
            }

            sigset_t signals;
            sigemptyset(&signals);
            sigaddset(&signals, SIGINT);
            sigaddset(&signals, SIGTERM);
            int caught = 0;
            sigwait(&signals, &caught);
            std::cerr << "lphd" << worker_suffix(worker_index)
                      << ": caught signal " << caught << ", shutting down\n";
            server.shutdown();
            core.stop();
        } catch (const std::exception& e) {
            std::cerr << "lphd" << worker_suffix(worker_index) << ": "
                      << e.what() << "\n";
            status = 1;
        }
        core.publish_metrics();
        const service::ServiceStats stats = core.stats();
        std::cerr << "lphd" << worker_suffix(worker_index) << ": completed "
                  << stats.completed << ", errors " << stats.errors
                  << ", rejected " << stats.rejected << ", memo served "
                  << stats.memo_served << "\n";
    }

    const std::string suffix = worker_suffix(worker_index);
    if (!opt.trace_path.empty()) {
        // Supervised workers write distinct per-slot files into the --trace
        // directory so trace_merge.py can stitch the whole cluster.
        const std::string trace_out =
            worker_index >= 0 ? opt.trace_path + "/worker-" +
                                    std::to_string(worker_index) + ".trace"
                              : opt.trace_path;
        const std::string label =
            worker_index >= 0 ? "lphd worker " + std::to_string(worker_index)
                              : "lphd";
        if (!session.export_chrome_trace(trace_out, label)) {
            std::cerr << "lphd: failed to write trace to " << trace_out << "\n";
            status = 1;
        }
    }
    if (!opt.metrics_path.empty() &&
        !session.write_metrics_json(opt.metrics_path + suffix)) {
        std::cerr << "lphd: failed to write metrics to " << opt.metrics_path
                  << suffix << "\n";
        status = 1;
    }
    return status;
}

/// The supervisor: binds once, forks `--supervise N` workers that accept
/// from the shared listener, and restarts the ones that die (exponential
/// backoff + crash-loop circuit breaker, via SupervisorLedger).  SIGINT/
/// SIGTERM propagate to every worker for a clean cluster shutdown.
int run_supervisor(const Options& opt) {
    std::uint16_t bound = 0;
    const int listen_fd =
        service::listen_loopback(static_cast<std::uint16_t>(opt.port), &bound);
    if (!opt.snapshot_dir.empty()) {
        std::filesystem::create_directories(opt.snapshot_dir);
    }

    // The supervisor traces its own lifecycle decisions (worker_start /
    // worker_exit / backoff instants) into DIR/supervisor.trace so the merged
    // timeline shows restarts next to the workers' serving spans.
    obs::Session::Options session_options;
    session_options.tracing = !opt.trace_path.empty();
    obs::Session session(session_options);
    obs::Tracer& tracer = obs::Tracer::instance();

    // Masked before any fork: workers inherit the mask and sigwait on it;
    // the supervisor consumes SIGCHLD/SIGINT/SIGTERM via sigtimedwait.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGCHLD);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    const auto start = std::chrono::steady_clock::now();
    const auto now_ms = [start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    service::SupervisorLedger ledger(static_cast<std::size_t>(opt.supervise),
                                     opt.restart);
    std::vector<pid_t> pids(static_cast<std::size_t>(opt.supervise), -1);

    const auto spawn = [&](std::size_t slot) {
        ledger.on_started(slot, now_ms());
        const std::uint64_t generation = ledger.slot(slot).generation;
        const pid_t pid = ::fork();
        check(pid >= 0, std::string("fork() failed: ") + std::strerror(errno));
        if (pid == 0) {
            // Worker: serve until SIGTERM, then die without re-running the
            // supervisor's atexit/static machinery.
            std::_Exit(serve_tcp(opt, listen_fd, static_cast<int>(slot),
                                 generation));
        }
        pids[slot] = pid;
        tracer.instant("supervisor", "worker_start", "slot",
                       static_cast<std::uint64_t>(slot));
        std::cerr << "{\"event\":\"worker_start\",\"slot\":" << slot
                  << ",\"pid\":" << pid << ",\"generation\":" << generation
                  << "}\n";
    };

    const auto reap = [&]() {
        int status = 0;
        pid_t pid = -1;
        while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
            std::size_t slot = pids.size();
            for (std::size_t i = 0; i < pids.size(); ++i) {
                if (pids[i] == pid) {
                    slot = i;
                    break;
                }
            }
            if (slot == pids.size()) {
                continue;
            }
            pids[slot] = -1;
            const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            const bool chaos_kill =
                WIFEXITED(status) &&
                WEXITSTATUS(status) == service::kChaosKillExitStatus;
            const bool restart = ledger.on_exit(slot, now_ms(), clean);
            const service::SupervisorLedger::Slot& s = ledger.slot(slot);
            tracer.instant("supervisor", "worker_exit", "slot",
                           static_cast<std::uint64_t>(slot));
            if (restart) {
                tracer.instant("supervisor", "backoff", "slot",
                               static_cast<std::uint64_t>(slot));
            }
            std::cerr << "{\"event\":\"worker_exit\",\"slot\":" << slot
                      << ",\"pid\":" << pid << ",\"clean\":"
                      << (clean ? "true" : "false") << ",\"chaos_kill\":"
                      << (chaos_kill ? "true" : "false")
                      << ",\"restarts\":" << s.restarts << ",";
            if (restart) {
                std::cerr << "\"restart_in_ms\":"
                          << std::max(0.0, s.restart_at_ms - now_ms()) << "}\n";
            } else {
                std::cerr << "\"action\":\""
                          << (clean ? "done" : "given_up") << "\"}\n";
            }
        }
    };

    std::cerr << "lphd: listening on 127.0.0.1:" << bound << " (supervising "
              << opt.supervise << " workers)\n";
    for (std::size_t i = 0; i < pids.size(); ++i) {
        spawn(i);
    }

    bool interrupted = false;
    while (!interrupted) {
        // Sleep until the earliest pending restart, a child exit, or a
        // shutdown signal.
        double wait_ms = 1000;
        if (const double deadline = ledger.next_deadline_ms(); deadline >= 0) {
            wait_ms = std::max(0.0, deadline - now_ms());
        }
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wait_ms / 1000);
        ts.tv_nsec = static_cast<long>(
            std::fmod(wait_ms, 1000.0) * 1e6);
        const int sig = ::sigtimedwait(&signals, nullptr, &ts);
        if (sig == SIGINT || sig == SIGTERM) {
            std::cerr << "lphd: caught signal " << sig
                      << ", stopping workers\n";
            interrupted = true;
        }
        reap();
        for (int due = -1; (due = ledger.due_slot(now_ms())) >= 0;) {
            spawn(static_cast<std::size_t>(due));
        }
        if (!interrupted && ledger.running() == 0 &&
            ledger.next_deadline_ms() < 0) {
            break; // nothing running, nothing pending: all done or given up
        }
    }

    for (const pid_t pid : pids) {
        if (pid > 0) {
            ::kill(pid, SIGTERM);
        }
    }
    for (const pid_t pid : pids) {
        if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
    ::close(listen_fd);
    if (!opt.trace_path.empty() &&
        !session.export_chrome_trace(opt.trace_path + "/supervisor.trace",
                                     "lphd supervisor")) {
        std::cerr << "lphd: failed to write trace to " << opt.trace_path
                  << "/supervisor.trace\n";
    }
    const bool crash_looped = ledger.given_up() > 0 && !interrupted;
    std::cerr << "{\"event\":\"supervisor_exit\",\"restarts\":"
              << ledger.total_restarts() << ",\"given_up\":"
              << ledger.given_up() << ",\"reason\":\""
              << (interrupted ? "signal" : crash_looped ? "crash_loop" : "done")
              << "\"}\n";
    return crash_looped ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);

    // A peer that disconnects mid-response must surface as a transport error
    // on the write path, not kill the daemon with SIGPIPE (satellite of the
    // resilience contract; sockets also pass MSG_NOSIGNAL, this covers the
    // --pipe stdout path).
    service::ignore_sigpipe();

    if (opt.supervise > 0 && !opt.trace_path.empty()) {
        // Supervised --trace is a directory of per-process files; create it
        // now and probe a file inside it.
        std::error_code ec;
        std::filesystem::create_directories(opt.trace_path, ec);
        if (ec) {
            std::cerr << "{\"event\":\"output_path_unwritable\",\"flag\":"
                      << "\"--trace\",\"path\":\"" << opt.trace_path
                      << "\",\"error\":\"" << ec.message() << "\"}\n";
            return 2;
        }
        require_writable("--trace", opt.trace_path + "/supervisor.trace");
    } else {
        require_writable("--trace", opt.trace_path);
    }
    require_writable("--metrics", opt.metrics_path);

    if (opt.supervise > 0) {
        try {
            return run_supervisor(opt);
        } catch (const std::exception& e) {
            std::cerr << "lphd: " << e.what() << "\n";
            return 1;
        }
    }

    if (opt.pipe) {
        obs::Session::Options session_options;
        session_options.tracing = !opt.trace_path.empty();
        obs::Session session(session_options);
        session.activate();

        service::ServiceOptions service_options =
            make_service_options(opt, &session);
        service_options.snapshot_path = opt.snapshot_path;

        int status = 0;
        {
            service::ServiceCore core(service_options);
            const service::ServeReport report =
                service::serve_stream(core, std::cin, std::cout);
            core.stop();
            std::cerr << "lphd: served " << report.requests << " requests ("
                      << report.protocol_errors << " protocol errors) over "
                      << report.lines << " lines\n";
            core.publish_metrics();
            const service::ServiceStats stats = core.stats();
            std::cerr << "lphd: completed " << stats.completed << ", errors "
                      << stats.errors << ", rejected " << stats.rejected
                      << ", memo served " << stats.memo_served << "\n";
        }
        if (!opt.trace_path.empty() &&
            !session.export_chrome_trace(opt.trace_path)) {
            std::cerr << "lphd: failed to write trace to " << opt.trace_path
                      << "\n";
            status = 1;
        }
        if (!opt.metrics_path.empty() &&
            !session.write_metrics_json(opt.metrics_path)) {
            std::cerr << "lphd: failed to write metrics to " << opt.metrics_path
                      << "\n";
            status = 1;
        }
        return status;
    }

    // Standalone TCP daemon: block the shutdown signals before any thread is
    // spawned so only serve_tcp's sigwait sees them.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);
    try {
        std::uint16_t bound = 0;
        const int listen_fd =
            service::listen_loopback(static_cast<std::uint16_t>(opt.port),
                                     &bound);
        return serve_tcp(opt, listen_fd, -1, 0);
    } catch (const std::exception& e) {
        std::cerr << "lphd: " << e.what() << "\n";
        return 1;
    }
}
