// Tests for the resilience layer (DESIGN.md "Resilience"): the snapshot
// codec's fail-closed decoding (every single-byte corruption, truncation,
// version mismatch, and hostile length field must reject — a snapshot is
// never trusted partially), memo export/restore, ServiceCore
// warm-start round trips, the supervisor's backoff/circuit-breaker ledger,
// client retry backoff, wire-level chaos determinism and the garble
// soundness property, the SIGPIPE-proof transport, and the open oracle
// check registry.

#include "core/check.hpp"
#include "oracle/harness.hpp"
#include "service/chaos.hpp"
#include "service/core.hpp"
#include "service/memo.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "service/supervisor.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

using namespace lph;
using namespace lph::service;

SnapshotData sample_snapshot() {
    SnapshotData data;
    SnapshotSection memo;
    memo.name = "memo";
    memo.entries = {{"game|allsel|0", "\"accepted\":true"},
                    {"decide|eulerian", "\"answer\":false"},
                    // Binary-safe: keys and values may hold NULs, newlines,
                    // and high bytes (view keys are binary encodings).
                    {std::string("bin\0key\n", 8), std::string("\xff\x00v", 3)}};
    SnapshotSection views;
    views.name = "table:allsel";
    views.entries = {{"class1", std::string("\x01\0\0\0\0\0\0\0", 8)},
                     {"class2", "verdicts"}};
    data.sections = {memo, views};
    return data;
}

void expect_equal(const SnapshotData& a, const SnapshotData& b) {
    ASSERT_EQ(a.sections.size(), b.sections.size());
    for (std::size_t i = 0; i < a.sections.size(); ++i) {
        EXPECT_EQ(a.sections[i].name, b.sections[i].name);
        EXPECT_EQ(a.sections[i].entries, b.sections[i].entries);
    }
}

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------- codec -------

TEST(SnapshotCodec, RoundTripsEmptyAndPopulated) {
    for (const SnapshotData& data : {SnapshotData{}, sample_snapshot()}) {
        const std::string bytes = encode_snapshot(data);
        SnapshotData decoded;
        std::string error;
        ASSERT_EQ(decode_snapshot(bytes, &decoded, &error),
                  SnapshotReadResult::Loaded)
            << error;
        expect_equal(data, decoded);
    }
}

TEST(SnapshotCodec, EverySingleByteFlipIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
        SnapshotData out;
        std::string error;
        EXPECT_EQ(decode_snapshot(corrupt, &out, &error),
                  SnapshotReadResult::Rejected)
            << "flip at byte " << i << " was accepted";
        EXPECT_TRUE(out.sections.empty())
            << "rejected snapshot leaked partial data (byte " << i << ")";
    }
}

TEST(SnapshotCodec, EveryTruncationIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        SnapshotData out;
        std::string error;
        EXPECT_EQ(decode_snapshot(bytes.substr(0, len), &out, &error),
                  SnapshotReadResult::Rejected)
            << "truncation to " << len << " bytes was accepted";
    }
}

TEST(SnapshotCodec, TrailingBytesAreRejected) {
    std::string bytes = encode_snapshot(sample_snapshot());
    bytes.push_back('\0');
    SnapshotData out;
    std::string error;
    EXPECT_EQ(decode_snapshot(bytes, &out, &error),
              SnapshotReadResult::Rejected);
}

void patch_u32_le(std::string& bytes, std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFF);
    }
}

void refresh_checksum(std::string& bytes) {
    const std::uint64_t sum =
        fnv1a64(bytes.substr(8, bytes.size() - 8 - 8));
    for (int i = 0; i < 8; ++i) {
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
}

TEST(SnapshotCodec, FutureVersionIsRejectedEvenWithValidChecksum) {
    std::string bytes = encode_snapshot(sample_snapshot());
    patch_u32_le(bytes, 8, kSnapshotVersion + 1); // version follows the magic
    refresh_checksum(bytes);
    SnapshotData out;
    std::string error;
    EXPECT_EQ(decode_snapshot(bytes, &out, &error),
              SnapshotReadResult::Rejected);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotCodec, HostileEntryCountIsBoundsCheckedBeforeAllocation) {
    // A section claiming 2^60 entries with a valid checksum must be rejected
    // by arithmetic, not by attempting the reserve.
    std::string bytes = "LPHSNAP\n";
    const auto put_u32 = [&bytes](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        }
    };
    const auto put_u64 = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        }
    };
    put_u32(kSnapshotVersion);
    put_u32(1);        // one section
    put_u32(1);        // name length
    bytes.push_back('m');
    put_u64(1ull << 60); // hostile entry count
    put_u64(fnv1a64(bytes.substr(8)));
    SnapshotData out;
    std::string error;
    EXPECT_EQ(decode_snapshot(bytes, &out, &error),
              SnapshotReadResult::Rejected);
}

TEST(SnapshotCodec, FileRoundTripAndMissingFile) {
    const std::string path = temp_path("lph_test_snapshot_roundtrip.snap");
    std::filesystem::remove(path);

    SnapshotData out;
    std::string error;
    EXPECT_EQ(read_snapshot_file(path, &out, &error),
              SnapshotReadResult::Missing);

    const SnapshotData data = sample_snapshot();
    ASSERT_TRUE(write_snapshot_file(path, data, &error)) << error;
    EXPECT_EQ(read_snapshot_file(path, &out, &error),
              SnapshotReadResult::Loaded)
        << error;
    expect_equal(data, out);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

// ------------------------------------------------- cache export/restore ----

TEST(MemoSnapshot, RestoreRebuildsEntriesWithoutPollutingStats) {
    ResultMemo memo;
    memo.insert("a", "va");
    memo.insert("b", "vb");
    memo.insert("c", "vc");
    ASSERT_TRUE(memo.lookup("a").has_value());

    ResultMemo restored;
    EXPECT_EQ(restored.restore(memo.export_entries()), 3u);
    const ResultMemoStats stats = restored.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(restored.lookup("b").value(), "vb");
    EXPECT_EQ(restored.lookup("c").value(), "vc");
}

TEST(MemoSnapshot, RestoreRespectsShrunkCapacity) {
    ResultMemo big(1 << 10);
    for (int i = 0; i < 64; ++i) {
        big.insert("key" + std::to_string(i), "v");
    }
    ResultMemo small(8); // 8 shards -> one entry per shard
    const std::size_t admitted = small.restore(big.export_entries());
    EXPECT_LE(admitted, 8u);
    EXPECT_LE(small.stats().entries, 8u);
}

// ------------------------------------------------- core warm start ---------

Request game_request(const std::string& id) {
    const std::string line =
        "{\"type\":\"game\",\"id\":" + id +
        ",\"machine\":\"allsel\",\"layers\":0,\"sigma\":true,"
        "\"ids\":\"global\",\"graph\":\"graph 4\\nlabel 0 1\\nlabel 1 1\\n"
        "label 2 1\\nlabel 3 1\\nedge 0 1\\nedge 1 2\\nedge 2 3\\n\"}";
    return parse_request(line, 1, WireLimits{});
}

ServiceOptions snapshot_options(const std::string& path) {
    ServiceOptions options;
    options.manual_drain = true;
    options.snapshot_path = path;
    return options;
}

TEST(ServiceCoreSnapshot, WarmStartServesFromRestoredMemo) {
    const std::string path = temp_path("lph_test_warm_start.snap");
    std::filesystem::remove(path);
    {
        ServiceCore core(snapshot_options(path));
        const Response response = core.call(game_request("1"));
        ASSERT_EQ(response.status, "ok");
        EXPECT_FALSE(response.memo_hit);
        core.stop(); // writes the snapshot
        EXPECT_EQ(core.snapshot_stats().saves, 1u);
    }
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        ServiceCore core(snapshot_options(path));
        EXPECT_EQ(core.snapshot_stats().loads, 1u);
        EXPECT_GE(core.snapshot_stats().entries_loaded, 1u);
        const Response response = core.call(game_request("2"));
        ASSERT_EQ(response.status, "ok");
        EXPECT_TRUE(response.memo_hit) << "warm start did not prime the memo";
    }
    std::filesystem::remove(path);
}

TEST(ServiceCoreSnapshot, CorruptSnapshotColdStartsCleanly) {
    const std::string path = temp_path("lph_test_corrupt.snap");
    {
        std::ofstream out(path, std::ios::binary);
        out << "LPHSNAP\nnot really a snapshot";
    }
    ServiceCore core(snapshot_options(path));
    EXPECT_EQ(core.snapshot_stats().rejected, 1u);
    EXPECT_EQ(core.snapshot_stats().loads, 0u);
    const Response response = core.call(game_request("1"));
    EXPECT_EQ(response.status, "ok"); // cold start, but fully operational
    core.stop();
    // The shutdown save must replace the corrupt file with a loadable one.
    SnapshotData out;
    std::string error;
    EXPECT_EQ(read_snapshot_file(path, &out, &error),
              SnapshotReadResult::Loaded)
        << error;
    std::filesystem::remove(path);
}

// ------------------------------------------------- supervisor ledger -------

RestartPolicy test_policy() {
    RestartPolicy policy;
    policy.base_backoff_ms = 100;
    policy.max_backoff_ms = 5000;
    policy.min_healthy_uptime_ms = 1000;
    policy.max_consecutive_crashes = 3;
    policy.jitter_seed = 7;
    return policy;
}

TEST(SupervisorLedgerTest, BackoffGrowsExponentiallyWithJitter) {
    SupervisorLedger ledger(1, test_policy());
    double now = 0;
    double previous_nominal = 0;
    for (int crash = 1; crash <= 3; ++crash) {
        ledger.on_started(0, now);
        now += 10; // dies young every time
        ASSERT_TRUE(ledger.on_exit(0, now, false));
        const double delay = ledger.slot(0).restart_at_ms - now;
        const double nominal = 100 * static_cast<double>(1 << (crash - 1));
        EXPECT_GE(delay, nominal * 0.5);
        EXPECT_LT(delay, nominal * 1.5);
        EXPECT_GT(nominal, previous_nominal);
        previous_nominal = nominal;
        now = ledger.slot(0).restart_at_ms;
    }
}

TEST(SupervisorLedgerTest, HealthyUptimeResetsTheCrashCounter) {
    SupervisorLedger ledger(1, test_policy());
    ledger.on_started(0, 0);
    ASSERT_TRUE(ledger.on_exit(0, 10, false));
    ledger.on_started(0, 200);
    ASSERT_TRUE(ledger.on_exit(0, 250, false));
    EXPECT_EQ(ledger.slot(0).consecutive_crashes, 2);
    // A long healthy life, then a crash: the counter restarts from 1.
    ledger.on_started(0, 1000);
    ASSERT_TRUE(ledger.on_exit(0, 5000, false));
    EXPECT_EQ(ledger.slot(0).consecutive_crashes, 1);
}

TEST(SupervisorLedgerTest, CircuitBreakerGivesUpACrashLoopingSlot) {
    SupervisorLedger ledger(2, test_policy());
    double now = 0;
    for (int crash = 1; crash <= 3; ++crash) {
        ledger.on_started(0, now);
        now += 1;
        ASSERT_TRUE(ledger.on_exit(0, now, false)) << "crash " << crash;
        now = ledger.slot(0).restart_at_ms;
    }
    ledger.on_started(0, now);
    EXPECT_FALSE(ledger.on_exit(0, now + 1, false)); // 4th > max(3): give up
    EXPECT_EQ(ledger.slot(0).state, SupervisorLedger::SlotState::GivenUp);
    EXPECT_EQ(ledger.given_up(), 1u);
    EXPECT_EQ(ledger.due_slot(now + 1e9), -1); // never restarted again
}

TEST(SupervisorLedgerTest, CleanExitIsNotRestarted) {
    SupervisorLedger ledger(1, test_policy());
    ledger.on_started(0, 0);
    EXPECT_FALSE(ledger.on_exit(0, 5, true));
    EXPECT_EQ(ledger.running(), 0u);
    EXPECT_EQ(ledger.due_slot(1e9), -1);
}

TEST(SupervisorLedgerTest, DueSlotAndDeadlineTrackTheEarliestRestart) {
    SupervisorLedger ledger(2, test_policy());
    ledger.on_started(0, 0);
    ledger.on_started(1, 0);
    ASSERT_TRUE(ledger.on_exit(0, 10, false));
    ASSERT_TRUE(ledger.on_exit(1, 500, false));
    const double first = ledger.slot(0).restart_at_ms;
    EXPECT_EQ(ledger.next_deadline_ms(),
              std::min(first, ledger.slot(1).restart_at_ms));
    EXPECT_EQ(ledger.due_slot(first - 1), -1);
    EXPECT_EQ(ledger.due_slot(first), 0);
    ledger.on_started(0, first);
    EXPECT_EQ(ledger.due_slot(first), -1); // restarted, no longer due
    EXPECT_EQ(ledger.total_restarts(), 1u);
}

TEST(SupervisorLedgerTest, JitterIsDeterministicPerSeed) {
    SupervisorLedger a(1, test_policy());
    SupervisorLedger b(1, test_policy());
    a.on_started(0, 0);
    b.on_started(0, 0);
    ASSERT_TRUE(a.on_exit(0, 10, false));
    ASSERT_TRUE(b.on_exit(0, 10, false));
    EXPECT_EQ(a.slot(0).restart_at_ms, b.slot(0).restart_at_ms);
}

// ------------------------------------------------- client retry ------------

TEST(RetryBackoff, PureBoundedJitteredExponential) {
    RetryPolicy policy;
    policy.base_backoff_ms = 10;
    policy.max_backoff_ms = 500;
    policy.seed = 42;
    for (std::uint64_t request = 0; request < 20; ++request) {
        for (int attempt = 1; attempt <= 10; ++attempt) {
            const double delay = backoff_delay_ms(policy, request, attempt);
            EXPECT_EQ(delay, backoff_delay_ms(policy, request, attempt))
                << "not pure";
            const double cap =
                std::min(policy.max_backoff_ms,
                         policy.base_backoff_ms *
                             static_cast<double>(1ull << (attempt - 1)));
            EXPECT_GE(delay, 0.0);
            EXPECT_LT(delay, cap);
        }
    }
    // Different seeds give different schedules (full jitter, not lockstep).
    RetryPolicy other = policy;
    other.seed = 43;
    bool any_differ = false;
    for (int attempt = 2; attempt <= 6 && !any_differ; ++attempt) {
        any_differ = backoff_delay_ms(policy, 0, attempt) !=
                     backoff_delay_ms(other, 0, attempt);
    }
    EXPECT_TRUE(any_differ);
}

// ------------------------------------------------- chaos -------------------

TEST(Chaos, ReplaysDeterministicallyAndRespectsPrecedence) {
    ChaosPlan everything;
    everything.seed = 9;
    everything.drop_prob = 1;
    everything.truncate_prob = 1;
    everything.garble_prob = 1;
    everything.delay_prob = 1;
    everything.kill_prob = 1;
    const ChaosInjector harshest(&everything);
    EXPECT_EQ(harshest.action_for(0), ChaosAction::KillWorker);

    ChaosPlan drops = everything;
    drops.kill_prob = 0;
    drops.truncate_prob = 0;
    drops.garble_prob = 0;
    drops.delay_prob = 0;
    const ChaosInjector dropper(&drops);
    EXPECT_EQ(dropper.action_for(5), ChaosAction::Drop);

    ChaosPlan mixed;
    mixed.seed = 31;
    mixed.drop_prob = 0.2;
    mixed.garble_prob = 0.3;
    const ChaosInjector a(&mixed);
    const ChaosInjector b(&mixed);
    int fired = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        EXPECT_EQ(a.action_for(i), b.action_for(i));
        fired += a.action_for(i) != ChaosAction::None ? 1 : 0;
    }
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 200);

    const ChaosInjector inert(nullptr);
    EXPECT_FALSE(inert.active());
    EXPECT_EQ(inert.action_for(0), ChaosAction::None);
}

TEST(Chaos, GarbleCanNeverForgeADifferentVerdict) {
    // The soundness construction: xor-0xFF pushes any ASCII byte to >= 0x80,
    // which can never be a digit, a quote, or a byte of "true"/"false".  So a
    // garbled response either fails to parse or (when the flip lands inside
    // an unrelated string value) parses with its verdict intact.
    ServiceOptions options;
    options.manual_drain = true;
    ServiceCore core(options);
    for (const char* id : {"1", "2", "3"}) {
        const Response response = core.call(game_request(id));
        ASSERT_EQ(response.status, "ok");
        const std::string original = response.to_json();
        const auto golden = parse_verdict(original);
        ASSERT_TRUE(golden.has_value());
        ASSERT_TRUE(golden->has_verdict);
        // Not just the middle byte the injector flips: the invariant holds
        // for a flip at *every* position.
        for (std::size_t i = 0; i < original.size(); ++i) {
            std::string garbled = original;
            garbled[i] = static_cast<char>(garbled[i] ^ 0xFF);
            const auto view = parse_verdict(garbled);
            if (view.has_value() && view->status == "ok" &&
                view->has_verdict && view->id == golden->id) {
                EXPECT_EQ(view->verdict, golden->verdict)
                    << "flip at byte " << i << " forged a verdict";
            }
        }
    }
}

// ------------------------------------------------- transport ---------------

TEST(Transport, PeerDisconnectIsAStatusNotASignal) {
    ignore_sigpipe();
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    // Large enough to overrun any kernel buffering on the first or second
    // write; the death this guards against is SIGPIPE, so surviving to see
    // the return value is the point.
    const std::string payload(1 << 20, 'x');
    TransportStatus status = TransportStatus::Ok;
    for (int i = 0; i < 4 && status == TransportStatus::Ok; ++i) {
        status = send_all(fds[0], payload);
    }
    EXPECT_EQ(status, TransportStatus::PeerClosed);
    ::close(fds[0]);
}

TEST(Transport, EofAndTimeoutAreDistinctStatuses) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string buffer, line;
    EXPECT_EQ(recv_line_fd(fds[0], buffer, line, 50),
              TransportStatus::TimedOut);

    ASSERT_EQ(send_all(fds[1], "hello\n"), TransportStatus::Ok);
    EXPECT_EQ(recv_line_fd(fds[0], buffer, line, 50), TransportStatus::Ok);
    EXPECT_EQ(line, "hello");

    ::close(fds[1]);
    EXPECT_EQ(recv_line_fd(fds[0], buffer, line, 50),
              TransportStatus::PeerClosed);
    ::close(fds[0]);
}

TEST(TcpServerResilience, ClientVanishingMidConversationKeepsServing) {
    ServiceOptions options;
    options.threads = 2;
    ServiceCore core(options);
    TcpServer server(core, static_cast<std::uint16_t>(0), 2);
    server.start();

    // A client that submits work and vanishes without reading its responses:
    // the server's writes hit a dead socket (EPIPE/ECONNRESET) and must not
    // take the daemon down.
    {
        TcpClient rude("127.0.0.1", server.port());
        rude.send_line(game_request("1").to_json());
        rude.send_line(game_request("2").to_json());
    } // closed here, responses unread

    // The daemon keeps serving new connections.
    TcpClient polite("127.0.0.1", server.port());
    polite.send_line(game_request("3").to_json());
    std::string response;
    ASSERT_EQ(polite.recv_line_status(response, 10000), TransportStatus::Ok);
    const auto view = parse_verdict(response);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->status, "ok");
    server.shutdown();
    core.stop();
}

// ------------------------------------------------- oracle registry ---------

ReproCase dummy_generate(Rng& rng) {
    ReproCase r;
    r.params["n"] = std::to_string(rng.uniform(0, 3));
    return r;
}

std::optional<std::string> dummy_compare(const ReproCase&) {
    return std::nullopt;
}

std::optional<std::string> other_compare(const ReproCase&) {
    return std::nullopt;
}

TEST(OracleRegistry, RegisterCheckIsIdempotentButConflictChecked) {
    RegisteredCheck check;
    check.name = "test-resilience-dummy";
    check.generate = dummy_generate;
    check.compare = dummy_compare;
    register_check(check);
    EXPECT_TRUE(is_check_name("test-resilience-dummy"));
    EXPECT_NO_THROW(register_check(check)); // same pointers: idempotent

    RegisteredCheck conflicting = check;
    conflicting.compare = other_compare;
    EXPECT_THROW(register_check(conflicting), precondition_error);

    const CheckReport report = run_check("test-resilience-dummy", 3, 5);
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(report.instances, 5u);
}

TEST(ChaosOracle, ServiceChaosCheckAgreesOnASeededCorpus) {
    register_service_checks();
    ASSERT_TRUE(is_check_name("service-chaos-vs-direct"));
    const CheckReport report = run_check("service-chaos-vs-direct", 5, 15);
    EXPECT_TRUE(report.passed())
        << (report.divergences.empty() ? ""
                                       : report.divergences.front().detail);
}

} // namespace
