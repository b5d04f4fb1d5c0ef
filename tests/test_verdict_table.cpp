// The per-view verdict table: memoized solves must return bit-identical
// GameResults (verdict, deterministic counters, fault records, witness) to
// the unmemoized engine on clean, faulting, aborting and multi-layer games;
// the stats must describe the work (every leaf is a table hit or a run, and
// a fill is re-read at once); classes must be shared across graphs, orbits
// and threads; and the table must survive a snapshot round trip.

#include "dtm/faults.hpp"
#include "graph/generators.hpp"
#include "graph/identifiers.hpp"
#include "graphalg/coloring.hpp"
#include "hierarchy/game.hpp"
#include "hierarchy/verdict_table.hpp"
#include "machines/verifiers.hpp"
#include "obs/session.hpp"
#include "service/core.hpp"
#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace lph {
namespace {

/// The color domain matching a ColoringVerifier.
class ColorDomain : public CertificateDomain {
public:
    explicit ColorDomain(const ColoringVerifier& verifier) {
        for (int c = 0; c < verifier.k(); ++c) {
            options_.push_back(verifier.encode_color(c));
        }
    }
    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment&,
                                   NodeId) const override {
        return options_;
    }

private:
    std::vector<BitString> options_;
};

/// Verifier that violates its declared step bound whenever its certificate
/// contains a '1', and accepts iff the certificate is "0".
class FussyVerifier : public LocalMachine {
public:
    int round_bound() const override { return 1; }
    Polynomial step_bound() const override { return Polynomial::constant(64); }
    RoundOutput on_round(const RoundInput& input, std::string&,
                         StepMeter& meter) const override {
        if (input.certificates.find('1') != std::string::npos) {
            meter.charge(1'000'000); // blows the declared bound
        }
        return {{}, true, input.certificates == "0" ? "1" : "0"};
    }
};

/// Sigma_2 arbiter: Eve's bit must imply Adam's bit is harmless.
class ImpliesMachine : public NeighborhoodGatherMachine {
public:
    ImpliesMachine() : NeighborhoodGatherMachine(0) {}
    std::string decide(const NeighborhoodView& view, StepMeter&) const override {
        const auto parts = split_hash(view.certs[view.self]);
        const std::string eve = parts.size() > 0 ? parts[0] : "";
        const std::string adam = parts.size() > 1 ? parts[1] : "";
        return (eve == "1" || adam == "0") ? "1" : "0";
    }
};

GameSpec coloring_spec(const ColoringVerifier& verifier,
                       const CertificateDomain& domain) {
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    spec.starts_existential = true;
    return spec;
}

void expect_identical(const GameResult& reference, const GameResult& other,
                      const std::string& what) {
    EXPECT_EQ(reference.accepted, other.accepted) << what;
    EXPECT_EQ(reference.machine_runs, other.machine_runs) << what;
    EXPECT_EQ(reference.faulted_runs, other.faulted_runs) << what;
    EXPECT_EQ(reference.witness.has_value(), other.witness.has_value()) << what;
    if (reference.witness.has_value() && other.witness.has_value()) {
        EXPECT_TRUE(*reference.witness == *other.witness) << what;
    }
    ASSERT_EQ(reference.probe_faults.size(), other.probe_faults.size()) << what;
    for (std::size_t i = 0; i < reference.probe_faults.size(); ++i) {
        EXPECT_EQ(reference.probe_faults[i].code, other.probe_faults[i].code)
            << what << " fault " << i;
        EXPECT_EQ(reference.probe_faults[i].node, other.probe_faults[i].node)
            << what << " fault " << i;
        EXPECT_EQ(reference.probe_faults[i].round, other.probe_faults[i].round)
            << what << " fault " << i;
    }
}

/// The unmemoized sequential engine against the memoized one at 1 and 4
/// threads, each on a fresh private table and on one table shared by both.
void expect_table_identical(const GameSpec& spec, const LabeledGraph& g,
                            const IdentifierAssignment& id,
                            const GameOptions& base, const std::string& what) {
    GameOptions reference_options = base;
    reference_options.threads = 1;
    reference_options.memoize_views = false;
    const GameResult reference = play_game(spec, g, id, reference_options);
    VerdictTable shared;
    for (const unsigned threads : {1u, 4u}) {
        for (VerdictTable* table : {static_cast<VerdictTable*>(nullptr), &shared}) {
            GameOptions options = base;
            options.threads = threads;
            options.view_cache = table;
            const GameResult result = play_game(spec, g, id, options);
            const std::string label = what + " threads=" +
                                      std::to_string(threads) +
                                      (table ? " shared" : " private");
            expect_identical(reference, result, label);
            EXPECT_EQ(result.stats.leaves_processed,
                      result.stats.leaf_cache_hits + result.stats.local_runs)
                << label;
        }
    }
    EXPECT_EQ(shared.stats().verdict_mismatches, 0u) << what;
}

// ----------------------------------------------------------- equivalence ---

class TableSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(TableSeeds, RandomColoringGamesMatchTheUnmemoizedEngine) {
    Rng rng(GetParam() + 211);
    const LabeledGraph g =
        random_connected_graph(3 + rng.index(6), rng.index(6), rng, "1");
    const auto id = make_global_ids(g);
    for (int k = 2; k <= 3; ++k) {
        const ColoringVerifier verifier(k);
        const ColorDomain domain(verifier);
        const GameSpec spec = coloring_spec(verifier, domain);
        expect_table_identical(spec, g, id, GameOptions{},
                               "k=" + std::to_string(k) + " seed=" +
                                   std::to_string(GetParam()));
        EXPECT_EQ(play_game(spec, g, id).accepted, is_k_colorable(g, k));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSeeds, ::testing::Range(0u, 8u));

TEST(VerdictTableGame, ToleratedFaultLeavesNeverFillAndMatch) {
    // Faulting certificates never fill the table, so exactly those leaves
    // run the interpreter again and reproduce the fault tallies and samples.
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    GameOptions base;
    base.tolerate_faults = true;
    expect_table_identical(spec, g, id, base, "fussy");
}

TEST(VerdictTableGame, AbortingGamesThrowTheSameError) {
    const LabeledGraph g = path_graph(3, "1");
    const auto id = make_global_ids(g);
    const FussyVerifier verifier;
    const FixedOptionsDomain domain({"1", "0"});
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    for (const bool memoize : {false, true}) {
        for (const unsigned threads : {1u, 4u}) {
            GameOptions options;
            options.threads = threads;
            options.memoize_views = memoize;
            try {
                play_game(spec, g, id, options);
                FAIL() << "expected run_error (threads=" << threads << ")";
            } catch (const run_error& e) {
                EXPECT_EQ(e.code(), RunError::StepBoundViolated);
            }
        }
    }
}

TEST(VerdictTableGame, FaultPlanRunsThePlainInterpreter) {
    // A fault plan makes node verdicts run-global: nothing may be tabled,
    // and the results must not change.
    const LabeledGraph g = cycle_graph(6, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    FaultPlan plan;
    plan.seed = 23;
    plan.drop_prob = 0.3;
    GameOptions base;
    base.tolerate_faults = true;
    base.exec.faults = &plan;
    base.exec.on_violation = FaultPolicy::Record;
    expect_table_identical(coloring_spec(verifier, domain), g, id, base,
                           "injected");

    VerdictTable table;
    GameOptions shared = base;
    shared.view_cache = &table;
    const GameResult result =
        play_game(coloring_spec(verifier, domain), g, id, shared);
    EXPECT_EQ(result.stats.leaf_cache_hits, 0u);
    EXPECT_EQ(result.stats.packed_words_evaluated, 0u);
    EXPECT_EQ(table.stats().classes, 0u);
}

TEST(VerdictTableGame, DeadlineKeepsTheTable) {
    // A deadline only ever aborts runs, and aborted runs never fill, so a
    // deadline'd solve memoizes like any other.
    const LabeledGraph g = cycle_graph(11, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    GameOptions base;
    base.exec.deadline_ms = 60'000;
    expect_table_identical(coloring_spec(verifier, domain), g, id, base,
                           "deadline");
    GameOptions options = base;
    options.threads = 1;
    const GameResult result =
        play_game(coloring_spec(verifier, domain), g, id, options);
    EXPECT_GT(result.stats.leaf_cache_hits, 0u);
}

TEST(VerdictTableGame, TwoLayerGamesPackTheDeepestLayer) {
    // Sigma_2: the packed scan serves the (universal) inner layer while the
    // outer layer keeps the chunked odometer; 2^8 inner leaves > one word.
    const LabeledGraph g = path_graph(8, "1");
    const auto id = make_global_ids(g);
    const ImpliesMachine machine;
    const FixedOptionsDomain bits({"0", "1"});
    GameSpec spec;
    spec.machine = &machine;
    spec.starts_existential = true;
    spec.layers = {&bits, &bits};
    expect_table_identical(spec, g, id, GameOptions{}, "sigma2");
    spec.starts_existential = false;
    expect_table_identical(spec, g, id, GameOptions{}, "pi2");

    spec.starts_existential = true;
    const GameResult result = play_game(spec, g, id);
    EXPECT_TRUE(result.accepted);
    ASSERT_TRUE(result.witness.has_value());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        EXPECT_EQ((*result.witness)(u), "1");
    }
    EXPECT_GT(result.stats.packed_words_evaluated, 0u);
}

// --------------------------------------------------------------- work -----

TEST(VerdictTableWork, FillsAreReReadSoRunsNeverExceedPerLeafLookups) {
    // Every leaf is either a table hit or a run, and at one thread a fill is
    // visible to the very next leaf: the table needs no more runs than a
    // per-leaf lookup of every node view (the counts the string-keyed view
    // cache needed on these games).
    struct Case {
        std::size_t n;
        int k;
        std::uint64_t max_runs;
    };
    for (const Case& c : {Case{9, 2, 145}, Case{9, 3, 634}, Case{13, 2, 209},
                          Case{13, 3, 1282}, Case{15, 2, 241},
                          Case{15, 3, 1606}}) {
        const LabeledGraph g = cycle_graph(c.n, "1");
        const auto id = make_global_ids(g);
        const ColoringVerifier verifier(c.k);
        const ColorDomain domain(verifier);
        GameOptions options;
        options.threads = 1;
        const GameResult result =
            play_game(coloring_spec(verifier, domain), g, id, options);
        const std::string what =
            "C" + std::to_string(c.n) + " k=" + std::to_string(c.k);
        EXPECT_EQ(result.stats.leaves_processed,
                  result.stats.leaf_cache_hits + result.stats.local_runs)
            << what;
        EXPECT_LE(result.stats.local_runs, c.max_runs) << what;
        EXPECT_EQ(result.accepted, is_k_colorable(g, c.k)) << what;
    }
}

TEST(VerdictTableWork, ExhaustiveNoInstanceIsServedFromTheTable) {
    // 2^11 leaves >= the 64-leaf low block: a no-instance forces the packed
    // scan over the full space, and a second solve over the same table runs
    // the machine not once.
    const LabeledGraph g = cycle_graph(11, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable table;
    GameOptions options;
    options.threads = 1;
    options.view_cache = &table;
    const GameResult first =
        play_game(coloring_spec(verifier, domain), g, id, options);
    EXPECT_FALSE(first.accepted);
    EXPECT_EQ(first.machine_runs, std::uint64_t{1} << 11);
    EXPECT_GT(first.stats.local_runs, 0u);
    const GameResult second =
        play_game(coloring_spec(verifier, domain), g, id, options);
    expect_identical(first, second, "warm");
    EXPECT_EQ(second.stats.local_runs, 0u);
    EXPECT_EQ(second.stats.leaf_cache_hits, std::uint64_t{1} << 11);
    const VerdictTable::Stats stats = table.stats();
    EXPECT_EQ(stats.classes, g.num_nodes());
    EXPECT_EQ(stats.hits, first.stats.leaf_cache_hits + (std::uint64_t{1} << 11));
    EXPECT_EQ(stats.misses, first.stats.local_runs);
    EXPECT_EQ(stats.verdict_mismatches, 0u);
}

TEST(VerdictTableWork, PermutedGraphIsAnsweredFromTheSharedTable) {
    // The same graph with its node indices permuted — identifiers and labels
    // moved with the nodes — has the same views, so after an exhaustive solve
    // of the original every leaf of the permuted one hits.
    const LabeledGraph g = cycle_graph(13, "1");
    const auto id = make_global_ids(g);
    const std::size_t n = g.num_nodes();
    std::vector<NodeId> perm(n);
    for (NodeId u = 0; u < n; ++u) {
        perm[u] = static_cast<NodeId>((u * 5 + 3) % n);
    }
    LabeledGraph permuted;
    std::vector<BitString> permuted_ids(n);
    for (NodeId v = 0; v < n; ++v) {
        permuted.add_node("1");
    }
    for (NodeId u = 0; u < n; ++u) {
        permuted.set_label(perm[u], u % 3 == 0 ? "0" : "1");
        permuted_ids[perm[u]] = id(u);
        for (const NodeId w : g.neighbors(u)) {
            if (u < w) {
                permuted.add_edge(perm[u], perm[w]);
            }
        }
    }
    LabeledGraph original = g;
    for (NodeId u = 0; u < n; ++u) {
        original.set_label(u, u % 3 == 0 ? "0" : "1");
    }
    const IdentifierAssignment moved(permuted_ids);

    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable table;
    GameOptions options;
    options.threads = 1;
    options.view_cache = &table;
    const GameResult first =
        play_game(coloring_spec(verifier, domain), original, id, options);
    const GameResult second =
        play_game(coloring_spec(verifier, domain), permuted, moved, options);
    EXPECT_FALSE(first.accepted);
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(second.machine_runs, first.machine_runs);
    EXPECT_EQ(second.stats.local_runs, 0u);
    EXPECT_EQ(table.stats().classes, n); // one class per view, not per graph
}

TEST(VerdictTableWork, PeriodicIdsShareClassesAcrossTheOrbit) {
    // A 14-cycle with period-7 identifiers: node u and u+7 have identical
    // views, so 7 classes serve 14 nodes (test_view_cache checks the
    // verdicts on this collision against the unmemoized engine).
    const LabeledGraph g = cycle_graph(14, "1");
    const auto id = make_cyclic_ids(g, 7);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable table;
    GameOptions options;
    options.view_cache = &table;
    const GameResult result =
        play_game(coloring_spec(verifier, domain), g, id, options);
    EXPECT_TRUE(result.accepted); // even cycle, 2-colorable
    EXPECT_EQ(result.stats.orbit_hits, 7u);
    EXPECT_EQ(table.stats().classes, 7u);

    // Globally unique ids make every class a singleton.
    const auto unique = make_global_ids(g);
    const GameResult singletons =
        play_game(coloring_spec(verifier, domain), g, unique);
    EXPECT_EQ(singletons.stats.orbit_hits, 0u);
}

TEST(VerdictTableWork, FourThreadsFillOneSharedTable) {
    // Four solver threads (and the engine's own 4-way fan-out) fill one
    // table concurrently, over graphs whose views overlap; every answer
    // must match the unmemoized engine and no fill may disagree.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const GameSpec spec = coloring_spec(verifier, domain);
    std::vector<LabeledGraph> graphs;
    for (const std::size_t n : {9, 10, 11, 9}) {
        graphs.push_back(cycle_graph(n, "1"));
    }
    std::vector<GameResult> reference;
    for (const LabeledGraph& g : graphs) {
        GameOptions off;
        off.threads = 1;
        off.memoize_views = false;
        reference.push_back(play_game(spec, g, make_global_ids(g), off));
    }
    VerdictTable table;
    std::vector<GameResult> results(graphs.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        threads.emplace_back([&, i] {
            GameOptions options;
            options.threads = i % 2 == 0 ? 1 : 4;
            options.view_cache = &table;
            results[i] = play_game(spec, graphs[i], make_global_ids(graphs[i]),
                                   options);
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        expect_identical(reference[i], results[i],
                         "graph " + std::to_string(i));
    }
    EXPECT_EQ(table.stats().verdict_mismatches, 0u);
}

TEST(VerdictTableWork, SmallBudgetEvictsClassesButStaysCorrect) {
    // A budget a few classes wide forces eviction between solves; answers
    // must not depend on residency.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const GameSpec spec = coloring_spec(verifier, domain);
    VerdictTable tiny(4096);
    for (const std::size_t n : {9, 11, 9, 10}) {
        const LabeledGraph g = cycle_graph(n, "0");
        const auto id = make_global_ids(g);
        GameOptions off;
        off.memoize_views = false;
        GameOptions on;
        on.view_cache = &tiny;
        expect_identical(play_game(spec, g, id, off), play_game(spec, g, id, on),
                         "C" + std::to_string(n));
    }
    const VerdictTable::Stats stats = tiny.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, 2u * 4096u);
}

// ------------------------------------------------------------ snapshots ----

TEST(VerdictTableSnapshot, RestoreKeepsLiveVerdictsAndSkipsMalformedEntries) {
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable source;
    GameOptions options;
    options.view_cache = &source;
    play_game(coloring_spec(verifier, domain), g, id, options);
    const auto entries = source.export_entries();
    ASSERT_EQ(entries.size(), g.num_nodes());

    // Into a fresh table: everything is admitted, and the copy answers the
    // same game without running the machine.
    VerdictTable copy;
    EXPECT_EQ(copy.restore(entries), entries.size());
    EXPECT_EQ(copy.stats().entries, source.stats().entries);
    options.view_cache = &copy;
    EXPECT_EQ(play_game(coloring_spec(verifier, domain), g, id, options)
                  .stats.local_runs,
              0u);

    // Flipped accept bits against live known entries never overwrite them.
    // (Each entry is one page: u64 configs, u32 page index, then W known
    // words and W accept words; flip the low byte of the first accept word.)
    auto flipped = entries;
    for (auto& [signature, value] : flipped) {
        const std::size_t words = (value.size() - 12) / 16;
        value[12 + 8 * words] = static_cast<char>(value[12 + 8 * words] ^ 0x01);
    }
    EXPECT_EQ(copy.restore(flipped), flipped.size());
    EXPECT_GT(copy.stats().verdict_mismatches, 0u);
    EXPECT_EQ(play_game(coloring_spec(verifier, domain), g, id, options)
                  .accepted,
              false);

    // Truncated values and out-of-range bits are skipped whole.
    VerdictTable strict;
    auto broken = entries;
    broken[0].second.pop_back();
    broken[1].second = std::string(8, '\0');
    EXPECT_EQ(strict.restore(broken), entries.size() - 2);
}

TEST(VerdictTableSnapshot, ServiceTableSectionsRoundTripFailClosed) {
    using namespace service;
    ServiceOptions options;
    options.manual_drain = true;
    options.memoize_results = false; // every call reaches the engine
    const Request game = parse_request(
        "{\"type\":\"game\",\"machine\":\"coloring2\",\"layers\":1,"
        "\"graph\":\"graph 7\\nedge 0 1\\nedge 1 2\\nedge 2 3\\nedge 3 4\\n"
        "edge 4 5\\nedge 5 6\\nedge 6 0\\n\"}",
        1, WireLimits{});

    SnapshotData data;
    {
        ServiceCore core(options);
        ASSERT_EQ(core.call(game).status, "ok");
        data = core.snapshot_data();
    }
    ASSERT_EQ(data.sections.size(), 2u);
    EXPECT_EQ(data.sections[1].name, "table:coloring2");
    EXPECT_FALSE(data.sections[1].entries.empty());

    const std::string bytes = encode_snapshot(data);
    SnapshotData decoded;
    std::string error;
    ASSERT_EQ(decode_snapshot(bytes, &decoded, &error), SnapshotReadResult::Loaded)
        << error;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
        SnapshotData out;
        EXPECT_EQ(decode_snapshot(corrupt, &out, &error),
                  SnapshotReadResult::Rejected)
            << "flip at byte " << i;
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        SnapshotData out;
        EXPECT_EQ(decode_snapshot(bytes.substr(0, len), &out, &error),
                  SnapshotReadResult::Rejected)
            << "truncated to " << len;
    }

    // The restored table answers the game without a single run.
    obs::Session session;
    ServiceOptions warm_options = options;
    warm_options.obs = &session;
    ServiceCore warm(warm_options);
    EXPECT_GT(warm.restore_from(decoded), 0u);
    ASSERT_EQ(warm.call(game).status, "ok");
    EXPECT_EQ(warm.table_stats().misses, 0u);
    EXPECT_GT(warm.table_stats().hits, 0u);

    // A section written by the string-keyed view cache of older writers is
    // ignored, not misread.
    SnapshotData old;
    SnapshotSection views;
    views.name = "view:coloring2";
    views.entries = {{"r3;0|0001|1|2;#", "1"}, {"ballkey", "0"}};
    old.sections.push_back(views);
    ServiceCore cold(options);
    EXPECT_EQ(cold.restore_from(old), 0u);
    EXPECT_EQ(cold.table_stats().classes, 0u);
}

} // namespace
} // namespace lph
