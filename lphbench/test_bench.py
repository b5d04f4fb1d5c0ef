#!/usr/bin/env python3
"""The benchmark's own tests: deterministic generators, the mix's shape, the
patch chains' disjointness, the answer checker, the load client's reply
pairing, lphd failures, and the names the benchmark must never depend on.

    python3 lphbench/test_bench.py

Run from the repository root; the load-client test needs the helper a
benchmark run builds into .bench_build/ and is skipped without it.
"""

import collections
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def repeat_shares(reqs, windows):
    """Share of requests in each [a, b) window whose memo key was already
    asked earlier in the stream (what lphd's memo can serve)."""
    seen = set()
    hit = []
    for r in reqs:
        key = gen.memo_key(r)
        hit.append(key is not None and key in seen)
        if key is not None:
            seen.add(key)
    return [sum(hit[a:b]) / float(b - a) for a, b in windows]


class Determinism(unittest.TestCase):
    def test_same_inputs_give_identical_lines(self):
        self.assertEqual([r.line for r in gen.mix_stream(7, 600)],
                         [r.line for r in gen.mix_stream(7, 600)])
        self.assertEqual([r.line for r in gen.games_stream(7)],
                         [r.line for r in gen.games_stream(7)])
        self.assertEqual([(c, r.line) for c, r in gen.patch_stream(7, 300)],
                         [(c, r.line) for c, r in gen.patch_stream(7, 300)])
        self.assertEqual(gen.poisson_due_us(7, 500, 10),
                         gen.poisson_due_us(7, 500, 10))

    def test_different_seeds_give_different_streams(self):
        self.assertNotEqual([r.line for r in gen.mix_stream(1, 600)],
                            [r.line for r in gen.mix_stream(2, 600)])
        self.assertNotEqual([r.line for r in gen.games_stream(1)],
                            [r.line for r in gen.games_stream(2)])
        self.assertNotEqual([r.line for _, r in gen.patch_stream(1, 300)],
                            [r.line for _, r in gen.patch_stream(2, 300)])

    def test_a_shorter_stream_is_a_prefix(self):
        long = [r.line for r in gen.mix_stream(3, 900)]
        self.assertEqual([r.line for r in gen.mix_stream(3, 400)], long[:400])


class MixShape(unittest.TestCase):
    def test_type_weights_match_lph_client_generate(self):
        reqs = gen.mix_stream(11, 16 * 500)
        types = collections.Counter(json.loads(r.line)["type"] for r in reqs)
        # lph_client --generate: 7/16 game, 3/16 logic, 3/16 decide,
        # 1/16 oracle_check, 1/16 stats, 1/16 health.
        want = {"game": 7, "logic": 3, "decide": 3, "oracle_check": 1,
                "stats": 1, "health": 1}
        for t, sixteenths in want.items():
            self.assertEqual(types[t], 500 * sixteenths, t)

    def test_per_type_choices_are_uniform(self):
        reqs = [json.loads(r.line) for r in gen.mix_stream(12, 16000)]
        games = collections.Counter(o["machine"] for o in reqs
                                    if o["type"] == "game")
        formulas = collections.Counter(o["formula"] for o in reqs
                                       if o["type"] == "logic")
        for counts in (games, formulas):
            mean = sum(counts.values()) / float(len(counts))
            for name, n in counts.items():
                self.assertLess(abs(n - mean), 5 * mean ** 0.5, name)
        self.assertEqual(set(games), set(gen.MIX_MACHINES))
        self.assertEqual(set(formulas), set(gen.MIX_FORMULAS))

    def test_memo_served_share_stays_flat_as_the_stream_grows(self):
        # New graphs stay new for 16 rounds of the 10 pool shapes (a 4-node
        # shape has 16 labelings): 5120 requests, far beyond a run's length.
        for seed in (1, 2, 3):
            reqs = gen.mix_stream(seed, 5000)
            early, late = repeat_shares(reqs, [(500, 1500), (4000, 5000)])
            self.assertLess(abs(early - late), 0.05, (seed, early, late))
            self.assertGreater(early, 0.30)
            self.assertLess(early, 0.45)

    def test_new_graphs_are_new(self):
        fresh = [g.text() for g in gen.fresh_graphs(gen.SplitMix(5), 160)]
        self.assertEqual(len(set(fresh)), len(fresh))


class Games(unittest.TestCase):
    def test_every_request_is_on_its_own_graph(self):
        reqs = gen.games_stream(4)
        graphs = [json.loads(r.line)["graph"] for r in reqs]
        self.assertEqual(len(graphs), len(set(graphs)))

    def test_the_universe_outlasts_three_baseline_runs(self):
        # A faster engine must still meet new games until its time box ends.
        with open(os.path.join(HERE, "baseline.json")) as f:
            base = json.load(f)
        rps = max(s["median"] for s in
                  base["workloads"]["games"]["throughput_rps"]["sets"])
        self.assertGreaterEqual(len(gen.games_stream(1)),
                                3 * rps * base["run_seconds"])

    def test_both_sides_and_both_compile_outcomes_are_covered(self):
        kinds = set((r.params["machine"], r.params["sigma"], r.graph.n)
                    for r in gen.games_stream(4))
        self.assertIn(("coloring2", True, 15), kinds)
        self.assertIn(("coloring3", True, 9), kinds)
        self.assertIn(("implies", True, 12), kinds)
        self.assertIn(("implies", False, 12), kinds)


class PatchChains(unittest.TestCase):
    def test_no_two_chains_ever_hold_the_same_graph(self):
        for seed in (1, 2, 3, 4):
            owner = {}
            for chain, req in gen.patch_stream(seed, 600):
                text = req.graph.text()
                self.assertEqual(owner.setdefault(text, chain), chain,
                                 "seed %d: chains %d and %d share a graph"
                                 % (seed, owner[text], chain))

    def test_chains_follow_echoed_digests_only(self):
        for chain, req in gen.patch_stream(2, 100):
            obj = json.loads(req.line)
            if obj["type"] != "graph_register":
                self.assertEqual(obj["digest"], gen.DIGEST)

    def test_edits_keep_every_queried_graph_connected(self):
        for _, req in gen.patch_stream(3, 400):
            g = req.graph
            adj = g.adjacency()
            seen, todo = {0}, [0]
            while todo:
                for v in adj[todo.pop()]:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            self.assertEqual(len(seen), g.n)


class Checker(unittest.TestCase):
    class Refs:
        def __init__(self, answers):
            self.answers = answers

    def game_req(self):
        g = gen.cycle(4, ["1"] * 4)
        return gen.Req("{}", "game", g, machine="coloring2", layers=1,
                       sigma=True, ids="global")

    def test_a_matching_game_reply_passes_and_any_field_change_fails(self):
        req = self.game_req()
        ref = {"accepted": True, "machine_runs": 6, "faulted_runs": 0,
               "witness": ["0", "1", "0", "1"]}
        refs = self.Refs({gen.ref_job(req): ref})
        body = dict(ref, type="game", status="ok")
        self.assertIsNone(run.check_body(req, body, refs))
        for field, wrong in (("accepted", False), ("machine_runs", 7),
                             ("faulted_runs", 1),
                             ("witness", ["1", "0", "1", "0"])):
            self.assertIsNotNone(run.check_body(req, dict(body, **{field:
                                                                   wrong}),
                                                refs), field)
        no_witness = dict(body)
        del no_witness["witness"]
        self.assertIsNotNone(run.check_body(req, no_witness, refs))

    def test_decide_answers_are_checked_for_validity(self):
        g = gen.cycle(4)
        col = gen.Req("{}", "decide", g, problem="coloring", k=2)
        ham = gen.Req("{}", "decide", g, problem="hamiltonian", k=2)
        refs = self.Refs({gen.ref_job(col): {"answer": True},
                          gen.ref_job(ham): {"answer": True}})
        ok = {"answer": True, "colors": [0, 1, 0, 1]}
        self.assertIsNone(run.check_body(col, ok, refs))
        self.assertIsNotNone(run.check_body(
            col, {"answer": True, "colors": [0, 0, 1, 1]}, refs))
        self.assertIsNone(run.check_body(
            ham, {"answer": True, "cycle": [2, 3, 0, 1]}, refs))
        self.assertIsNotNone(run.check_body(
            ham, {"answer": True, "cycle": [0, 2, 1, 3]}, refs))

    def test_a_reply_naming_another_request_fails(self):
        def rec(index, status, reply_id):
            r = [0] * len(run.RECORD.format[1:])
            r[run.IDX], r[run.STATUS], r[run.REPLY_ID] = index, status, \
                reply_id
            return tuple(r)

        honest = types.SimpleNamespace(records=[
            rec(0, run.OK, 0), rec(1, 1, run.NO_REPLY_ID),
            rec(2, run.UNANSWERED, run.NO_REPLY_ID)])
        problems = []
        run.check_reply_ids(honest, problems)
        self.assertEqual(problems, [])
        for bad in ([rec(0, run.OK, 1), rec(1, run.OK, 0)],
                    [rec(0, run.OK, run.NO_REPLY_ID)]):
            problems = []
            run.check_reply_ids(types.SimpleNamespace(records=bad), problems)
            self.assertEqual(len(problems), len(bad))

    def test_all_selected_is_read_off_the_labels(self):
        req = gen.Req("{}", "logic", gen.path(4, ["1", "1", "0", "1"]),
                      formula="all_selected", fseed=0)
        refs = self.Refs({})
        self.assertIsNone(run.check_body(req, {"satisfied": False}, refs))
        self.assertIsNotNone(run.check_body(req, {"satisfied": True}, refs))


class FakeLphd:
    """Answers every line with {"id":<its id>,"status":"ok","type":"stats"}
    on the 4 connections the load client opens; with `swap`, each
    connection's first two replies go out in swapped order."""

    def __init__(self, swap):
        self.swap = swap
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.threads = [threading.Thread(target=self.accept)]
        self.threads[0].start()

    def accept(self):
        for _ in range(4):
            conn, _ = self.listener.accept()
            t = threading.Thread(target=self.serve, args=(conn,))
            self.threads.append(t)
            t.start()

    def serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            held = None
            for line in lines:
                reply = b'{"id":%d,"status":"ok","type":"stats"}\n' % \
                    json.loads(line)["id"]
                if self.swap and held is None:
                    held = reply
                    continue
                conn.sendall(reply + (held or b""))
                held = b""

    def close(self):
        for t in self.threads:
            t.join(30)
        self.listener.close()


@unittest.skipUnless(os.path.exists(os.path.join(run.BUILD, "lphbench_helper")),
                     "the helper is built by the first benchmark run")
class LoadClient(unittest.TestCase):
    def pipelined_pass(self, swap):
        """8 stats requests, 2 per pipelined connection, against FakeLphd;
        returns what check_reply_ids reports."""
        workdir = os.path.join(run.BUILD, "test-load-%d" % os.getpid())
        os.makedirs(workdir, exist_ok=True)
        fake = FakeLphd(swap)
        try:
            server = types.SimpleNamespace(
                port=fake.port, proc=types.SimpleNamespace(pid=os.getpid()),
                lines_sent=0)
            lines = [gen.render({"type": "stats", "id": i}) for i in range(8)]
            ps = run.run_load(os.path.join(run.BUILD, "lphbench_helper"),
                              server, workdir, "t", lines, "open",
                              due=[i * 1000 for i in range(8)])
        finally:
            fake.close()
            shutil.rmtree(workdir)
        self.assertEqual(sorted(r[run.IDX] for r in ps.records), list(range(8)))
        problems = []
        run.check_reply_ids(ps, problems)
        return problems

    def test_in_order_replies_pass(self):
        self.assertEqual(self.pipelined_pass(swap=False), [])

    def test_swapped_replies_fail_the_run(self):
        problems = self.pipelined_pass(swap=True)
        self.assertEqual(len(problems), 8, problems)
        self.assertIn("reply out of order", problems[0])


class LphdFailures(unittest.TestCase):
    def server(self, code):
        """A Server whose process runs `code` instead of lphd."""
        srv = run.Server.__new__(run.Server)
        srv.proc = subprocess.Popen([sys.executable, "-c", code],
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
        srv.log = ""
        srv.metrics_path = os.devnull
        return srv

    def test_a_crash_before_sigterm_is_a_failed_run(self):
        srv = self.server("import os, signal, sys; sys.stderr.write('boom\\n');"
                          " sys.stderr.flush(); os.kill(os.getpid(), "
                          "signal.SIGSEGV)")
        srv.proc.wait()
        self.assertTrue(math.isnan(srv.peak_rss_mb()))
        problems = []
        self.assertIsNone(srv.stop(problems))
        self.assertEqual(len(problems), 1)
        self.assertIn("exited before SIGTERM", problems[0])
        self.assertIn("boom", problems[0])

    def test_a_nonzero_exit_on_sigterm_is_a_failed_run(self):
        srv = self.server("import signal, sys, time; signal.signal("
                          "signal.SIGTERM, lambda *_: sys.exit(3)); "
                          "print('up', file=sys.stderr, flush=True); "
                          "time.sleep(60)")
        srv.proc.stderr.readline()  # the handler is installed
        problems = []
        self.assertIsNone(srv.stop(problems))
        self.assertIn("exited on SIGTERM with code 3", problems[0])


class SurvivesPlannedDeletions(unittest.TestCase):
    # Spelled in pieces so this file does not contain them either.
    FORBIDDEN = ["Game" + "Backend", "compile_" + "cost_ratio",
                 "Compiled" + "Limits", "Service" + "Stats",
                 "ResultMemo" + "Stats", "ViewCache" + "Stats",
                 "Game" + "Stats", "timing." + "backend"]

    def test_sources_never_name_what_the_roadmap_deletes(self):
        for name in sorted(os.listdir(HERE)):
            path = os.path.join(HERE, name)
            if not os.path.isfile(path) or name.endswith((".pyc", ".json")):
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for word in self.FORBIDDEN:
                self.assertNotIn(word, text, "%s names %s" % (name, word))

    def test_requests_never_choose_a_backend(self):
        lines = [r.line for r in gen.mix_stream(1, 2000)]
        lines += [r.line for r in gen.games_stream(1)]
        lines += [r.line for _, r in gen.patch_stream(1, 500)]
        for line in lines:
            self.assertNotIn("backend", json.loads(line))


if __name__ == "__main__":
    unittest.main()
