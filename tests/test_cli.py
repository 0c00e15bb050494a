import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbspan
from sbspan import parse, serialize
from sbspan.cli import main
from fixtures import (
    BBOWTIE, BK4, BOWTIE, C4, CHAIN4, DIAMOND, OCT8, bidirected, ladder_pairs,
)


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize(g))
    return str(path)


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestGen:
    def test_n4_forced(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--n", "4", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "4 12"
        g = parse(out.read_text())
        assert g.edge_set == BK4.edge_set

    def test_n10_roundtrip(self, tmp_path):
        out = tmp_path / "g10.txt"
        assert main(["gen", "--n", "10", "--seed", "1", "--out", str(out)]) == 0
        g = parse(out.read_text())
        assert g.n == 10 and g.m >= 30

    def test_n3_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--n", "3", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "n must be >= 4" in err

    def test_outsized_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen", "--n", "1000000000", "--seed", "1", "--out", str(out)])
        assert rc != 0
        assert "n must be >= 4 and <= 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.txt"
        assert main(["gen", "--n", "4", "--seed", "1", "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_unwritable_out_through_entry_point(self, tmp_path):
        # the real entry point: no traceback escapes past main
        src = str(Path(sbspan.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "sbspan.cli", "gen", "--n", "4", "--seed", "1",
             "--out", str(tmp_path / "missing" / "g.txt")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert_one_error_line(proc.stderr)


class TestRun:
    def test_alg2_on_oct8(self, tmp_path, capsys):
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        assert main(["run", "--alg", "alg2", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "alg2:" in out and "edges_out=8" in out and "feasible=true" in out

    def test_all_csv(self, tmp_path, capsys):
        gpath = str(tmp_path / "g10.txt")
        main(["gen", "--n", "10", "--seed", "1", "--out", gpath])
        capsys.readouterr()
        assert main(["run", "--alg", "all", "--in", gpath, "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,m,alg,elapsed_ms,edges_out,feasible"
        assert len(lines) == 4
        assert [ln.split(",")[2] for ln in lines[1:]] == ["alg2", "alg3", "alg1"]
        for ln in lines[1:]:
            n, m, alg, ms, edges_out, feasible = ln.split(",")
            assert int(edges_out) < 30
            assert feasible == "true"

    def test_infeasible_input(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c4.txt", C4)
        assert main(["run", "--alg", "alg1", "--in", path]) != 0
        assert "not 2-vertex strongly biconnected" in capsys.readouterr().err

    def test_out_files(self, tmp_path):
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        out = tmp_path / "sub.txt"
        assert main(["run", "--alg", "alg2", "--in", path,
                     "--out", str(out)]) == 0
        assert parse(out.read_text()) == OCT8

    def test_out_files_multiple_algs(self, tmp_path):
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        out = tmp_path / "sub.txt"
        assert main(["run", "--alg", "all", "--in", path, "--out", str(out)]) == 0
        for alg in ("alg1", "alg2", "alg3"):
            assert parse((tmp_path / f"sub.{alg}.txt").read_text()) == OCT8

    def test_unknown_alg(self, tmp_path, capsys):
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        assert main(["run", "--alg", "alg9", "--in", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "unknown algorithm" in err

    def test_parse_error_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 5\n0 1\n")
        assert main(["run", "--alg", "alg2", "--in", str(bad)]) != 0
        assert "edge count mismatch" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        out = tmp_path / "missing" / "sub.txt"
        assert main(["run", "--alg", "alg2", "--in", path, "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_unwritable_out_fails_before_solving(self, tmp_path, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the outputs were opened")

        monkeypatch.setattr(sbspan.cli, "_solve", solve)
        path = write_graph(tmp_path, "oct8.txt", OCT8)
        out = tmp_path / "missing" / "sub.txt"
        assert main(["run", "--alg", "all", "--in", path, "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err)


class TestCheck:
    def test_outsized_header(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n")
        assert main(["check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "vertex count" in captured.err
        assert captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--in", str(tmp_path / "missing.txt")]) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_non_utf8_byte(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"4 4\n0 1\n1 2\n2 3\n3 \xff0\n")
        assert main(["check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert str(path) in captured.err and "0xff" in captured.err
        assert captured.out == ""

    def test_long_number(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text("4 1\n0 " + "7" * 5000 + "\n")
        assert main(["check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert "line 2" in captured.err and "5000-digit" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["4 1\n0 " + "9" * 100_000 + "x\n",
                                      "0 " + "0" * 100_000 + "\n"],
                             ids=["edge", "header"])
    def test_long_malformed_line_is_cut(self, tmp_path, capsys, text):
        path = tmp_path / "long.txt"
        path.write_text(text)
        assert main(["check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert len(captured.err) < 120, len(captured.err)
        assert captured.out == ""

    def test_non_2vc_work_does_not_grow(self, tmp_path, capsys, monkeypatch):
        """The bidirected squared cycle without (1, 0), (2, 0) and (n-1, 0),
        and without every edge into 0: as many lowpoint DFSs and
        reachability searches at n = 400 as at n = 200."""
        from sbspan import build, connectivity

        calls = {}
        for name in ("_palm_tree", "_reached"):
            def counted(*args, _name=name, _fn=getattr(connectivity, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(connectivity, name, counted)
        counts = []
        for n in (200, 400):
            sq = bidirected(n, ladder_pairs("squared", n))
            for drop, baps in (({(1, 0), (2, 0), (n - 1, 0)}, str(n - 2)),
                               ({(v, 0) for v in range(n)},
                                " ".join(map(str, range(1, n))))):
                calls.update(_palm_tree=0, _reached=0)
                path = write_graph(tmp_path, "g.txt", build(
                    n, [e for e in sq.edges if e not in drop]))
                assert main(["check", "--in", path]) == 0
                assert f"b_articulation_points: {baps}\n" in capsys.readouterr().out
                counts.append(dict(calls))
        assert counts[:2] == counts[2:], counts

    def test_builds_each_structure_once(self, tmp_path, capsys, monkeypatch):
        from sbspan import GenConfig, connectivity, dominators, generate

        path = write_graph(tmp_path, "g.txt", generate(GenConfig(n=60, seed=1)))
        calls = dict.fromkeys(["dominator_tree", "_three_connected",
                               "_und_adj", "_reached"], 0)
        for module, name in ((dominators, "dominator_tree"),
                             (connectivity, "_three_connected"),
                             (connectivity, "_und_adj"),
                             (connectivity, "_reached")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["check", "--in", path]) == 0
        assert "2v_strongly_biconnected: true" in capsys.readouterr().out
        assert calls == {"dominator_tree": 2, "_three_connected": 1,
                         "_und_adj": 1, "_reached": 2}

    def test_bbowtie_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bbowtie.txt", BBOWTIE)
        assert main(["check", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "strongly_connected: true" in out
        assert "strongly_biconnected: false" in out
        assert "strong_articulation_points: 0" in out
        assert "b_articulation_points: 0 1 2 3 4" in out

    def test_sap_na_when_not_strongly_connected(self, tmp_path, capsys):
        from fixtures import CHAIN4

        path = write_graph(tmp_path, "chain.txt", CHAIN4)
        assert main(["check", "--in", path]) == 0
        assert "strong_articulation_points: n/a" in capsys.readouterr().out

    def test_subgraph_minimal(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "bk4.txt", BK4)
        spath = write_graph(tmp_path, "oct8.txt", OCT8)
        assert main(["check", "--in", gpath, "--subgraph", spath,
                     "--minimal"]) == 0
        out = capsys.readouterr().out
        assert "subgraph_subset: pass" in out
        assert "subgraph_spanning: pass" in out
        assert "subgraph_feasible: true" in out
        assert "subgraph_minimal: pass" in out

    def test_subgraph_not_minimal(self, tmp_path, capsys):
        # BK4 is feasible, and alg2 deletes 3 of its 12 edges
        path = write_graph(tmp_path, "bk4.txt", BK4)
        assert main(["check", "--in", path, "--subgraph", path,
                     "--minimal"]) == 1
        out = capsys.readouterr().out
        assert "subgraph_feasible: true" in out
        assert "subgraph_minimal: fail" in out

    def test_infeasible_subgraph_is_vacuously_minimal(self, tmp_path, capsys):
        from sbspan import GenConfig, algorithm2, build, generate

        g = generate(GenConfig(n=10, seed=1))
        h = algorithm2(g).subgraph
        gpath = write_graph(tmp_path, "g.txt", g)
        spath = write_graph(tmp_path, "sub.txt", build(h.n, h.edges[1:]))
        assert main(["check", "--in", gpath, "--subgraph", spath,
                     "--minimal"]) == 1
        out = capsys.readouterr().out
        assert "subgraph_feasible: false" in out
        assert "subgraph_minimal: pass" in out

    def test_minimal_without_subgraph_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bk4.txt", BK4)
        assert main(["check", "--in", path, "--minimal"]) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--subgraph" in captured.err
        assert captured.out == ""

    def test_subgraph_not_subset(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "oct8.txt", OCT8)
        spath = write_graph(tmp_path, "bk4.txt", BK4)
        assert main(["check", "--in", gpath, "--subgraph", spath]) != 0
        assert "subgraph_subset: fail" in capsys.readouterr().out

    def test_subgraph_not_spanning(self, tmp_path, capsys):
        from sbspan import build

        gpath = write_graph(tmp_path, "c4.txt", C4)
        spath = write_graph(tmp_path, "empty5.txt", build(5, []))
        assert main(["check", "--in", gpath, "--subgraph", spath]) == 1
        out = capsys.readouterr().out
        assert "subgraph_subset: pass" in out
        assert "subgraph_spanning: fail" in out

    def test_exact(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bk4.txt", BK4)
        assert main(["check", "--in", path, "--exact"]) == 0
        assert "exact_minimum: 8" in capsys.readouterr().out

    def test_exact_guard(self, tmp_path, capsys):
        from sbspan import build

        big = build(6, [(u, v) for u in range(6) for v in range(6) if u != v])
        path = write_graph(tmp_path, "big.txt", big)
        assert main(["check", "--in", path, "--exact"]) != 0
        assert "m <= 24" in capsys.readouterr().err


def _expected_verdicts(g):
    """``_analysis(g)`` from the public predicates and the definition-level
    references."""
    from sbspan import (
        is_2v_strongly_biconnected, is_2vertex_connected,
        is_strongly_biconnected, is_strongly_connected,
    )
    from sbspan.connectivity import strong_articulation_points_bruteforce
    from sbspan.graph import delete_vertex

    sc = is_strongly_connected(g)
    return {
        "strongly_connected": sc,
        "strongly_biconnected": is_strongly_biconnected(g),
        "2vertex_connected": is_2vertex_connected(g),
        "2v_strongly_biconnected": is_2v_strongly_biconnected(g),
        "strong_articulation_points": (
            strong_articulation_points_bruteforce(g) if g.n >= 3 and sc else None),
        "b_articulation_points": {
            v for v in range(g.n)
            if not is_strongly_biconnected(delete_vertex(g, v)[0])
        } if g.n >= 2 else None,
    }


def _check_lines(g, verdicts):
    """What ``check`` prints for g with these verdicts."""
    reasons = {"strong_articulation_points": "requires strongly connected, n >= 3",
               "b_articulation_points": "requires n >= 2"}
    lines = [f"n={g.n} m={g.m}"]
    for label, value in verdicts.items():
        if isinstance(value, bool):
            text = str(value).lower()
        elif value is None:
            text = f"n/a ({reasons[label]})"
        else:
            text = " ".join(map(str, sorted(value))) or "none"
        lines.append(f"{label}: {text}")
    return "\n".join(lines) + "\n"


def _check_samples():
    """Random digraphs at n = 2..12 and every density, the fixtures, the
    ladders, and graphs that are 2VC but not 2VSB or not 2VC at all."""
    import random

    from sbspan import GenConfig, build, generate, minimal_2vcss

    rnd = random.Random(21)
    for n in range(2, 13):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for m in range(0, len(pairs) + 1, max(1, len(pairs) // 12)):
            for _ in range(3):
                yield build(n, rnd.sample(pairs, m))
    yield from (build(1, []), C4, BK4, OCT8, BOWTIE, BBOWTIE, DIAMOND, CHAIN4)
    for n in range(6, 13):
        for kind in ("prism", "moebius", "squared"):
            if kind == "squared" or n % 2 == 0:
                yield bidirected(n, ladder_pairs(kind, n))
        # the squared cycle without three edges into 0: not 2VC; without
        # every edge into 0, into 0 and n // 2, or out of 0: not strongly
        # connected, with one source, two sources, or one sink
        sq = bidirected(n, ladder_pairs("squared", n))
        yield build(n, [e for e in sq.edges
                        if e not in ((1, 0), (2, 0), (n - 1, 0))])
        yield build(n, [e for e in sq.edges if e[1] != 0])
        yield build(n, [e for e in sq.edges if e[1] not in (0, n // 2)])
        yield build(n, [e for e in sq.edges if e[0] != 0])
        # a source into two bidirected paths joined by one edge: deleting
        # the source leaves a graph that is not strongly connected either
        k = n // 2
        yield build(n, [(0, 1), (k - 1, k)] + list(bidirected(n, [
            (i, i + 1) for i in range(1, n - 1) if i != k - 1]).edges))
        # an isolated vertex beside a bidirected cycle
        yield bidirected(n, [(i, i % (n - 1) + 1) for i in range(1, n)])
    # every graph on 3 vertices, most of them not strongly connected
    pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
    for mask in range(1 << len(pairs)):
        yield build(3, [e for i, e in enumerate(pairs) if mask >> i & 1])
    # the bidirected triangle and algorithm 1's first phases: 2VC, and
    # often not 2VSB
    yield bidirected(3, [(0, 1), (1, 2), (2, 0)])
    for n in range(5, 13):
        for seed in range(5):
            yield minimal_2vcss(generate(GenConfig(n=n, seed=seed)))


class TestCheckVerdicts:
    """``check``'s six lines, read from ``_analysis``, against the public
    predicates and the definition-level references."""

    def test_matches_predicates(self, tmp_path, capsys):
        from sbspan.connectivity import _analysis

        kinds = set()
        for i, g in enumerate(_check_samples()):
            expect = _expected_verdicts(g)
            assert _analysis(g) == expect, serialize(g)
            kinds.add(tuple(expect.values())[:4])
            path = write_graph(tmp_path, f"g{i}.txt", g)
            assert main(["check", "--in", path]) == 0
            assert capsys.readouterr().out == _check_lines(g, expect), serialize(g)
        # every reachable combination of the four boolean verdicts
        assert kinds == {(False, False, False, False), (True, False, False, False),
                         (True, True, False, False), (True, True, True, False),
                         (True, True, True, True)}


class TestBench:
    def test_n10_all_algorithms(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "10", "--seeds", "1",
                   "--algs", "alg1,alg2,alg3", "--csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| Input (V, E) |" in out
        assert "Algorithm2 Time" in out and "Algorithm1 Edges" in out
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,m,alg,elapsed_ms,edges_out,feasible"
        assert len(lines) == 4
        for ln in lines[1:]:
            n, m, alg, ms, edges_out, feasible = ln.split(",")
            assert n == "10" and feasible == "true"
            assert 20 <= int(edges_out) < 30

    def test_one_table_row_per_instance(self, tmp_path, capsys):
        # n=4 gives m=12 for every seed: rows must not merge on (n, m)
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "4", "--seeds", "1,2",
                     "--algs", "alg2,alg1", "--csv", str(csv)]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("| (")]
        csv_rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:]]
        assert len(rows) == 2 and len(csv_rows) == 4
        # each row is read from the same records as the CSV lines
        for row, a, b in zip(rows, csv_rows[::2], csv_rows[1::2]):
            cells = [c.strip() for c in row.strip("|").split("|")]
            assert cells == ["(4, 12)", f"{a[3]} ms", a[4], f"{b[3]} ms", b[4]]

    def test_csv_deterministic_except_elapsed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            main(["bench", "--sizes", "10", "--seeds", "1,2",
                  "--algs", "alg2,alg3", "--csv", str(path)])

        def strip_elapsed(text):
            rows = [ln.split(",") for ln in text.strip().splitlines()]
            return [r[:3] + r[4:] for r in rows]

        assert strip_elapsed(a.read_text()) == strip_elapsed(b.read_text())

    def test_json_records(self, tmp_path, monkeypatch):
        import json

        # verify_s, gen_s and parse_s are the least of --reps runs, like
        # elapsed_s
        calls = {"generate": 0, "parse": 0, "is_2v_strongly_biconnected": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(sbspan.cli, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(sbspan.cli, name, counted)
        csv, out = tmp_path / "bench.csv", tmp_path / "bench.json"
        rc = main(["bench", "--sizes", "10,12", "--seeds", "1", "--reps", "2",
                   "--algs", "alg1,alg3", "--csv", str(csv), "--json", str(out)])
        assert rc == 0
        # two generations and parses per instance, two verifications per
        # record
        assert calls == {"generate": 2 * 2, "parse": 2 * 2,
                         "is_2v_strongly_biconnected": 2 * 4}
        doc = json.loads(out.read_text())
        assert doc["reps"] == 2 and doc["cpu_count"] >= 1
        assert doc["platform"] and doc["python_version"]
        rows = csv.read_text().strip().splitlines()[1:]
        records = doc["records"]
        assert [(r["n"], r["seed"], r["alg"]) for r in records] == [
            (10, 1, "alg3"), (10, 1, "alg1"), (12, 1, "alg3"), (12, 1, "alg1")]
        for r, row in zip(records, rows):
            n, m, alg, _, edges_out, _ = row.split(",")
            assert (r["n"], r["m"], r["alg"], r["edges_out"]) == (
                int(n), int(m), alg, int(edges_out))
            assert r["elapsed_s"] >= 0 and r["verify_s"] >= 0 and r["feasible"]
            assert r["gen_s"] >= 0 and r["parse_s"] >= 0

    def test_json_only_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--algs", "alg2",
                   "--json", "out.json"])
        assert rc == 0
        # no bench.csv, nor any other file, beside the one asked for
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert "wrote out.json" in capsys.readouterr().err

    def test_empty_algs_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--algs", " ",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_reps(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--reps", "0",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("sizes, message", [
        (",", "no sizes given"), ("5,x", "invalid sizes list")])
    def test_bad_sizes_list(self, tmp_path, capsys, sizes, message):
        rc = main(["bench", "--sizes", sizes, "--seeds", "1",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    def test_outsized_size_rejected(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        rc = main(["bench", "--sizes", "4,1000000000", "--seeds", "1",
                   "--csv", str(csv)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "bench:" not in captured.err
        assert captured.out == "" and not csv.exists()

    @pytest.mark.parametrize("bad", ["--csv", "--json"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, bad):
        paths = {"--csv": str(tmp_path / "bench.csv"),
                 "--json": str(tmp_path / "bench.json")}
        paths[bad] = str(tmp_path / "missing" / "out")
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--algs", "alg2",
                   "--csv", paths["--csv"], "--json", paths["--json"]])
        assert rc == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert captured.out == ""

    def test_selected_subset_only(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "10", "--seeds", "1",
                   "--algs", "alg1", "--csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Algorithm1 Time" in out
        assert "Algorithm2" not in out
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "alg1"


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
