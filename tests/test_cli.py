import pytest

from sbspan import parse, serialize
from sbspan.cli import main
from fixtures import BBOWTIE, BK4, C4, OCT8


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize(g))
    return str(path)


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
        assert rc != 0
        assert "n must be >= 4" in capsys.readouterr().err

    def test_outsized_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen", "--n", "1000000000", "--seed", "1", "--out", str(out)])
        assert rc != 0
        assert "n must be >= 4 and <= 100000" in capsys.readouterr().err
        assert not out.exists()


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
        assert main(["run", "--alg", "alg9", "--in", path]) != 0
        assert "unknown algorithm" in capsys.readouterr().err

    def test_parse_error_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 5\n0 1\n")
        assert main(["run", "--alg", "alg2", "--in", str(bad)]) != 0
        assert "edge count mismatch" in capsys.readouterr().err


class TestCheck:
    def test_outsized_header(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n")
        assert main(["check", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "vertex count" in captured.err
        assert captured.out == ""

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

    def test_json_records(self, tmp_path):
        import json

        csv, out = tmp_path / "bench.csv", tmp_path / "bench.json"
        rc = main(["bench", "--sizes", "10,12", "--seeds", "1", "--reps", "2",
                   "--algs", "alg1,alg3", "--csv", str(csv), "--json", str(out)])
        assert rc == 0
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

    def test_empty_algs_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--algs", " ",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_reps(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "10", "--seeds", "1", "--reps", "0",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_outsized_size_rejected(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        rc = main(["bench", "--sizes", "4,1000000000", "--seeds", "1",
                   "--csv", str(csv)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "bench:" not in captured.err
        assert captured.out == "" and not csv.exists()

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
