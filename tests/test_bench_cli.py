import pytest

from rdomkernel.bench import CSV_HEADER, format_row, parse_plan, run_bench
from rdomkernel.cli import main
from rdomkernel.graphs import ParseError, load_edge_list

SPIDER_PLAN = """\
# three spider runs
family=spider
legs=3
len=2
r=1
k=3

family=spider
legs=4
len=2
r=1
k=4

family=spider
legs=5
len=2
r=1
k=5
"""


class TestPlanParsing:
    def test_three_blocks(self):
        runs = parse_plan(SPIDER_PLAN)
        assert len(runs) == 3
        assert runs[1] == {"family": "spider", "legs": 4, "len": 2, "r": 1, "k": 4}

    def test_missing_required_key(self):
        with pytest.raises(ParseError):
            parse_plan("family=path\nn=5\nr=1\n")

    def test_bad_line_location(self):
        with pytest.raises(ParseError) as err:
            parse_plan("family=path\nwhat\n")
        assert err.value.line == 2


class TestRunBench:
    def test_spider_plan_rows(self):
        rows = run_bench(parse_plan(SPIDER_PLAN))
        assert len(rows) == 3
        assert [row["family"] for row in rows] == ["spider"] * 3
        assert [row["n"] for row in rows] == [7, 9, 11]
        for row in rows:
            assert row["reject"] == 0
            assert row["witness"] == ""

    def test_rejection_row_shape(self):
        rows = run_bench(parse_plan("family=path\nn=20\nr=1\nk=2\n"))
        row = rows[0]
        assert row["reject"] == 1
        assert row["kernel_n"] == ""
        assert row["witness"] >= 3

    def test_grid_sweep_monotone(self):
        plan = "\n\n".join(f"family=grid\nw={w}\nh={w}\nr=1\nk={w * w}" for w in (4, 6, 8))
        rows = run_bench(parse_plan(plan))
        ns = [row["n"] for row in rows]
        assert ns == sorted(ns) == [16, 36, 64]

    def test_workers_preserve_order(self):
        rows_serial = run_bench(parse_plan(SPIDER_PLAN), workers=1)
        rows_parallel = run_bench(parse_plan(SPIDER_PLAN), workers=2)
        strip = lambda row: {k: v for k, v in row.items() if k != "wall_ms"}
        assert list(map(strip, rows_serial)) == list(map(strip, rows_parallel))

    def test_row_formatting(self):
        row = run_bench(parse_plan(SPIDER_PLAN))[0]
        line = format_row(row)
        assert len(line.split(",")) == len(CSV_HEADER.split(","))


class TestCli:
    def test_gen_and_complexity(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        assert main(["gen", "subset_gadget", "--a", "3", "--out", str(graph_file)]) == 0
        g = load_edge_list(graph_file.read_text())
        assert g.n == 11
        set_file = tmp_path / "a.txt"
        set_file.write_text("0 1 2\n")
        assert main(["complexity", "--graph", str(graph_file), "--r", "1",
                     "--set", str(set_file), "--metric", "nu"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "graph,n,m,a,r,metric,value"
        assert out[1].endswith("nu,8")

    def test_wcol_csv(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.edges"
        graph_file.write_text("0 1\n1 2\n")
        assert main(["wcol", "--graph", str(graph_file), "--r", "2", "--exact"]) == 0
        out = capsys.readouterr().out.splitlines()
        heuristic, exact = map(int, out[1].split(",")[2:])
        assert exact == 2
        assert exact <= heuristic

    def test_solve_line(self, tmp_path, capsys):
        graph_file = tmp_path / "p5.edges"
        graph_file.write_text("0 1\n1 2\n2 3\n3 4\n")
        assert main(["solve", "--graph", str(graph_file), "--r", "1", "--method", "exact"]) == 0
        assert capsys.readouterr().out.strip() == "size=2 valid=true optimal=true"

    def test_kernelize_outputs(self, tmp_path, capsys):
        graph_file = tmp_path / "star.edges"
        graph_file.write_text("\n".join(f"0 {i}" for i in range(1, 31)) + "\n")
        out = tmp_path / "k.edges"
        zout = tmp_path / "k.z"
        stats = tmp_path / "k.csv"
        code = main(["kernelize", "--graph", str(graph_file), "--r", "1", "--k", "1",
                     "--target", "4", "--out", str(out), "--zout", str(zout), "--stats", str(stats)])
        assert code == 0
        kernel = load_edge_list(out.read_text())
        assert kernel.n <= 10
        assert all(0 <= int(tok) < kernel.n for tok in zout.read_text().split())
        header = stats.read_text().splitlines()[0]
        assert header == "stage,z,x,x_cl,classes,s,r_class,removed"

    def test_gadget_round_trip(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.edges"
        graph_file.write_text("0 1\n1 2\n")
        zfile = tmp_path / "z.txt"
        zfile.write_text("0\n")
        assert main(["gadget", "--graph", str(graph_file), "--z", str(zfile),
                     "--r", "1", "--out", "-"]) == 0
        plain = load_edge_list(capsys.readouterr().out)
        assert plain.n == 5

    def test_qw_and_closure(self, tmp_path, capsys):
        graph_file = tmp_path / "star.edges"
        graph_file.write_text("\n".join(f"0 {i}" for i in range(1, 11)) + "\n")
        set_file = tmp_path / "leaves.txt"
        set_file.write_text(" ".join(str(i) for i in range(1, 11)))
        assert main(["qw", "--graph", str(graph_file), "--r", "2",
                     "--set", str(set_file), "--m", "10"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.endswith("1,10,2,1")  # |S|=1, |B|=10, 2 rounds, ok
        assert main(["closure", "--graph", str(graph_file), "--r", "1",
                     "--set", str(set_file), "--t", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[4] == "11"

    def test_bench_csv(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text(SPIDER_PLAN)
        assert main(["bench", "--plan", str(plan)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_pipeline_round_trip(self, tmp_path, capsys):
        # gen -> kernelize -> gadget -> solve: the plain instance built from
        # the kernel needs exactly one more dominator than the annotated one
        graph_file = tmp_path / "star.edges"
        assert main(["gen", "star", "--leaves", "40", "--out", str(graph_file)]) == 0
        out = tmp_path / "k.edges"
        zout = tmp_path / "k.z"
        stats = tmp_path / "k.csv"
        assert main(["kernelize", "--graph", str(graph_file), "--r", "1", "--k", "1",
                     "--target", "4", "--out", str(out), "--zout", str(zout),
                     "--stats", str(stats)]) == 0
        plain = tmp_path / "plain.edges"
        assert main(["gadget", "--graph", str(out), "--z", str(zout),
                     "--r", "1", "--out", str(plain)]) == 0
        capsys.readouterr()
        assert main(["solve", "--graph", str(plain), "--r", "1", "--method", "exact"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "size=2 valid=true optimal=true"  # ds(kernel, Z) = 1, plus one

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["nonsense"]) == 1
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n")
        assert main(["solve", "--graph", str(bad), "--r", "1"]) == 2
        big = tmp_path / "big.edges"
        big.write_text("\n".join(f"{i} {i + 1}" for i in range(70)) + "\n")
        assert main(["solve", "--graph", str(big), "--r", "1", "--method", "exact"]) == 3
        assert main(["wcol", "--graph", str(big), "--r", "1", "--exact"]) == 3

    def test_vertex_cap_stops_oversized_input(self, tmp_path, capsys):
        # each of these would allocate billions of vertices without the cap
        header = tmp_path / "header.edges"
        header.write_text("p 3000000000\n0 1\n")
        far = tmp_path / "far.edges"
        far.write_text("0 3000000000\n")
        for graph_file in (header, far):
            assert main(["solve", "--graph", str(graph_file), "--r", "1"]) == 3
            assert "cap exceeded" in capsys.readouterr().err
        assert main(["gen", "subset_gadget", "--a", "40"]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_verify_reports_skipped_oracle(self, tmp_path, capsys):
        outputs = ["--out", str(tmp_path / "k.edges"), "--zout", str(tmp_path / "k.z"),
                   "--stats", str(tmp_path / "k.csv")]
        small = tmp_path / "small.edges"
        small.write_text("\n".join(f"0 {i}" for i in range(1, 16)) + "\n")
        assert main(["--verify", "kernelize", "--graph", str(small), "--r", "1", "--k", "1",
                     "--target", "3", *outputs]) == 0
        assert "verify:" not in capsys.readouterr().err
        large = tmp_path / "large.edges"
        large.write_text("\n".join(f"0 {i}" for i in range(1, 31)) + "\n")
        assert main(["--verify", "kernelize", "--graph", str(large), "--r", "1", "--k", "1",
                     "--target", "3", *outputs]) == 0
        assert capsys.readouterr().err == "verify: oracle skipped (n=31 > cap 20)\n"
        assert main(["kernelize", "--graph", str(large), "--r", "1", "--k", "1",
                     "--target", "3", *outputs]) == 0
        assert capsys.readouterr().err == ""
