import pytest

from rdomkernel.bench import CSV_HEADER, format_row, parse_plan, run_bench
from rdomkernel.cli import main
from rdomkernel.graphs import ParseError, bfs_within, load_edge_list
from rdomkernel.profiles import SetFamily, vc_dimension

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

    def test_unknown_keys_are_errors(self):
        # a typo, a removed knob, and a generator key of another family
        for key in ("targte", "t", "gen.r"):
            with pytest.raises(ParseError) as err:
                parse_plan(f"family=path\nn=5\nr=1\nk=2\n\nfamily=path\nn=5\n{key}=0\nr=1\nk=2\n")
            assert err.value.line == 6
            assert repr(key) in str(err.value)

    def test_missing_family_parameter_is_an_error(self):
        plans = (
            ("family=spider\nlegs=3\nlen=2\nr=1\nk=3\n\nfamily=path\nr=1\nk=1\n", 7, "n"),
            # an unprefixed r is the radius knob, not subdivision's depth
            ("family=subdivision\nn=4\nr=1\nk=2\n", 1, "r"),
        )
        for text, line, name in plans:
            with pytest.raises(ParseError) as err:
                parse_plan(text)
            assert err.value.line == line
            assert f"needs parameter {name!r}" in str(err.value)

    def test_unknown_family_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_plan("family=nosuch\nn=5\nr=1\nk=2\n")
        assert err.value.line == 1


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

    def test_vc_matches_per_vertex_traces(self, tmp_path, capsys):
        graph_file = tmp_path / "g.edges"
        set_file = tmp_path / "a.txt"
        specs = (
            ["subset_gadget", "--a", "4"],
            ["grid", "--w", "6", "--h", "5"],
            ["random_bounded_degree", "--n", "40", "--d", "3"],
            ["random_tree", "--n", "40"],
        )
        for spec in specs:
            assert main(["gen", *spec, "--out", str(graph_file)]) == 0
            g = load_edge_list(graph_file.read_text())
            a = set(range(0, g.n, 3))
            set_file.write_text(" ".join(map(str, sorted(a))))
            for r in (1, 2):
                index = {v: i for i, v in enumerate(sorted(a))}
                traces = {frozenset(index[x] for x in a & bfs_within(g, v, r).keys()) for v in range(g.n)}
                expected = vc_dimension(SetFamily.from_sets(len(a), traces), cap=8)
                assert main(["complexity", "--graph", str(graph_file), "--r", str(r),
                             "--set", str(set_file), "--metric", "vc"]) == 0
                out = capsys.readouterr().out.splitlines()
                assert out[1].endswith(f",vc,{expected}"), (spec, r)

    def test_negative_vc_cap_is_an_input_error(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.edges"
        graph_file.write_text("0 1\n1 2\n")
        set_file = tmp_path / "a.txt"
        set_file.write_text("0 2\n")
        argv = ["complexity", "--graph", str(graph_file), "--r", "1", "--set", str(set_file), "--metric", "vc"]
        assert main([*argv, "--vc-cap", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vc_dimension search cap" in captured.err
        assert main([*argv, "--vc-cap", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",vc,1")

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

    def test_unknown_plan_key_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        for key in ("targte", "t"):
            plan.write_text(f"family=star\nleaves=40\nr=1\nk=1\n{key}=0\n")
            assert main(["bench", "--plan", str(plan)]) == 2
            assert f"line 1: unknown key {key!r}" in capsys.readouterr().err

    def test_missing_parameter_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr("rdomkernel.bench.run_one", ran.append)
        plan = tmp_path / "plan.txt"
        plan.write_text("family=grid\nw=30\nh=30\nr=2\nk=900\ntarget=0\n\nfamily=path\nr=1\nk=1\n")
        assert main(["bench", "--plan", str(plan)]) == 2
        assert ran == []
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 8: family 'path' needs parameter 'n'" in out.err

    def test_removed_options_exit_1(self, tmp_path, capsys):
        graph_file = tmp_path / "star.edges"
        graph_file.write_text("\n".join(f"0 {i}" for i in range(1, 11)) + "\n")
        plan = tmp_path / "plan.txt"
        plan.write_text(SPIDER_PLAN)
        # without prefix matching --t is not taken for --target
        assert main(["kernelize", "--graph", str(graph_file), "--r", "1", "--k", "1", "--t", "5",
                     "--out", str(tmp_path / "k.edges"), "--zout", str(tmp_path / "k.z"),
                     "--stats", str(tmp_path / "k.csv")]) == 1
        assert main(["--workers", "2", "bench", "--plan", str(plan)]) == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "k.edges").exists()

    def test_gen_prefix_reaches_the_generator(self, tmp_path, capsys):
        # r is both the radius knob and subdivision's depth
        plan = tmp_path / "plan.txt"
        plan.write_text("family=subdivision\nn=4\ngen.r=1\nr=1\nk=2\n")
        assert main(["bench", "--plan", str(plan)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("subdivision,10,12,1,2,")

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

    def test_non_decimal_ids_and_invalid_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        for data, message in (
            (b"p 11\n0 1_0\n", "line 2: non-integer vertex id in '0 1_0'"),
            (b"0 1\n0 +2\n", "line 2: non-integer vertex id in '0 +2'"),
            (b"p 3\n0 1\n1 \xff\n", "line 3: invalid UTF-8 byte 0xff"),
        ):
            bad.write_bytes(data)
            assert main(["solve", "--graph", str(bad), "--r", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n"
        # vertex sets, random: specs and plan values follow the same rule
        grid = tmp_path / "grid.edges"
        assert main(["gen", "grid", "--w", "5", "--h", "5", "--out", str(grid)]) == 0
        vertices = tmp_path / "set.txt"
        vertices.write_text("3 1_0\n")
        plan = tmp_path / "plan.txt"
        plan.write_text("family=path\nn=1_0\nr=1\nk=2\n")
        for argv, message in (
            (["qw", "--graph", str(grid), "--r", "1", "--set", str(vertices), "--m", "2"],
             f"non-integer vertex id in {vertices}"),
            (["complexity", "--graph", str(grid), "--r", "1", "--set", "random:1_0:\u0663", "--metric", "nu"],
             "non-integer field in 'random:1_0:\u0663'"),
            (["closure", "--graph", str(grid), "--r", "1", "--set", "random:\u0663"],
             "non-integer field in 'random:\u0663'"),
            (["bench", "--plan", str(plan)], "line 2: value for 'n' must be an integer, got '1_0'"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n"
        with pytest.raises(ParseError, match="value for 'k' must be an integer, got '\u0663'"):
            parse_plan("family=path\nn=5\nr=1\nk=\u0663\n")

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.edges"
        assert main(["gen", "grid", "--w", "3", "--h", "3", "--out", str(grid)]) == 0
        missing = tmp_path / "missing" / "x"
        assert main(["gen", "path", "--n", "5", "--out", str(missing)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: cannot write {missing}: ")
        for option in ("--out", "--zout", "--stats"):
            argv = ["kernelize", "--graph", str(grid), "--r", "1", "--k", "9", "--target", "0"]
            argv += [flag + "=" + str(tmp_path / flag.strip("-")) for flag in ("--out", "--zout", "--stats")]
            argv.append(f"{option}={missing}")
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"input error: cannot write {missing}: ")

    def test_bad_radius_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.edges"
        assert main(["gen", "grid", "--w", "5", "--h", "5", "--out", str(grid)]) == 0
        for argv, message in (
            (["wcol", "--r", "-1"], "radius must be non-negative, got -1"),
            (["wcol", "--r", "-1", "--exact"], "radius must be non-negative, got -1"),
            (["qw", "--r", "-1", "--set", "random:10:1", "--m", "2"], "radius must be non-negative, got -1"),
            (["complexity", "--r", "-1", "--set", "random:10:1", "--metric", "mu"], "radius must be non-negative, got -1"),
            (["closure", "--r", "-1", "--set", "random:10:1"], "radius must be non-negative, got -1"),
            (["gadget", "--r", "0", "--z", "all"], "gadget radius must be at least 1, got 0"),
            (["gadget", "--r", "-1", "--z", "all"], "gadget radius must be at least 1, got -1"),
        ):
            assert main([argv[0], "--graph", str(grid), *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n"

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

    def test_vertex_cap_stops_oversized_generators(self, capsys):
        # each spec is refused from its parameters, before any edge is built
        for argv in (
            ["gen", "path", "--n", "3000000000"],
            ["gen", "grid", "--w", "100000", "--h", "100000"],
            ["gen", "subdivision", "--n", "100000", "--r", "1"],
        ):
            assert main(argv) == 3
            assert "cap exceeded" in capsys.readouterr().err

    def test_edge_cap_stops_oversized_generators(self, capsys):
        # each spec fits the vertex cap but would build billions of edges or stubs
        for argv in (
            ["gen", "subdivision", "--n", "100000", "--r", "0"],
            ["gen", "subdivision", "--n", "100000", "--r", "-1"],
            ["gen", "random_bounded_degree", "--n", "10", "--d", "10000000000"],
        ):
            assert main(argv) == 3
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
