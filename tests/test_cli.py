import pytest

from broadcast_domination import cli, pathdag

from conftest import run_cli

K1 = "1\n"
P4 = "4\n0 1\n1 2\n2 3\n"
P6 = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n"
C9 = "9\n" + "".join(f"{i} {(i + 1) % 9}\n" for i in range(9))


def kv(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        out[key] = value
    return out


class TestSolve:
    def test_p4(self):
        res = run_cli(["solve"], P4)
        assert res.returncode == 0
        fields = kv(res.stdout)
        assert fields["cost"] == "2"
        assert fields["dominating"] == "true"

    def test_baseline_same_cost(self):
        fast = run_cli(["solve"], P6)
        base = run_cli(["solve", "--baseline"], P6)
        assert kv(fast.stdout)["cost"] == kv(base.stdout)["cost"] == "2"

    def test_timing_flag(self):
        bare = run_cli(["solve"], P4)
        timed = run_cli(["solve", "--timing"], P4)
        assert "time_ms" not in bare.stdout
        assert "time_ms" in timed.stdout

    def test_input_file(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text(P4)
        res = run_cli(["solve", "--input", str(f)])
        assert res.returncode == 0 and kv(res.stdout)["cost"] == "2"

    def test_residual_refusal_names_input(self, monkeypatch, tmp_path, capsys):
        # peeling (0, 1) off cycle-30 leaves a 27-vertex path whose tables
        # exceed the lowered memory figure; the error names the 30-vertex input
        monkeypatch.setattr(pathdag, "_PHYSICAL_MEMORY", pathdag._table_bytes(12, 6))
        f = tmp_path / "c30.edges"
        f.write_text("30\n" + "".join(f"{i} {(i + 1) % 30}\n" for i in range(30)))
        assert cli.main(["solve", "--input", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solve_optimal: 30-vertex input") and err.count("\n") == 1, err
        assert "27 vertices" in err, err


class TestPath:
    def test_p6(self):
        res = run_cli(["path"], P6)
        fields = kv(res.stdout)
        assert fields["cost"] == "2"
        assert fields["path_shaped"] == "true"

    def test_dump_dag(self, tmp_path):
        dag_file = tmp_path / "dag.dot"
        for flags in ([], ["--baseline"]):
            res = run_cli(["path", *flags, "--dump-dag", str(dag_file)], P6)
            assert res.returncode == 0
            text = dag_file.read_text()
            assert text.startswith("digraph states {") and "->" in text
            # the one-vertex graph has no state: an empty digraph, cost 0
            res = run_cli(["path", *flags, "--dump-dag", str(dag_file)], K1)
            assert res.returncode == 0 and kv(res.stdout)["cost"] == "0", flags
            assert dag_file.read_text() == "digraph states {\n}\n", flags

    def test_dump_dag_builds_tables_once(self, monkeypatch, tmp_path):
        # the solve, the report and the dump share one _path_tables result
        calls = {"apsp": 0, "residual": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(pathdag, "apsp", counted("apsp", pathdag.apsp))
        monkeypatch.setattr(cli, "apsp", counted("apsp", cli.apsp))
        monkeypatch.setattr(pathdag, "residual_decompositions", counted("residual", pathdag.residual_decompositions))
        f = tmp_path / "p6.edges"
        f.write_text(P6)
        for flags in ([], ["--baseline"]):
            calls.update(apsp=0, residual=0)
            assert cli.main(["path", *flags, "--input", str(f), "--dump-dag", str(tmp_path / "dag.dot")]) == 0
            assert calls == {"apsp": 1, "residual": 1}, flags

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 1.00 GiB"), MemoryError()])
    def test_out_of_memory_exit_2(self, exc, monkeypatch, tmp_path, capsys):
        # an allocation refused although the tables passed the physical
        # memory estimate, as under ulimit -v, is one error line and exit 2
        def refuse(g, dm, rt):
            raise exc

        monkeypatch.setattr(pathdag, "requirement_table", refuse)
        f = tmp_path / "p6.edges"
        f.write_text(P6)
        assert cli.main(["path", "--input", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err


class TestOracle:
    def test_k1(self):
        res = run_cli(["oracle"], "1\n")
        assert res.returncode == 0 and kv(res.stdout)["cost"] == "0"

    def test_path_shaped_variant(self):
        res = run_cli(["oracle", "--path-shaped"], P6)
        assert kv(res.stdout)["cost"] == "2"

    def test_limit_exit_code(self):
        big = "13\n" + "".join(f"{i} {i+1}\n" for i in range(12))
        res = run_cli(["oracle"], big)
        assert res.returncode == 2
        assert run_cli(["oracle", "--oracle-limit", "13"], big).returncode == 0

    def test_limit_below_one_is_usage_error(self):
        # no graph meets a limit below 1, so it is a bad flag value, not an infeasible input
        cycle9 = "9\n" + "".join(f"{i} {(i + 1) % 9}\n" for i in range(9))
        for value in ("-1", "0"):
            res = run_cli(["oracle", "--oracle-limit", value], cycle9)
            assert res.returncode == 1 and res.stdout == "", value
            assert res.stderr == f"error: --oracle-limit must be at least 1, got {value}\n", res.stderr


class TestVerify:
    def test_undominated_witness(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\n")
        res = run_cli(["verify", "--broadcast", str(bfile)], P4)
        fields = kv(res.stdout)
        assert fields["dominating"] == "false"
        assert fields["witness_undominated"] == "3"

    def test_good_broadcast(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\n4 1\n")
        fields = kv(run_cli(["verify", "--broadcast", str(bfile)], P6).stdout)
        assert fields["dominating"] == fields["efficient"] == fields["path_shaped"] == "true"

    def test_check_selection(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 2\n")
        out = run_cli(["verify", "--broadcast", str(bfile), "--check", "dominating"], P4).stdout
        assert "dominating" in out and "efficient" not in out

    def test_shape_witness(self, tmp_path):
        # three radius-1 balls on C9: efficient, but the contact graph is a
        # cycle, and ball 0 is the reported witness
        bfile = tmp_path / "b.txt"
        bfile.write_text("0 1\n3 1\n6 1\n")
        res = run_cli(["verify", "--broadcast", str(bfile)], C9)
        fields = kv(res.stdout)
        assert res.returncode == 0
        assert fields["efficient"] == fields["dominating"] == "true"
        assert fields["path_shaped"] == "false" and fields["witness_shape"] == "0"

    def test_overlap_witness(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("0 1\n1 1\n")
        res = run_cli(["verify", "--broadcast", str(bfile)], C9)
        fields = kv(res.stdout)
        assert res.returncode == 0
        assert fields["efficient"] == "false" and fields["witness_overlap"] == "0,1"
        assert fields["path_shaped"] == "n/a" and "witness_shape" not in fields

    def test_bad_broadcast_line_named(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\na 1\n")
        res = run_cli(["verify", "--broadcast", str(bfile)], P4)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "error: non-integer vertex or power in 'a 1'\n", res.stderr

    def test_unknown_check_rejected(self, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 2\n")
        res = run_cli(["verify", "--broadcast", str(bfile), "--check", "dominatin,efficent"], P4)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: unknown check 'dominatin'") and len(res.stderr.splitlines()) == 1


class TestGen:
    def test_deterministic_bytes(self):
        a = run_cli(["gen", "--family", "random-tree", "--n", "9", "--seed", "4"])
        b = run_cli(["gen", "--family", "random-tree", "--n", "9", "--seed", "4"])
        assert a.stdout == b.stdout and a.returncode == 0

    def test_extra_param(self):
        res = run_cli(["gen", "--family", "sparse-random", "--n", "8", "--seed", "1", "--extra", "p=1.0"])
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 1 + 28  # complete graph

    def test_unknown_extra_rejected(self):
        # an unknown parameter, or a value that does not convert, names both
        unknown = (("barbell", "bel=4"), ("path", "p=0.5"), ("sparse-random", "bell=3"))
        for family, item in (*unknown, ("barbell", "bell=x"), ("sparse-random", "p=")):
            res = run_cli(["gen", "--family", family, "--n", "9", "--extra", item])
            assert res.returncode == 1 and res.stdout == "", (family, item)
            assert res.stderr.startswith(f"error: family {family!r}") and len(res.stderr.splitlines()) == 1
            assert repr(item.partition("=")[0]) in res.stderr, res.stderr

    def test_bad_family(self):
        assert run_cli(["gen", "--family", "mesh", "--n", "5"]).returncode == 1


class TestExitCodes:
    def test_parse_error(self):
        assert run_cli(["solve"], "3\n0 0\n").returncode == 1

    def test_disconnected(self):
        assert run_cli(["solve"], "4\n0 1\n2 3\n").returncode == 2

    def test_vertex_cap_before_allocation(self):
        # rejected from the header or --n alone: 2**40 per-vertex lists would not fit
        for n in (32000, 2**40):
            runs = {cmd: run_cli([cmd], f"{n}\n0 1\n") for cmd in ("solve", "path")}
            runs["gen"] = run_cli(["gen", "--family", "path", "--n", str(n)])
            for cmd, res in runs.items():
                assert res.returncode == 2, (cmd, n, res.stderr)
                assert res.stderr.startswith("error: vertex count") and "Traceback" not in res.stderr

    def test_usage(self):
        assert run_cli(["solve", "--format", "json"], P4).returncode == 1
        assert run_cli(["solve", "--format", "edgelist"], P4).returncode == 1  # no --format flag
        assert run_cli(["solve", "--threads", "2"], P4).returncode == 1  # no --threads flag

    def test_missing_input_file(self, tmp_path):
        res = run_cli(["solve", "--input", str(tmp_path / "absent.edges")])
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1, res.stderr

    def test_unwritable_output_path(self, tmp_path):
        res = run_cli(["path", "--dump-dag", str(tmp_path / "absent" / "dag.dot")], P6)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1, res.stderr


class TestBench:
    def test_small_bench(self, tmp_path):
        out = tmp_path / "rows.csv"
        plot = tmp_path / "speedup.csv"
        res = run_cli(
            [
                "bench",
                "--family", "path",
                "--n", "8,10",
                "--reps", "1",
                "--out", str(out),
                "--plot-out", str(plot),
            ]
        )
        assert res.returncode == 0
        assert "median speedup" in res.stdout
        rows = out.read_text().splitlines()
        assert rows[0] == "family,n,seed,task,solver,reps,median_ms,cost"
        assert len(rows) == 5  # header + 2 instances x 2 solvers
        assert plot.read_text().startswith("family,n,seed,task,speedup")

    def test_bad_reps_and_timeout_rejected(self):
        # usage errors before any solve: a reps count below 1 has no median,
        # and a limit that is not positive rejects every solve
        for flag, value in (("--reps", "0"), ("--reps", "-2"), ("--timeout", "-1"), ("--timeout", "0")):
            args = ["bench", "--family", "path", "--n", "8", "--reps", "1", flag, value]
            res = run_cli(args)
            assert res.returncode == 1 and res.stdout == "", (flag, value)
            assert res.stderr.startswith(f"error: {flag} ") and len(res.stderr.splitlines()) == 1, res.stderr

    def test_bad_size_list_rejected(self):
        res = run_cli(["bench", "--family", "path", "--n", "8,x", "--reps", "1"])
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: --n ") and "'x'" in res.stderr, res.stderr
        assert len(res.stderr.splitlines()) == 1
        # a size the family cannot take is found before the first solve, which
        # would otherwise exceed the timeout and exit 2
        args = ["bench", "--family", "path", "--family", "cycle", "--n", "8,2", "--reps", "1", "--timeout", "1e-9"]
        res = run_cli(args)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "error: cycle needs n >= 3, got 2\n", res.stderr

    def test_timeout_exit_code(self):
        res = run_cli(["bench", "--family", "path", "--n", "8", "--reps", "1", "--timeout", "1e-9"])
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr


class TestDeterminism:
    def test_solve_byte_identical(self):
        a = run_cli(["solve"], P6)
        b = run_cli(["solve"], P6)
        assert a.stdout == b.stdout
