import csv
import json

import pytest

from besovlab import cli, spectrum
from besovlab.cli import ConfigError, main, parse_config_file, resolve_config
from besovlab.corpus import default_corpus
from besovlab.mesh import icosphere, write_off


def run_cli(args):
    return main(args)


class TestConfig:
    def test_parse_key_value_lists_and_comments(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment setup\n"
            "manifold = circle\n"
            "nodes = 128   # grid size\n"
            "p = 1, 2, inf\n"
            "alpha = 0.5\n")
        parsed = parse_config_file(cfg)
        assert parsed["manifold"] == "circle"
        assert parsed["nodes"] == "128"
        assert parsed["p"] == "1, 2, inf"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("volume = 11\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = 128\nseed = 7\n")
        ns = cli.build_parser().parse_args(["approx", "--config", str(cfg),
                                            "--nodes", "256"])
        resolved = resolve_config(ns)
        assert resolved["nodes"] == 256   # flag wins
        assert resolved["seed"] == 7      # config wins over default

    # one text per setting, and the value it reads as
    READS = {"manifold": ("sphere2", "sphere2"), "nodes": ("128", 128),
             "band": ("1e3", 1000.0), "mesh": ("shape.off", "shape.off"),
             "alpha": ("0.5, 1.5", [0.5, 1.5]), "p": ("1,INF", [1.0, float("inf")]),
             "q": ("2, infinity,", [2.0, float("inf")]), "k": ("3", 3),
             "jmax": ("2", 2), "seed": ("0", 0), "trials": ("5", 5),
             "out": ("results", "results")}

    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    def test_flag_and_config_line_read_alike(self, tmp_path, key):
        text, value = self.READS[key]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {text}\n")
        parser = cli.build_parser()
        from_file = resolve_config(parser.parse_args(["approx", "--config", str(path)]))
        from_flag = resolve_config(parser.parse_args(["approx", f"--{key}", text]))
        assert from_flag == from_file
        assert from_flag[key] == value and type(from_flag[key]) is type(value)

    @pytest.mark.parametrize("key, text, message", [
        ("nodes", "abc", "cannot read nodes = 'abc'"),
        ("k", "2.5", "cannot read k = '2.5'"),
        ("band", "wide", "cannot read band = 'wide'"),
        ("p", "1,x", "cannot read p = '1,x'"),
        ("manifold", "cube", "unknown manifold 'cube'")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unreadable_value_is_config_error(self, tmp_path, capsys, key, text,
                                              message, source):
        out = tmp_path / "o"
        if source == "flag":
            args = [f"--{key}", text]
        else:
            path = tmp_path / "exp.cfg"
            path.write_text(f"{key} = {text}\n")
            args = ["--config", str(path)]
        assert run_cli(["spectrum"] + args + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_mesh_is_config_error(self, tmp_path):
        code = run_cli(["spectrum", "--manifold", "mesh", "--out",
                        str(tmp_path / "o")])
        assert code == 2

    def test_bad_config_file_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        code = run_cli(["filters", "--config", str(cfg),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--p", "nan"), ("--p", "2,nan"), ("--p", "0.5"),
        ("--q", "nan"), ("--q", "0"),
        ("--alpha", "nan"), ("--alpha", "-1"), ("--alpha", "inf"),
        ("--p", "2,2"), ("--p", "inf,1,infinity"), ("--q", "1,2.0,1"),
        ("--alpha", "0.5,0.50")])
    def test_bad_grid_value_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = run_cli(["besov", "--nodes", "128", "--jmax", "2", flag, value,
                        "--out", str(out)])
        assert code == 2
        assert f"parameter grid '{flag[2:]}'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_value_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 1, nan\n")
        code = run_cli(["approx", "--config", str(cfg),
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "parameter grid 'p' holds nan" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["young", "--nodes", "64", "--trials", "0"],
        ["approx", "--nodes", "64", "--jmax", "-1"],
        ["jackson", "--nodes", "64", "--jmax", "-1"],
        ["jackson", "--nodes", "64", "--k", "0"],
        ["bernstein", "--nodes", "64", "--trials", "0"],
        ["kernel-decay", "--nodes", "512", "--trials", "0"]])
    def test_count_below_one_is_config_error(self, tmp_path, capsys, args):
        # k, jmax and trials below 1 would make every check over them vacuous
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert "it must be at least 1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("args", [
        ["approx", "--nodes", "256", "--jmax", "600"],
        ["bernstein", "--nodes", "64", "--jmax", "600"],
        ["bernstein", "--nodes", "64", "--jmax", "512"],
        ["spectrum", "--manifold", "mesh", "--jmax", "600"]])
    def test_jmax_whose_cutoff_overflows_is_config_error(self, tmp_path, capsys,
                                                         icosphere3_path, args):
        # 4^jmax is the top level's cutoff and a mesh's default band
        if "mesh" in args:
            args = args + ["--mesh", str(icosphere3_path)]
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert f"jmax is {args[4]}; 4^jmax overflows a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["jackson", "--nodes", "256", "--k", "600"],
         "k is 600; jackson raises eigenvalues up to 16129 to the power 300,"),
        (["jackson", "--nodes", "256", "--k", "147"],
         "k is 147; jackson raises eigenvalues up to 16129 to the power 73.5,"),
        (["bernstein", "--nodes", "64", "--k", "200"],
         "k is 200; bernstein raises eigenvalues up to 64 to the power 200,"),
        (["besov", "--nodes", "256", "--jmax", "2", "--k", "80"],
         "k is 80; besov raises eigenvalues up to 16129 to the power 80,"),
        (["all", "--nodes", "128", "--jmax", "2", "--k", "200"],
         "k is 200; jackson raises eigenvalues up to 3969 to the power 100,")])
    def test_k_whose_power_overflows_is_config_error(self, tmp_path, capsys,
                                                     args, message):
        # lambda^k overflowed in apply_power and aborted the run with
        # "coefficients contain non-finite entries", which does not name k
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "overflows a float" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("args", [
        ["jackson", "--nodes", "256", "--jmax", "2", "--k", "146"],
        ["bernstein", "--nodes", "64", "--k", "170", "--trials", "2"],
        ["approx", "--nodes", "128", "--jmax", "2", "--k", "600"]])
    def test_largest_k_with_finite_powers_runs(self, tmp_path, args):
        # 16129^73 and 64^170 are finite, and approx raises nothing to k
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) in (0, 1)
        assert "aborted" not in json.loads((out / "report.json").read_text())

    def test_largest_finite_jmax_reaches_the_band_check(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["approx", "--nodes", "256", "--jmax", "511",
                        "--out", str(out)]) == 2
        assert "cannot reach jmax=511" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["spectrum", "--nodes", "128", "--band", "0"], "band is 0.0"),
        (["spectrum", "--nodes", "128", "--band", "-5"], "band is -5.0"),
        (["spectrum", "--nodes", "128", "--band", "nan"], "band is nan"),
        (["spectrum", "--nodes", "128", "--band", "inf"], "band is inf"),
        (["young", "--nodes", "64", "--seed", "-1"], "seed is -1")])
    def test_out_of_range_band_or_seed_is_config_error(self, tmp_path, capsys,
                                                       args, message):
        # caught before any output, not by the first experiment to use them
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("args, frequency", [
        (["approx", "--nodes", "64"], 32),
        (["besov", "--nodes", "64", "--jmax", "2"], 32),
        (["jackson", "--nodes", "128", "--jmax", "4"], 64),
        (["all", "--nodes", "64", "--jmax", "2"], 32)])
    def test_circle_too_coarse_for_the_corpus_is_config_error(
            self, tmp_path, capsys, args, frequency):
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{args[2]} circle nodes cannot resolve frequency {frequency}" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["approx", "--nodes", "66", "--jmax", "2", "--p", "2"],
        ["jackson", "--nodes", "130", "--jmax", "4", "--p", "2"]])
    def test_least_resolving_circle_runs(self, tmp_path, args):
        # circles have an even node count: 66 = 2 * 32 + 2
        assert run_cli(args + ["--out", str(tmp_path / "o")]) == 0


class TestAtomicWrite:
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        cli._atomic_write(str(path), "a,b\n")
        real_open = open

        class Broken:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:2])
                raise OSError("disk full")

        monkeypatch.setattr(spectrum, "open",
                            lambda *a, **kw: Broken(real_open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(str(path), "x,y\n")
        assert path.read_text() == "a,b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestAbort:
    @pytest.mark.parametrize("exc, code", [
        (RuntimeError("HiGHS linear program failed (status 4)"), 1),
        (ConfigError("band too small for a kernel-decay sweep"), 2)])
    def test_partial_report_names_the_experiment(self, tmp_path, monkeypatch,
                                                 capsys, exc, code):
        def broken(*args):
            raise exc

        monkeypatch.setitem(cli.EXPERIMENTS, "kernel-decay", broken)
        out = tmp_path / "o"
        assert run_cli(["all", "--nodes", "128", "--jmax", "2",
                        "--out", str(out)]) == code
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["experiments"] == list(cli.EXPERIMENTS)
        assert report["aborted"] == {
            "experiment": "kernel-decay",
            "error": f"{type(exc).__name__}: {exc}"}
        # the experiments before the failing one reported their assertions
        prefixes = {a["name"].split(".")[0] for a in report["assertions"]}
        assert prefixes == {"spectrum", "filters"}
        assert all(a["passed"] for a in report["assertions"])
        assert str(exc) in capsys.readouterr().err

    def test_band_below_every_bernstein_cutoff_is_config_error(self, tmp_path,
                                                                 capsys):
        out = tmp_path / "o"
        assert run_cli(["bernstein", "--band", "2", "--out", str(out)]) == 2
        assert ("error: band 2 too small for a bernstein sweep"
                in capsys.readouterr().err)
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["aborted"]["experiment"] == "bernstein"

    def test_band_under_two_bernstein_cutoffs_is_config_error(self, tmp_path,
                                                               capsys):
        # one cutoff would compare each worst ratio with itself
        out = tmp_path / "o"
        assert run_cli(["bernstein", "--band", "10", "--out", str(out)]) == 2
        assert ("error: band 10 too small for a bernstein sweep"
                in capsys.readouterr().err)
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["aborted"]["experiment"] == "bernstein"
        assert report["assertions"] == []

    def test_complete_run_has_no_aborted_entry(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["filters", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["config", "experiments", "assertions", "passed"]


class TestModelBuild:
    def test_filters_builds_no_model(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("filters built a model")

        monkeypatch.setattr(cli, "build_model_and_eigsys", forbidden)
        out = tmp_path / "o"
        assert run_cli(["filters", "--nodes", "100000000", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True

    def test_memory_error_while_building_is_config_error(self, tmp_path,
                                                         monkeypatch, capsys):
        def too_big(model, band):
            raise MemoryError("Unable to allocate 35.5 PiB for an array")

        monkeypatch.setattr(cli, "build_eigensystem", too_big)
        out = tmp_path / "o"
        assert run_cli(["spectrum", "--nodes", "64", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: the model and eigensystem do not fit in memory: "
                       "Unable to allocate 35.5 PiB for an array\n")
        assert not (out / "report.json").exists()


class TestSubcommands:
    def test_filters_passes_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "filters-out"
        code = run_cli(["filters", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert (out / "filters.csv").exists()
        assert (out / "filters.dat").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_spectrum_writes_eigensystem_json(self, tmp_path):
        out = tmp_path / "spectrum-out"
        code = run_cli(["spectrum", "--nodes", "64", "--band", "25",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "eigensystem.json").read_text())
        assert doc["model"]["kind"] == "circle"
        assert doc["eigenvalues"][0] == 0.0

    def test_approx_step_shape_for_pure_eigenfunction(self, tmp_path):
        out = tmp_path / "approx-out"
        code = run_cli(["approx", "--nodes", "128", "--jmax", "2",
                        "--p", "2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "corpus_manifest.json").read_text())
        assert any(row["id"].startswith("eigenpure") for row in manifest)
        with open(out / "approx_errors.csv") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["id"].startswith("eigenpure")]
        errs = [float(r["error"]) for r in rows]
        # one step: constant then (near) zero
        assert errs[0] > 0.5 and errs[-1] < 1e-8

    def test_mesh_manifold_runs(self, tmp_path, icosphere3_path):
        out = tmp_path / "mesh-out"
        code = run_cli(["spectrum", "--manifold", "mesh", "--mesh",
                        str(icosphere3_path), "--band", "30",
                        "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_mesh_spectrum_on_icosphere4(self, tmp_path):
        # the benchmark's mesh-spectrum check: 2562 vertices, band 64
        mesh = tmp_path / "icosphere4.off"
        write_off(mesh, *icosphere(4))
        out = tmp_path / "mesh-out"
        code = run_cli(["spectrum", "--manifold", "mesh", "--mesh", str(mesh),
                        "--band", "64", "--out", str(out)])
        assert code == 0
        with open(out / "spectrum.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 64
        report = json.loads((out / "report.json").read_text())
        checks = {a["name"]: a["passed"] for a in report["assertions"]}
        assert checks["spectrum.orthonormality"] is True
        assert checks["spectrum.lambda0"] is True

    def test_besov_emits_per_function_report(self, tmp_path):
        out = tmp_path / "besov-out"
        code = run_cli(["besov", "--nodes", "128", "--jmax", "2",
                        "--alpha", "0.5", "--p", "2", "--q", "2",
                        "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "besov_report.json").read_text())
        assert {"function_id", "params", "a_norm", "comparator",
                "ratio"} <= set(rows[0])

    def test_besov_ratio_is_a_norm_over_comparator(self, tmp_path):
        out = tmp_path / "besov-out"
        code = run_cli(["besov", "--nodes", "128", "--jmax", "2",
                        "--alpha", "0.5,1", "--p", "1,2,inf", "--q", "1,inf",
                        "--out", str(out)])
        assert code == 0
        with open(out / "besov.csv") as fh:
            rows = list(csv.DictReader(fh))
        # corpus x alpha x p x q
        assert len(rows) == len(default_corpus("circle")) * 2 * 3 * 2
        for row in rows:
            a, comp = float(row["a_norm"]), float(row["comparator"])
            assert comp > 0
            assert float(row["ratio"]) == a / comp


class TestDeterminism:
    @pytest.mark.parametrize("manifold", ["circle128", "icosphere3"])
    def test_bit_identical_outputs(self, tmp_path, icosphere3_path, manifold):
        # identical config and seeds; runtime_ms column exempt per contract.
        # The mesh run takes the sparse eigensolver (65 pairs < 642 / 6) and
        # exits 1 on failed assertions, so only the circle run must exit 0.
        grid = (["--nodes", "128"] if manifold == "circle128" else
                ["--manifold", "mesh", "--mesh", str(icosphere3_path), "--band", "64"])
        out_a = tmp_path / "a" / "out"
        out_b = tmp_path / "b" / "out"
        codes = []
        for out in (out_a, out_b):
            out.parent.mkdir(exist_ok=True)
            codes.append(run_cli(["all", *grid, "--jmax", "2", "--trials", "8",
                                  "--out", str(out)]))
        assert codes[0] == codes[1]
        assert manifold != "circle128" or codes[0] == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            a = (out_a / name).read_text()
            b = (out_b / name).read_text()
            if name.startswith("kernel_decay"):
                strip = lambda text: [line.rsplit(",", 1)[0].rsplit(" ", 1)[0]
                                      for line in text.splitlines()]
                assert strip(a) == strip(b), name
            elif name == "report.json":
                ra, rb = json.loads(a), json.loads(b)
                ra["config"]["out"] = rb["config"]["out"] = ""
                assert ra == rb, name
            else:
                assert a == b, name


def test_all_solves_each_problem_once(tmp_path, monkeypatch):
    # experiments rebuild the corpus, so repeats are equal values in new
    # GridFunction objects; the error cache must catch them all
    import besovlab.analysis
    import besovlab.approx
    orig = besovlab.approx.best_approx
    solved = []

    def counting(model, eigsys, f, omega, p):
        solved.append((f.values.tobytes(), float(p), float(omega)))
        return orig(model, eigsys, f, omega, p)

    monkeypatch.setattr(besovlab.approx, "best_approx", counting)
    monkeypatch.setattr(besovlab.analysis, "best_approx", counting)
    code = run_cli(["all", "--nodes", "128", "--jmax", "2", "--trials", "8",
                    "--out", str(tmp_path / "out")])
    assert code == 0
    assert solved
    assert len(set(solved)) == len(solved)


def test_jackson_trend_ignores_resolved_levels(tmp_path):
    # the torus test function is bandlimited at 4, so levels j >= 1 have
    # roundoff-level errors; they must not enter the trend
    out = tmp_path / "out"
    code = run_cli(["jackson", "--manifold", "torus2", "--nodes", "20",
                    "--jmax", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    bounded = [a for a in report["assertions"]
               if a["name"].startswith("jackson.bounded")]
    assert len(bounded) == 3
    assert all(a["passed"] and a["value"] == 1.0 for a in bounded)


def test_besov_projects_each_function_once(tmp_path, monkeypatch):
    # the band check, Jackson, the own-band line, Bernstein, the comparator
    # and the interpolation norm all read one projection per corpus function
    import besovlab.analysis
    import besovlab.spectrum
    orig = besovlab.spectrum.project
    projected = []

    def counting(eigsys, f):
        projected.append(f.values.tobytes())
        return orig(eigsys, f)

    for mod in (besovlab.analysis, cli):
        if getattr(mod, "project", None) is orig:
            monkeypatch.setattr(mod, "project", counting)
    code = run_cli(["besov", "--nodes", "256", "--jmax", "3", "--p", "2,4",
                    "--alpha", "0.5,1,1.5", "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(projected) == len(set(projected)) == len(default_corpus("circle"))


def test_package_import_leaves_scipy_optimize_and_special_unimported(fresh_python):
    # scipy.optimize (reached only through the LP binding, loaded by its
    # file) and scipy.special (sphere quadrature only) stay out of the import
    assert fresh_python("import sys, besovlab.cli; print([m for m in "
                        "('scipy.optimize', 'scipy.special') if m in sys.modules])"
                        ) == "[]"
