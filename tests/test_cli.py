import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from a2quotient import cli, eigen, spectra
from a2quotient.cli import main
from a2quotient.operator import _grid_mn
from oracles import complex_files_ref


ROOT = Path(__file__).resolve().parent.parent
# the keys of a witness sweep entry, in order (schema version 2)
SWEEP_KEYS = ["epsilon", "residual_plus", "residual_minus", "norm"]


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "a2quotient.cli", *argv],
                          env=env, capture_output=True, text=True)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReduceCommand:
    def test_diagonal_example(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "2", "reduce",
                               "--matrix", "t^2,0,0;0,t,0;0,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2 and payload["n"] == 1
        assert payload["verified"] is True

    def test_2x2(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "3", "reduce",
                               "--matrix", "t^3,1;0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 3 and payload["n"] is None
        assert payload["verified"] is True

    def test_singular_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "reduce",
                               "--matrix", "1,1;1,1")
        assert code == 1
        assert "error" in err

    def test_bad_coefficient(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "reduce",
                               "--matrix", "2*t,0;0,1")
        assert code == 1
        assert "reduced mod q" in err

    def test_zero_denominator_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "--q", "2", "reduce",
                                 "--matrix", "1/0,0;0,1")
        assert code == 1
        assert out == ""
        assert "error: zero denominator in '1/0'" in err

    def test_requires_matrix(self, capsys):
        code, out, err = run_cli(capsys, "--q", "2", "reduce")
        assert code == 1
        assert out == ""
        assert "--matrix" in err

    def test_unverified_witness_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_witness", lambda result, g: False)
        code, out, _ = run_cli(capsys, "--q", "2", "reduce",
                               "--matrix", "t^2,0,0;0,t,0;0,0,1")
        assert code == 2
        assert json.loads(out)["verified"] is False


class TestValidation:
    def test_composite_q_rejected(self, capsys):
        for bad in ("1", "4", "6"):
            code, _, err = run_cli(capsys, "--q", bad, "witness")
            assert code == 1
            assert "prime" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "--config", "/nonexistent",
                               "witness")
        assert code == 1

    def test_unknown_format(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--q", "2", "--emit", "xml", "spectra")
        assert code == 1
        assert "xml" in err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("fmt = xml\n")
        code, _, err = run_cli(capsys, "--config", str(cfgfile), "spectra")
        assert code == 1
        assert "unknown output format 'xml'" in err

    @pytest.mark.parametrize("fmt, argv", [
        ("svg", ["complex"]),
        ("json", ["eigen", "--s", "1,1,1"]),
        ("svg", ["eigen", "--s", "1,1,1"]),
        ("svg", ["reduce", "--matrix", "1,0;0,1"]),
        ("svg", ["norm", "--iters", "5"]),
        ("svg", ["witness", "--eps", "0.4,0.2"]),
        ("json", ["witness", "--eps", "0.4,0.2"]),
    ])
    def test_format_the_subcommand_cannot_write(self, capsys, tmp_path, fmt, argv):
        code, out, err = run_cli(capsys, "--q", "2", "--depth", "4", "--emit", fmt,
                                 "--out", str(tmp_path), *argv)
        assert code == 1
        assert out == ""
        assert f"{argv[0]} cannot write --emit {fmt}" in err
        assert list(tmp_path.iterdir()) == []

    def test_tol_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "--tol", "1e-6", "witness")
        assert code == 1
        assert "--tol" in err

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("flag", ["--tol-s", "--tol-sing"])
    def test_tolerance_flag_rejected(self, capsys, tmp_path, flag, before):
        # the tolerances are library constants, not options
        subcommand = ["eigen", "--s", "1,1,1"]
        argv = ([flag, "1e-6", *subcommand] if before
                else [*subcommand, flag, "1e-6"])
        code, out, err = run_cli(capsys, "--q", "2", "--depth", "4",
                                 "--out", str(tmp_path), *argv)
        assert code == 1
        assert out == ""
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    def test_tol_config_key_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 2\ntol = 1e-6\n")
        code, out, err = run_cli(capsys, "--config", str(cfgfile), "witness")
        assert code == 1
        assert out == ""
        assert "unknown config keys ['tol']" in err

    @pytest.mark.parametrize("key", ["tol_s", "tol_sing"])
    def test_tolerance_config_key_rejected(self, capsys, tmp_path, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"q = 2\n{key} = 1e-6\n")
        code, out, err = run_cli(capsys, "--config", str(cfgfile), "witness")
        assert code == 1
        assert out == ""
        assert f"unknown config keys ['{key}']" in err

    def test_unknown_option_named(self, capsys, tmp_path):
        # argparse alone takes the value 3 for the subcommand and names that
        code, out, err = run_cli(capsys, "--q", "2", "--foo", "3", "witness")
        assert code == 1
        assert out == ""
        assert "--foo" in err
        # abbreviations argparse accepts are not unknown
        code, _, _ = run_cli(capsys, "--q", "2", "--dep", "3", "--em", "json",
                             "--out", str(tmp_path), "complex", "--se", "5")
        assert code == 0
        assert json.loads((tmp_path / "complex.json").read_text())["seed"] == 5

    @pytest.mark.parametrize("command, flags", [
        ("norm", ["--iters", "5"]),
        ("eigen", ["--s", "1,1,1", "--check"]),
        ("eigen", ["--lambda=7"]),
        ("spectra", ["--witness", "--eps", "0.4,0.1"]),
    ], ids=["norm-iters", "eigen-s-check", "eigen-lambda", "spectra-witness-eps"])
    def test_flag_position_does_not_matter(self, capsys, tmp_path, command, flags):
        runs = []
        for where, argv in (("before", [*flags, command]),
                            ("after", [command, *flags])):
            outdir = tmp_path / where
            outdir.mkdir()
            code, out, _ = run_cli(capsys, "--q", "2", "--depth", "6",
                                   "--out", str(outdir), *argv)
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            runs.append((code, out.replace(str(outdir), "<out>"), files))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv, code", [
        (["eigen", "--lambda", "-1+2i"], 0),
        (["eigen", "--s", "-1,-1,1"], 0),
        (["reduce", "--matrix", "-1,0;0,1"], 0),
        (["witness", "--eps", "-0.1,0.2"], 1),  # a damping outside (0, 1/2)
        (["eigen", "--lambda", "-i"], 0),
        (["reduce", "--matrix", "-t,0;0,1"], 0),
    ], ids=["eigen-lambda", "eigen-s", "reduce-matrix", "witness-eps",
            "eigen-lambda-letter", "reduce-matrix-letter"])
    def test_value_beginning_with_minus(self, capsys, tmp_path, argv, code):
        # argparse alone reads such a value after a space as a flag
        command, flag, value = argv
        runs = []
        for where, args in (("space", argv),
                            ("attached", [command, f"{flag}={value}"])):
            outdir = tmp_path / where
            outdir.mkdir()
            out = run_cli(capsys, "--q", "2", "--depth", "4",
                          "--out", str(outdir), *args)
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            runs.append((out[0], out[1].replace(str(outdir), "<out>"), out[2],
                         files))
        assert runs[0][0] == code
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [["eigen", "--lambda", "--check"],
                                      ["eigen", "--lambda", "-h"]])
    def test_option_after_a_flag_is_not_its_value(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, "--q", "2", "--depth", "4",
                                 "--out", str(tmp_path), *argv)
        assert code == 1
        assert "argument --lambda: expected one argument" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--iters", "5", "eigen", "--s", "1,1,1"], "eigen does not take --iters"),
        (["eigen", "--s", "1,1,1", "--iters", "5"], "eigen does not take --iters"),
        (["--s", "7", "norm"], "norm does not take --s"),
    ])
    def test_option_of_another_subcommand_rejected(self, capsys, tmp_path, argv,
                                                   message):
        code, out, err = run_cli(capsys, "--q", "2", "--depth", "4",
                                 "--out", str(tmp_path), *argv)
        assert code == 1
        assert out == ""
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line, key", [("depth = abc", "depth"),
                                           ("q = 2.5", "q")])
    def test_bad_config_value_names_key_and_file(self, capsys, tmp_path, line, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, "--config", str(cfgfile), "witness")
        assert code == 1
        assert out == ""
        assert f"config file {cfgfile}: {key} = " in err


class TestComplexCommand:
    def test_csv_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "4",
                               "--out", str(tmp_path), "complex")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == 15
        vertices = (tmp_path / "complex_vertices.csv").read_text().splitlines()
        assert vertices[0].startswith("# seed=0")
        assert vertices[1] == "m,n,color,weight_num,weight_den,stabilizer_order"
        assert vertices[2] == "0,0,0,1,7,168"
        rows = (tmp_path / "complex_rows.csv").read_text().splitlines()
        assert "0,0,plus,1,0,7,0" in rows
        masked = [r for r in rows if r.endswith(",1")]
        assert masked and all(",5," in r for r in masked)

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "--q", "3", "--depth", "5", "--out", str(a), "complex")
        run_cli(capsys, "--q", "3", "--depth", "5", "--out", str(b), "complex")
        for name in ("complex_vertices.csv", "complex_rows.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_json_mode_exact_rationals(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "3",
                               "--emit", "json", "--out", str(tmp_path),
                               "complex")
        assert code == 0
        payload = json.loads((tmp_path / "complex.json").read_text())
        origin = payload["vertices"][0]
        assert origin["weight"] == {"num": "1", "den": "7"}  # never a float
        assert origin["rows"]["plus"]["terms"] == [
            {"m": 1, "n": 0, "coefficient": 7}]
        boundary = payload["vertices"][-1]
        assert boundary["rows"]["minus"]["masked"]

    # depth 2 has an m = 1 shell without interior and a last shell whose
    # masked terms follow the in-range ones
    @pytest.mark.parametrize("depth", [2, 3, 4, 7])
    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_files_match_vertex_by_vertex_oracle(self, capsys, tmp_path, q, depth):
        want = complex_files_ref(q, depth, seed=7)
        for fmt, names in (("csv", ("complex_vertices.csv", "complex_rows.csv")),
                           ("json", ("complex.json",))):
            code, _, _ = run_cli(capsys, "--q", str(q), "--depth", str(depth),
                                 "--seed", "7", "--emit", fmt,
                                 "--out", str(tmp_path), "complex")
            assert code == 0
            for name in names:
                assert (tmp_path / name).read_bytes() == want[name].encode()


class TestEigenCommand:
    def test_lambda_input_with_check(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "10",
                               "--out", str(tmp_path), "eigen",
                               "--lambda", "0", "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["stratum"] == "generic"
        assert payload["max_relative_residual"] < 1e-9
        lines = (tmp_path / "eigen_values.csv").read_text().splitlines()
        assert lines[1] == "m,n,re,im"
        m, n, re, im = lines[2].split(",")
        assert (m, n) == ("0", "0")
        assert complex(float(re), float(im)) == pytest.approx(1.0)

    def test_s_input(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "6",
                               "--out", str(tmp_path), "eigen",
                               "--s", "2,1,0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["stratum"] == "trivial"
        assert payload["lambda_plus"]["re"] == pytest.approx(7)

    @pytest.mark.parametrize("flag,value,cause", [
        ("--lambda", "nan", "eigenvalue (nan+0j) is not finite"),
        ("--s", "nan,1,1", "component s1 = (nan+0j) is not finite"),
    ], ids=["lambda", "s"])
    def test_nan_input_exits_1(self, capsys, tmp_path, flag, value, cause):
        code, out, err = run_cli(capsys, "--q", "2", "--depth", "10",
                                 "--out", str(tmp_path), "eigen", flag, value)
        assert code == 1
        assert out == ""
        assert cause in err
        assert not (tmp_path / "eigen_values.csv").exists()

    def test_check_evaluates_the_closed_form_once(self, capsys, tmp_path,
                                                 monkeypatch):
        calls = []
        real = eigen._closed_form

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(eigen, "_closed_form", counted)
        code, out, _ = run_cli(capsys, "--q", "3", "--depth", "30",
                               "--out", str(tmp_path), "eigen",
                               "--lambda", "1+2i", "--check")
        assert code == 0
        assert json.loads(out)["max_relative_residual"] < 1e-9
        assert len(calls) == 1  # the CSV and the residual share one grid

    # the sigma1 cusp at q=11 depth 400 overflows to inf/nan (a known defect)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @pytest.mark.parametrize("q,depth,flag,value", [
        (3, 30, "--lambda", "1+2i"),
        (2, 30, "--s", "1,1,1"),
        (11, 400, "--s", f"{11 ** 0.5},1,{11 ** -0.5}"),
    ], ids=["lambda-q3", "triple-q2", "cusp-q11"])
    def test_csv_rows_are_the_grid(self, capsys, tmp_path, q, depth, flag,
                                   value):
        code, _, _ = run_cli(capsys, "--q", str(q), "--depth", str(depth),
                             "--out", str(tmp_path), "eigen", flag, value)
        assert code == 0
        if flag == "--s":
            param = eigen.SpectralParam.from_triple(
                q, *map(cli._parse_complex, value.split(",")))
        else:
            param = eigen.params_from_eigenvalue(q, cli._parse_complex(value))
        grid = eigen.eigenfunction_grid(q, param, depth)
        lines = (tmp_path / "eigen_values.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
        m, n = (a.astype(np.float64) for a in _grid_mn(depth))
        assert np.array_equal(rows[:, 0], m) and np.array_equal(rows[:, 1], n)
        assert np.array_equal(rows[:, 2], grid.values.real, equal_nan=True)
        assert np.array_equal(rows[:, 3], grid.values.imag, equal_nan=True)

    def test_warnings_name_the_category_not_a_source_line(self, capsys, tmp_path):
        # the sigma1 cusp at q=11 overflows at this depth (a known defect);
        # a second run in the same process reports the same warnings
        r = 11 ** 0.5
        argv = ("--q", "11", "--depth", "300", "--out", str(tmp_path), "eigen",
                f"--s={r!r},1,{1 / r!r}", "--check")
        errs = [run_cli(capsys, *argv)[2] for _ in range(2)]
        assert errs[0] == errs[1]
        lines = errs[0].splitlines()
        assert lines and len(set(lines)) == len(lines)
        assert all(ln.startswith("warning: RuntimeWarning: ") for ln in lines)
        assert not any(".py" in ln or "np." in ln for ln in lines)

    def test_requires_exactly_one(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "eigen")
        assert code == 1
        code, _, err = run_cli(capsys, "--q", "2", "eigen",
                               "--s", "1,1,1", "--lambda", "0")
        assert code == 1

    def test_not_in_s(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "eigen", "--s", "2,1,1")
        assert code == 1


class TestNormCommand:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "60",
                               "norm", "--iters", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 7
        assert payload["estimate"] == pytest.approx(7.0, rel=1e-4)
        assert 0 <= payload["relative_gap"] < 1e-4


class TestSpectraCommand:
    def test_svg(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--emit", "svg",
                               "--out", str(tmp_path), "spectra")
        assert code == 0
        assert (tmp_path / "spectra.svg").exists()

    def test_csv_schema(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--emit", "csv",
                               "--out", str(tmp_path), "spectra",
                               "--samples", "16")
        assert code == 0
        lines = (tmp_path / "spectra_points.csv").read_text().splitlines()
        assert lines[1] == "theta,re,im,set_tag"
        tags = {ln.rsplit(",", 1)[1] for ln in lines[2:]}
        assert tags == {"Sigma0", "Sigma1", "Sigma2Boundary"}

    def test_sweep_exit_code(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--emit", "csv",
                               "--out", str(tmp_path), "spectra",
                               "--samples", "8", "--sweep", "--eps", "0.4,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sweep_decreasing"] is True
        assert (tmp_path / "spectra_sweep.csv").exists()

    def test_sweep_csv_v2_columns(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "5", "--out", str(tmp_path),
                               "spectra", "--samples", "8", "--sweep", "--witness")
        assert code == 0
        sweep = json.loads(out)["witness"]["sweep"]
        assert all(list(r) == SWEEP_KEYS for r in sweep)
        lines = (tmp_path / "spectra_sweep.csv").read_text().splitlines()
        assert lines[:2] == ["# seed=0 q=5 depth=20",
                             "family,epsilon,residual_plus,residual_minus,norm"]
        rows = [r.split(",") for r in lines[2:]]
        ladder = [repr(e) for e in spectra.default_ladder(5)]
        assert [r[0] for r in rows] == ["sigma2_center"] * 4 + ["sigma1_cusp"] * 4
        assert [r[1] for r in rows] == ladder * 2
        assert all(len(r) == 5 and all(float(x) > 0 for x in r[1:]) for r in rows)

    def test_svg_samples(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "--q", "2", "--emit", "svg",
                             "--out", str(tmp_path), "spectra",
                             "--samples", "8")
        assert code == 0
        svg = (tmp_path / "spectra.svg").read_text()
        assert svg.count(" L ") == 2 * 7  # two closed paths of 8 points

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, capsys, tmp_path, samples):
        code, _, err = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                               "spectra", "--samples", samples)
        assert code == 1
        assert "--samples" in err
        assert not (tmp_path / "spectra_points.csv").exists()

    def test_witness_flag(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--emit", "json",
                               "--out", str(tmp_path), "spectra",
                               "--samples", "8", "--witness")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["sigma2_contains"] is False
        assert payload["witness"]["margin"] == pytest.approx(0.2426406871)

    def test_witness_reads_eps(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--q", "2", "--emit", "json",
                               "--out", str(tmp_path), "spectra",
                               "--samples", "8", "--witness", "--eps", "0.4,0.1")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert [r["epsilon"] for r in witness["sweep"]] == [0.4, 0.1]
        assert witness["margin_exact_check"] is True

    def test_sweep_and_witness_share_the_cusp_sweep(self, capsys, tmp_path,
                                                    monkeypatch):
        calls = []
        real = spectra._closed_report

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(spectra, "_closed_report", counted)
        code, out, _ = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                               "spectra", "--samples", "8", "--sweep",
                               "--witness", "--eps", "0.4,0.1")
        assert code == 0
        assert len(calls) == 4  # two eps for each of the two families
        witness = json.loads(out)["witness"]
        rows = (tmp_path / "spectra_sweep.csv").read_text().splitlines()
        cusp = [r.split(",") for r in rows if r.startswith("sigma1_cusp,")]
        assert [float(r[3]) for r in cusp] == [
            r["residual_plus"] for r in witness["sweep"]]


class TestEpsFlag:
    @pytest.mark.parametrize("command", ["witness", "spectra"])
    @pytest.mark.parametrize("text", ["abc", ",", "0.2,,0.1"])
    def test_bad_eps_names_the_flag(self, capsys, tmp_path, command, text):
        code, out, err = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                                 command, "--eps", text)
        assert code == 1
        assert out == ""
        assert "--eps" in err and repr(text) in err
        assert not any(tmp_path.iterdir())  # rejected before any output

    # spectra checks the damping values even without --sweep or --witness
    @pytest.mark.parametrize("command", ["witness", "spectra"])
    @pytest.mark.parametrize("text", ["inf", "0", "0.5", "nan", "0.2,0"])
    def test_eps_outside_range_fails_up_front(self, capsys, tmp_path, command, text):
        code, out, err = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                                 command, "--eps", text)
        assert code == 1
        assert out == ""
        assert "outside (0, 1/2)" in err
        assert not any(tmp_path.iterdir())


class TestWitnessCommand:
    @pytest.mark.parametrize("argv", [["witness"], ["spectra", "--witness"]],
                             ids=["witness", "spectra"])
    def test_not_decreasing_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        real = cli.non_ramanujan_witness
        monkeypatch.setattr(cli, "non_ramanujan_witness", lambda *a, **kw: replace(
            real(*a, **kw), decreasing=False))
        code, out, _ = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                               *argv, "--eps", "0.4,0.1")
        assert code == 2
        payload = json.loads(out)
        assert payload.get("witness", payload)["decreasing"] is False

    @pytest.mark.parametrize("argv", [["witness"], ["spectra", "--witness"]],
                             ids=["witness", "spectra"])
    @pytest.mark.parametrize("q, code", [(5, 0), (7, 2), (11, 2)])
    def test_last_ratio_decides_the_exit(self, capsys, tmp_path, argv, q, code):
        # one ladder for every q: its last ratio is 0.33 at q=5, 0.57 at
        # q=7 and 1.16 at q=11, each sweep decreasing
        got, out, _ = run_cli(capsys, "--q", str(q), "--out", str(tmp_path),
                              *argv, "--eps", "0.2,0.1,0.05")
        payload = json.loads(out)
        witness = payload.get("witness", payload)
        last = witness["sweep"][-1]
        assert witness["decreasing"] is True
        assert (max(last["residual_plus"], last["residual_minus"]) < 0.5) == (code == 0)
        assert got == code

    @pytest.mark.parametrize("q, eps, holds", [
        *((q, None, True) for q in (2, 3, 5, 7, 11, 101)),
        (11, (0.2, 0.1, 0.05), False),  # last ratio 1.16
    ])
    def test_exit_is_the_verdict(self, capsys, q, eps, holds):
        rep = spectra.non_ramanujan_witness(q, eps)
        assert rep.holds is holds
        flags = ("--eps", ",".join(map(str, eps))) if eps else ()
        code, _, _ = run_cli(capsys, "--q", str(q), "witness", *flags)
        assert code == (0 if holds else 2)

    def test_witness_q2(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "2", "witness",
                               "--eps", "0.4,0.2,0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2_contains"] is False
        assert payload["margin"] == pytest.approx(0.24264068711928477)
        assert payload["decreasing"] is True
        assert len(payload["sweep"]) == 3

    @pytest.mark.parametrize("q", [11, 101])
    def test_default_ladder(self, capsys, q):
        # no --eps: spectra.default_ladder(q), swept without a grid
        code, out, _ = run_cli(capsys, "--q", str(q), "witness")
        assert code == 0
        sweep = json.loads(out)["sweep"]
        assert [r["epsilon"] for r in sweep] == list(spectra.default_ladder(q))
        assert all(list(r) == SWEEP_KEYS for r in sweep)
        assert max(sweep[-1]["residual_plus"], sweep[-1]["residual_minus"]) < 0.5

    def test_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 3\nseed = 11\n")
        code, out, _ = run_cli(capsys, "--config", str(cfgfile), "witness",
                               "--eps", "0.2,0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 3 and payload["seed"] == 11

    def test_precedence_chain(self, capsys, tmp_path, monkeypatch):
        # defaults < config file < A2QUOTIENT_OUTDIR < flags
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"q = 3\nfmt = json\noutdir = {tmp_path / 'cfg'}\n")
        monkeypatch.setenv("A2QUOTIENT_OUTDIR", str(tmp_path / "env"))
        code, out, _ = run_cli(capsys, "--config", str(cfgfile), "complex")
        assert code == 0
        summary = json.loads(out)
        assert (summary["seed"], summary["q"], summary["depth"]) == (0, 3, 20)
        assert summary["files"] == [str(tmp_path / "env" / "complex.json")]
        code, out, _ = run_cli(capsys, "--config", str(cfgfile), "--q", "5",
                               "--depth", "3", "--out", str(tmp_path / "flag"),
                               "complex")
        assert code == 0
        summary = json.loads(out)
        assert summary["q"] == 5
        assert summary["files"] == [str(tmp_path / "flag" / "complex.json")]
        assert json.loads((tmp_path / "flag" / "complex.json").read_text())["q"] == 5
        assert not (tmp_path / "cfg").exists()

    def test_env_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("A2QUOTIENT_OUTDIR", str(tmp_path / "envout"))
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "3", "complex")
        assert code == 0
        assert (tmp_path / "envout" / "complex_vertices.csv").exists()


@pytest.mark.parametrize("argv", [
    ["reduce", "--matrix", "1,0;0,1"],
    ["complex"],
    ["eigen", "--s", "1,1,1"],
    ["norm", "--iters", "5"],
    ["spectra", "--samples", "8"],
    ["witness", "--eps", "0.2,0.1"],
], ids=lambda argv: argv[0])
def test_summary_starts_with_seed_and_q(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, "--q", "3", "--seed", "7", "--depth", "4",
                           "--out", str(tmp_path), *argv)
    assert code == 0
    assert list(json.loads(out).items())[:2] == [("seed", 7), ("q", 3)]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--q", "2", "reduce", "--matrix", "1,0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 0

    def test_closed_stdout_is_not_an_error(self, tmp_path):
        # the reader of stdout is gone before the run starts, as in
        # 'a2quotient ... | head -0': the files are written and the exit
        # code is the subcommand's own
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "a2quotient.cli", "--q", "2",
                 "--depth", "4", "--out", str(tmp_path), "eigen", "--lambda", "-i"],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "eigen_values.csv").exists()

    def test_usage_error_prints_help(self):
        proc = run_module()
        assert proc.returncode == 1  # exit 2 is reserved for verification
        assert "usage" in proc.stderr

    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout

    def test_help_lists_subcommands_and_options(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for name in ("reduce", "complex", "eigen", "norm", "spectra", "witness"):
            assert re.search(rf"^  {name} +\S", out, re.M)  # with its description
        for flag in ("--config", "--q", "--depth", "--seed", "--out", "--emit"):
            assert re.search(rf"^  {flag}\b", out, re.M)
        # each subcommand option names the subcommands that take it
        for flag, takers in [("--matrix", "reduce"), ("--s", "eigen"),
                             ("--lambda", "eigen"), ("--check", "eigen"),
                             ("--iters", "norm"), ("--samples", "spectra"),
                             ("--sweep", "spectra"), ("--witness", "spectra"),
                             ("--eps", "spectra, witness")]:
            assert re.search(rf"^  {flag}( [A-Z]+)? +\[{takers}\]", out, re.M)
        # after a subcommand, --help prints the same combined help
        assert run_cli(capsys, "eigen", "--help") == (code, out, "")
