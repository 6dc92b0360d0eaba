import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from a2quotient import cli, eigen, spectra
from a2quotient.cli import main
from a2quotient.operator import _grid_mn


ROOT = Path(__file__).resolve().parent.parent


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

    def test_tol_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--q", "2", "--tol", "1e-6", "witness")
        assert code == 1
        assert "--tol" in err

    def test_tol_config_key_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 2\ntol = 1e-6\n")
        code, out, err = run_cli(capsys, "--config", str(cfgfile), "witness")
        assert code == 1
        assert out == ""
        assert "unknown config keys ['tol']" in err


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
                               "--samples", "8", "--witness", "--eps", "0.4,0.2")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert [r["epsilon"] for r in witness["sweep"]] == [0.4, 0.2]
        assert witness["margin_exact_check"] is True

    def test_sweep_and_witness_share_the_cusp_sweep(self, capsys, tmp_path,
                                                    monkeypatch):
        calls = []
        real = spectra._damped_report

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(spectra, "_damped_report", counted)
        code, out, _ = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                               "spectra", "--samples", "8", "--sweep",
                               "--witness", "--eps", "0.4,0.2")
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


class TestWitnessCommand:
    @pytest.mark.parametrize("argv", [["witness"], ["spectra", "--witness"]],
                             ids=["witness", "spectra"])
    def test_not_decreasing_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        real = cli.non_ramanujan_witness
        monkeypatch.setattr(cli, "non_ramanujan_witness", lambda *a, **kw: replace(
            real(*a, **kw), decreasing=False))
        code, out, _ = run_cli(capsys, "--q", "2", "--out", str(tmp_path),
                               *argv, "--eps", "0.4,0.2")
        assert code == 2
        payload = json.loads(out)
        assert payload.get("witness", payload)["decreasing"] is False

    def test_witness_q2(self, capsys):
        code, out, _ = run_cli(capsys, "--q", "2", "witness",
                               "--eps", "0.4,0.3,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2_contains"] is False
        assert payload["margin"] == pytest.approx(0.24264068711928477)
        assert payload["decreasing"] is True
        assert len(payload["sweep"]) == 3

    def test_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 3\nseed = 11\n")
        code, out, _ = run_cli(capsys, "--config", str(cfgfile), "witness",
                               "--eps", "0.4,0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 3 and payload["seed"] == 11

    def test_env_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("A2QUOTIENT_OUTDIR", str(tmp_path / "envout"))
        code, out, _ = run_cli(capsys, "--q", "2", "--depth", "3", "complex")
        assert code == 0
        assert (tmp_path / "envout" / "complex_vertices.csv").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--q", "2", "reduce", "--matrix", "1,0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 0

    def test_usage_error_prints_help(self):
        proc = run_module()
        assert proc.returncode == 1  # exit 2 is reserved for verification
        assert "usage" in proc.stderr

    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout
