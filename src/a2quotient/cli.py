"""Command-line front end.

Subcommands: reduce, complex, eigen, norm, spectra, witness.  One parser
registers every flag once, so a flag may stand before or after the
subcommand and means the same everywhere; a subcommand's own option
(``COMMANDS``) is a usage error for the others.  Bulk output (CSV/SVG) goes
to files under the output directory; small results and run summaries are
printed as JSON on stdout.  Exit codes: 0 success, 1 domain or usage error,
2 a verification subcommand found a violated property.

Configuration precedence: built-in defaults < config file (key = value
lines) < environment < command-line flags.  The output directory default
can be set with A2QUOTIENT_OUTDIR.  Exact rationals are emitted as
{"num": ..., "den": ...} string pairs, never as floats; every run records
its seed in file headers and summaries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .algebra import fraction_str, validate_q
from .eigen import (
    OMEGA, SpectralParam, _grid_residual, eigenfunction_grid, eigenvalue_pair,
    params_from_eigenvalue,
)
from .operator import L2Space, tri_size, vertex_index
from .quotient import QuotientComplex, color, stabilizer_order
from .reduction import ProjMat, reduce_matrix, verify_witness
from .spectra import (
    SetTag, curve_samples, is_decreasing, non_ramanujan_witness,
    render_spectra, residual_sweep, sigma0, sigma1_cusp,
)

ENV_OUTDIR = "A2QUOTIENT_OUTDIR"
# shorter than the library's default ladder: at depth 480 (eps 0.025) the
# float eigenfunction overflows for q >= 5
DEFAULT_EPS = "0.2,0.1,0.05"


@dataclass(frozen=True)
class RunConfig:
    q: int = 2
    depth: int = 20
    seed: int = 0
    fmt: str = "csv"
    outdir: str = "."

    def validated(self) -> "RunConfig":
        validate_q(self.q)
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.fmt not in _ALL_FORMATS:
            raise ValueError(f"unknown output format {self.fmt!r}")
        return self


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


_CONFIG_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = _read_config_file(args.config)
        unknown = set(raw) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in raw.items():
            kind = _CONFIG_TYPES[key]
            try:
                cfg = replace(cfg, **{key: kind(value)})
            except ValueError:
                raise ValueError(f"config file {args.config}: {key} = {value!r} "
                                 f"is not {kind.__name__}") from None
    if os.environ.get(ENV_OUTDIR):
        cfg = replace(cfg, outdir=os.environ[ENV_OUTDIR])
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg = replace(cfg, **{key: flag})
    return cfg.validated()


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _open_out(cfg: RunConfig, name: str):
    path = Path(cfg.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _header(cfg: RunConfig) -> str:
    return f"# seed={cfg.seed} q={cfg.q} depth={cfg.depth}\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_reduce(cfg: RunConfig, args) -> int:
    if args.matrix is None:
        raise ValueError("reduce needs --matrix")
    rows = [cell.split(",") for cell in args.matrix.split(";")]
    g = ProjMat.from_strings(cfg.q, rows)
    result = reduce_matrix(g)
    verified = verify_witness(result, g)
    _emit_json({
        "seed": cfg.seed,
        "q": cfg.q,
        "m": result.m,
        "n": result.n,
        "gamma": str(result.gamma),
        "w": str(result.w),
        "verified": verified,
    })
    return 0 if verified else 2


def _walk(cx: QuotientComplex):
    """One streamed pass over the vertices: each with its exact weight,
    stabilizer order and (label, row) pairs for A+ and A-."""
    for v in cx.vertices():
        rows = [(label, cx.row(v, sign))
                for sign, label in ((+1, "plus"), (-1, "minus"))]
        yield v, cx.weight(v), stabilizer_order(cx.q, v.m, v.n), rows


def cmd_complex(cfg: RunConfig, args) -> int:
    cx = QuotientComplex(cfg.q, cfg.depth)
    if cfg.fmt == "json":
        return _complex_json(cfg, cx)
    vpath = _open_out(cfg, "complex_vertices.csv")
    rpath = _open_out(cfg, "complex_rows.csv")
    with open(vpath, "w", encoding="utf-8") as vf, \
            open(rpath, "w", encoding="utf-8") as rf:
        vf.write(_header(cfg))
        vf.write("m,n,color,weight_num,weight_den,stabilizer_order\n")
        rf.write(_header(cfg))
        rf.write("m,n,direction,target_m,target_n,coefficient,masked\n")
        for v, w, order, rows in _walk(cx):
            vf.write(f"{v.m},{v.n},{color(v)},{w.numerator},"
                     f"{w.denominator},{order}\n")
            for label, row in rows:
                for tgt, c in row.terms:
                    rf.write(f"{v.m},{v.n},{label},{tgt.m},{tgt.n},{c},0\n")
                for tgt, c in row.masked:
                    rf.write(f"{v.m},{v.n},{label},{tgt.m},{tgt.n},{c},1\n")
    _emit_json({"seed": cfg.seed, "q": cfg.q, "depth": cfg.depth,
                "vertices": tri_size(cfg.depth),
                "files": [str(vpath), str(rpath)]})
    return 0


def _complex_json(cfg: RunConfig, cx: QuotientComplex) -> int:
    vertices = [{
        "m": v.m, "n": v.n, "color": color(v),
        "weight": fraction_str(w),  # exact, never a float
        "stabilizer_order": order,
        "rows": {label: {
            "terms": [{"m": t.m, "n": t.n, "coefficient": c}
                      for t, c in row.terms],
            "masked": [{"m": t.m, "n": t.n, "coefficient": c}
                       for t, c in row.masked],
        } for label, row in rows},
    } for v, w, order, rows in _walk(cx)]
    path = _open_out(cfg, "complex.json")
    payload = {"seed": cfg.seed, "q": cfg.q, "depth": cfg.depth,
               "vertices": vertices}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    _emit_json({"seed": cfg.seed, "q": cfg.q, "depth": cfg.depth,
                "vertices": len(vertices), "files": [str(path)]})
    return 0


def cmd_eigen(cfg: RunConfig, args) -> int:
    if (args.s is None) == (getattr(args, "lambda") is None):
        raise ValueError("provide exactly one of --s or --lambda")
    if args.s is not None:
        parts = args.s.split(",")
        if len(parts) != 3:
            raise ValueError("--s needs three comma-separated complex numbers")
        s1, s2, s3 = (_parse_complex(p) for p in parts)
        param = SpectralParam.from_triple(cfg.q, s1, s2, s3)
    else:
        param = params_from_eigenvalue(cfg.q, _parse_complex(getattr(args, "lambda")))
    pair = eigenvalue_pair(cfg.q, param)
    grid = eigenfunction_grid(cfg.q, param, cfg.depth)
    path = _open_out(cfg, "eigen_values.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write("m,n,re,im\n")
        for m in range(cfg.depth + 1):
            shell = grid.values[vertex_index(m, 0):vertex_index(m + 1, 0)]
            fh.writelines(f"{m},{n},{z.real!r},{z.imag!r}\n"
                          for n, z in enumerate(shell.tolist()))
    summary = {
        "seed": cfg.seed,
        "q": cfg.q,
        "depth": cfg.depth,
        "stratum": param.stratum.value,
        "s": [_cnum(z) for z in param.s],
        "lambda_plus": _cnum(pair.lambda_plus),
        "lambda_minus": _cnum(pair.lambda_minus),
        "values_csv": str(path),
    }
    if args.check:
        summary["max_relative_residual"] = _grid_residual(
            L2Space(cfg.q, cfg.depth), param, grid)
    _emit_json(summary)
    return 0


def cmd_norm(cfg: RunConfig, args) -> int:
    space = L2Space(cfg.q, cfg.depth)
    estimate = space.norm_estimate(args.iters)
    bound = cfg.q * cfg.q + cfg.q + 1
    _emit_json({"seed": cfg.seed, "q": cfg.q, "depth": cfg.depth,
                "iters": args.iters, "estimate": estimate, "bound": bound,
                "relative_gap": (bound - estimate) / bound})
    return 0


def _spectra_samples(q: int, count: int):
    thetas, sigma1, boundary = curve_samples(q, count)
    rows = [(2 * math.pi * k / 3, z, SetTag.SIGMA0.value) for k, z in enumerate(sigma0(q))]
    rows += [(th, z, SetTag.SIGMA1.value) for th, z in zip(thetas, sigma1)]
    rows += [(th, z, SetTag.SIGMA2_BOUNDARY.value) for th, z in zip(thetas, boundary)]
    return rows


def _eps_list(args) -> tuple[float, ...]:
    try:
        return tuple(float(e) for e in args.eps.split(","))
    except ValueError:
        raise ValueError(f"--eps needs comma-separated numbers, "
                         f"got {args.eps!r}") from None


def _witness_payload(rep) -> dict:
    return {
        "lambda_star": rep.lambda_star,
        "sigma2_contains": rep.in_sigma2,
        "margin": rep.margin,
        "margin_exact_check": not rep.in_sigma2,
        "sweep": [{
            "epsilon": r.epsilon, "depth": r.depth,
            "residual_plus": r.residual_plus,
            "residual_minus": r.residual_minus,
            "norm": r.norm, "truncation_fraction": r.truncation_fraction,
        } for r in rep.sweep],
        "decreasing": rep.decreasing,
    }


def _witness_code(rep) -> int:
    ok = (not rep.in_sigma2) and rep.margin > 0 and rep.decreasing
    return 0 if ok else 2


def cmd_spectra(cfg: RunConfig, args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    eps_list = _eps_list(args)
    code = 0
    outputs = []
    if cfg.fmt == "svg":
        outputs.append(render_spectra(cfg.q, _open_out(cfg, "spectra.svg"),
                                      args.samples))
    elif cfg.fmt == "csv":
        path = _open_out(cfg, "spectra_points.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_header(cfg))
            fh.write("theta,re,im,set_tag\n")
            for th, z, tag in _spectra_samples(cfg.q, args.samples):
                fh.write(f"{th!r},{z.real!r},{z.imag!r},{tag}\n")
        outputs.append(str(path))
    else:
        path = _open_out(cfg, "spectra_points.json")
        rows = [{"theta": th, "point": _cnum(z), "set_tag": tag}
                for th, z, tag in _spectra_samples(cfg.q, args.samples)]
        path.write_text(json.dumps({"seed": cfg.seed, "q": cfg.q,
                                    "points": rows}, indent=2) + "\n",
                        encoding="utf-8")
        outputs.append(str(path))

    summary = {"seed": cfg.seed, "q": cfg.q, "files": outputs}
    rep = non_ramanujan_witness(cfg.q, eps_list) if args.witness else None
    if args.sweep:
        center = SpectralParam.from_triple(cfg.q, 1.0, OMEGA, OMEGA * OMEGA)
        sweeps = {
            "sigma2_center": residual_sweep(cfg.q, center, eps_list),
            # with --witness the cusp is already swept at these eps
            "sigma1_cusp": (rep.sweep if rep is not None else
                            residual_sweep(cfg.q, sigma1_cusp(cfg.q), eps_list)),
        }
        path = _open_out(cfg, "spectra_sweep.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_header(cfg))
            fh.write("family,epsilon,depth,residual_plus,residual_minus,"
                     "norm,truncation_fraction\n")
            for name, reports in sweeps.items():
                for r in reports:
                    fh.write(f"{name},{r.epsilon!r},{r.depth},"
                             f"{r.residual_plus!r},{r.residual_minus!r},"
                             f"{r.norm!r},{r.truncation_fraction!r}\n")
        outputs.append(str(path))
        summary["sweep_csv"] = str(path)
        summary["sweep_decreasing"] = all(map(is_decreasing, sweeps.values()))
        if not summary["sweep_decreasing"]:
            code = 2
    if rep is not None:
        summary["witness"] = _witness_payload(rep)
        code = max(code, _witness_code(rep))
    _emit_json(summary)
    return code


def cmd_witness(cfg: RunConfig, args) -> int:
    rep = non_ramanujan_witness(cfg.q, _eps_list(args))
    _emit_json({"seed": cfg.seed, "q": cfg.q, **_witness_payload(rep)})
    return _witness_code(rep)


# ---------------------------------------------------------------------------

# name: (function, help, --emit formats (none: only csv), {option: default})
COMMANDS = {
    "reduce": (cmd_reduce, "normal form of a matrix class", (),
               {"matrix": None}),
    "complex": (cmd_complex, "emit the weighted complex as CSV or JSON",
                ("csv", "json"), {}),
    "eigen": (cmd_eigen, "closed-form eigenfunction values", ("csv",),
              {"s": None, "lambda": None, "check": False}),
    "norm": (cmd_norm, "operator norm estimate by power iteration", (),
             {"iters": 200}),
    "spectra": (cmd_spectra, "spectrum sets as CSV/JSON/SVG",
                ("csv", "json", "svg"),
                {"samples": 256, "sweep": False, "witness": False,
                 "eps": DEFAULT_EPS}),
    "witness": (cmd_witness, "non-Ramanujan witness report", (),
                {"eps": DEFAULT_EPS}),
}
_ALL_FORMATS = sorted(set().union(*(c[2] for c in COMMANDS.values())))

# the subcommand options; a False default makes a switch, an int one an int
_OPTION_HELP = {
    "matrix": "rows separated by ';', entries by ','",
    "s": "three comma-separated complex numbers a+bi",
    "lambda": "eigenvalue a+bi instead of --s",
    "check": "also report the max relative recurrence residual",
    "iters": "power-iteration steps",
    "samples": "points on each curve",
    "sweep": "also run residual sweeps (exit 2 if not decreasing)",
    "witness": "include the non-Ramanujan witness in the summary",
    "eps": "comma-separated damping values for the sweep and the witness",
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2quotient",
        description="fundamental-domain reduction, weighted adjacency operators "
                    "and spectra\nfor the PGL(3) function-field quotient",
        epilog="subcommands:\n" + "".join(
            f"  {name:<9} {text}\n" for name, (_, text, _, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, help="the subcommand (below)")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--q", type=int, help="prime field size (default 2)")
    parser.add_argument("--depth", type=int, help="truncation depth M")
    parser.add_argument("--seed", type=int, help="run seed recorded in outputs")
    parser.add_argument("--out", dest="outdir",
                        help=f"output directory (or ${ENV_OUTDIR})")
    parser.add_argument("--emit", dest="fmt", choices=_ALL_FORMATS,
                        help="output format for bulk data")
    own = parser.add_argument_group("options of the subcommands in brackets")
    for name, text in _OPTION_HELP.items():
        takers = [c for c, (*_, options) in COMMANDS.items() if name in options]
        default = COMMANDS[takers[0]][3][name]
        kind = ({"action": "store_true"} if default is False else
                {"type": int} if isinstance(default, int) else {})
        own.add_argument(f"--{name}", default=None,
                         help=f"[{', '.join(takers)}] {text}", **kind)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse alone names the value after an unknown flag: '--foo 3
        # witness' would read 3 as the subcommand
        for name in (token.split("=", 1)[0] for token in argv):
            if name.startswith("--") and not any(
                    s.startswith(name) for s in parser._option_string_actions):
                parser.error(f"unrecognized arguments: {name}")
        args = parser.parse_args(argv)
        func, _, formats, options = COMMANDS[args.command]
        for name in _OPTION_HELP:
            if name in options:
                if getattr(args, name) is None:
                    setattr(args, name, options[name])
            elif getattr(args, name) is not None:
                parser.error(f"{args.command} does not take --{name}")
    except SystemExit as exc:
        # argparse already printed usage/help; keep exit 2 reserved for
        # verification failures, so usage errors map to 1
        return 0 if exc.code == 0 else 1
    try:
        cfg = build_config(args)
        if cfg.fmt not in (formats or ("csv",)):
            raise ValueError(f"{args.command} cannot write --emit {cfg.fmt}; it "
                             f"writes {' or '.join(formats) or 'no bulk file'}")
        return func(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
