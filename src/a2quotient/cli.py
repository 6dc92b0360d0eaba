"""Command-line front end.

Subcommands: reduce, complex, eigen, norm, spectra, witness.  Each fact has
one table: ``SETTINGS`` the run settings (flag, default, help; its keys are
the config file keys), ``OPTIONS`` each subcommand option's default and
help, ``COMMANDS`` each subcommand's function, formats and own options.  One
parser registers every flag once, so a flag may stand before or after the
subcommand; a subcommand's own option is a usage error for the others.  A
value beginning with a single ``-`` (``-h`` aside) may follow its flag
after a space (``--lambda -i``), any value after ``=``.  Bulk output goes
to files under the output directory; each JSON summary on stdout starts
with the seed and q.  Exit codes: 0 success, 1 domain or usage error, 2 a
verification subcommand found a violated property.  A warning raised in a
subcommand goes to stderr once, as ``warning: <Category>: <message>``,
without the file, line or source text Python would show.  Precedence:
defaults < config file (key = value lines) < environment (A2QUOTIENT_OUTDIR)
< flags.  Exact rationals are emitted as {"num": ..., "den": ...} string pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

from .algebra import fraction_str, validate_q
from .eigen import (
    OMEGA, SpectralParam, _grid_residual, eigenfunction_grid, eigenvalue_pair,
    params_from_eigenvalue,
)
from .operator import L2Space, tri_size, vertex_index
from .quotient import QuotientComplex
from .reduction import ProjMat, reduce_matrix, verify_witness
from .spectra import (
    SetTag, curve_samples, default_ladder, is_decreasing, non_ramanujan_witness,
    render_spectra, residual_sweep, sigma0, sigma1_cusp, validate_eps,
)

ENV_OUTDIR = "A2QUOTIENT_OUTDIR"

# key: (flag, default, help) of each run setting; the keys are the config
# file keys, each setting's type is its default's type, and a help text may
# show the default as %(default)s
SETTINGS = {
    "q": ("--q", 2, "prime field size (default %(default)s)"),
    "depth": ("--depth", 20, "truncation depth M"),
    "seed": ("--seed", 0, "run seed recorded in outputs"),
    "outdir": ("--out", ".", f"output directory (or ${ENV_OUTDIR})"),
    "fmt": ("--emit", "csv", "output format for bulk data"),
}

# name: (default, help) of each subcommand option; a False default makes a
# switch, an int one an int
OPTIONS = {
    "matrix": (None, "rows separated by ';', entries by ','"),
    "s": (None, "three comma-separated complex numbers a+bi"),
    "lambda": (None, "eigenvalue a+bi instead of --s"),
    "check": (False, "also report the max relative recurrence residual"),
    "iters": (200, "power-iteration steps"),
    "samples": (256, "points on each curve"),
    "sweep": (False, "also run residual sweeps (exit 2 if not decreasing)"),
    "witness": (False, "include the non-Ramanujan witness in the summary "
                       "(exit 2 unless its last residual ratio is below 0.5)"),
    "eps": (None, "comma-separated damping values for the sweep and the "
                  "witness (default spectra.default_ladder(q): "
                  "0.2*2^-k*min(1, (3/q)^1.5), k = 0..3)"),
}


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


def _settle(args: argparse.Namespace) -> None:
    """Fill in each run setting no flag set, from the config file, then
    the environment, then the default, and validate the settings."""
    values = {key: default for key, (_, default, _) in SETTINGS.items()}
    if args.config:
        raw = _read_config_file(args.config)
        unknown = set(raw) - set(SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in raw.items():
            kind = type(values[key])
            try:
                values[key] = kind(value)
            except ValueError:
                raise ValueError(f"config file {args.config}: {key} = {value!r} "
                                 f"is not {kind.__name__}") from None
    if os.environ.get(ENV_OUTDIR):
        values["outdir"] = os.environ[ENV_OUTDIR]
    for key, value in values.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    validate_q(args.q)
    if args.depth < 2:
        raise ValueError("depth must be >= 2")
    if args.fmt not in _ALL_FORMATS:
        raise ValueError(f"unknown output format {args.fmt!r}")


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _open_out(args, name: str) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


@contextmanager
def _csv(args, name: str, columns: str):
    """Open the bulk CSV ``name`` under the output directory and write its
    header line and column row; the handle's ``name`` is the file path."""
    with open(_open_out(args, name), "w", encoding="utf-8") as fh:
        fh.write(f"# seed={args.seed} q={args.q} depth={args.depth}\n{columns}\n")
        yield fh


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, JSON summary); main adds seed and q
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> tuple[int, dict]:
    if args.matrix is None:
        raise ValueError("reduce needs --matrix")
    rows = [cell.split(",") for cell in args.matrix.split(";")]
    g = ProjMat.from_strings(args.q, rows)
    result = reduce_matrix(g)
    verified = verify_witness(result, g)
    return 0 if verified else 2, {"m": result.m, "n": result.n,
                                  "gamma": str(result.gamma),
                                  "w": str(result.w), "verified": verified}


def cmd_complex(args) -> tuple[int, dict]:
    if args.fmt == "json":
        return _complex_json(args)
    with _csv(args, "complex_vertices.csv",
              "m,n,color,weight_num,weight_den,stabilizer_order") as vf, \
            _csv(args, "complex_rows.csv",
                 "m,n,direction,target_m,target_n,coefficient,masked") as rf:
        for m, strata in QuotientComplex(args.q, args.depth).shells():
            vlines, rlines = [], []
            for ns, w, order, rows in strata:
                # format fields: {0} n-1, {1} n, {2} n+1, {3} the color (m+n) % 3
                vline = f"{m},{{1}},{{3}},{w.numerator},{w.denominator},{order}\n"
                rline = "".join(f"{m},{{1}},{label},{m + dm},{{{dn + 1}}},{c},{flag}\n"
                                for label, inside, masked in rows
                                for flag, part in ((0, inside), (1, masked))
                                for dm, dn, c in part)
                for n in ns:
                    fields = (n - 1, n, n + 1, (m + n) % 3)
                    vlines.append(vline.format(*fields))
                    rlines.append(rline.format(*fields))
            vf.write("".join(vlines))
            rf.write("".join(rlines))
    return 0, {"depth": args.depth, "vertices": tri_size(args.depth),
               "files": [vf.name, rf.name]}


def _complex_json(args) -> tuple[int, dict]:
    vertices = [{
        "m": m, "n": n, "color": (m + n) % 3,
        "weight": fraction_str(w),  # exact, never a float
        "stabilizer_order": order,
        "rows": {label: {
            "terms": [{"m": m + dm, "n": n + dn, "coefficient": c}
                      for dm, dn, c in inside],
            "masked": [{"m": m + dm, "n": n + dn, "coefficient": c}
                       for dm, dn, c in masked],
        } for label, inside, masked in rows},
    } for m, strata in QuotientComplex(args.q, args.depth).shells()
        for ns, w, order, rows in strata for n in ns]
    path = _open_out(args, "complex.json")
    payload = {"seed": args.seed, "q": args.q, "depth": args.depth,
               "vertices": vertices}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0, {"depth": args.depth, "vertices": len(vertices),
               "files": [str(path)]}


def cmd_eigen(args) -> tuple[int, dict]:
    if (args.s is None) == (getattr(args, "lambda") is None):
        raise ValueError("provide exactly one of --s or --lambda")
    if args.s is not None:
        parts = args.s.split(",")
        if len(parts) != 3:
            raise ValueError("--s needs three comma-separated complex numbers")
        s1, s2, s3 = (_parse_complex(p) for p in parts)
        param = SpectralParam.from_triple(args.q, s1, s2, s3)
    else:
        param = params_from_eigenvalue(args.q, _parse_complex(getattr(args, "lambda")))
    pair = eigenvalue_pair(args.q, param)
    grid = eigenfunction_grid(args.q, param, args.depth)
    with _csv(args, "eigen_values.csv", "m,n,re,im") as fh:
        for m in range(args.depth + 1):
            shell = grid.values[vertex_index(m, 0):vertex_index(m + 1, 0)]
            fh.writelines(f"{m},{n},{z.real!r},{z.imag!r}\n"
                          for n, z in enumerate(shell.tolist()))
    summary = {
        "depth": args.depth,
        "stratum": param.stratum.value,
        "s": [_cnum(z) for z in param.s],
        "lambda_plus": _cnum(pair.lambda_plus),
        "lambda_minus": _cnum(pair.lambda_minus),
        "values_csv": fh.name,
    }
    if args.check:
        summary["max_relative_residual"] = _grid_residual(
            L2Space(args.q, args.depth), param, grid)
    return 0, summary


def cmd_norm(args) -> tuple[int, dict]:
    space = L2Space(args.q, args.depth)
    estimate = space.norm_estimate(args.iters)
    bound = args.q * args.q + args.q + 1
    return 0, {"depth": args.depth, "iters": args.iters, "estimate": estimate,
               "bound": bound, "relative_gap": (bound - estimate) / bound}


def _spectra_samples(q: int, count: int):
    thetas, sigma1, boundary = curve_samples(q, count)
    rows = [(2 * math.pi * k / 3, z, SetTag.SIGMA0.value) for k, z in enumerate(sigma0(q))]
    rows += [(th, z, SetTag.SIGMA1.value) for th, z in zip(thetas, sigma1)]
    rows += [(th, z, SetTag.SIGMA2_BOUNDARY.value) for th, z in zip(thetas, boundary)]
    return rows


def _eps_list(args) -> tuple[float, ...]:
    if args.eps is None:
        return default_ladder(args.q)
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError:
        raise ValueError(f"--eps needs comma-separated numbers, "
                         f"got {args.eps!r}") from None
    return validate_eps(eps_list)


def _witness_payload(rep) -> dict:
    return {
        "lambda_star": rep.lambda_star,
        "sigma2_contains": rep.in_sigma2,
        "margin": rep.margin,
        "margin_exact_check": not rep.in_sigma2,
        "sweep": [{
            "epsilon": r.epsilon, "residual_plus": r.residual_plus,
            "residual_minus": r.residual_minus, "norm": r.norm,
        } for r in rep.sweep],
        "decreasing": rep.decreasing,
    }


def cmd_spectra(args) -> tuple[int, dict]:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    eps_list = _eps_list(args)
    code = 0
    outputs = []
    if args.fmt == "svg":
        outputs.append(render_spectra(args.q, _open_out(args, "spectra.svg"),
                                      args.samples))
    elif args.fmt == "csv":
        with _csv(args, "spectra_points.csv", "theta,re,im,set_tag") as fh:
            for th, z, tag in _spectra_samples(args.q, args.samples):
                fh.write(f"{th!r},{z.real!r},{z.imag!r},{tag}\n")
        outputs.append(fh.name)
    else:
        path = _open_out(args, "spectra_points.json")
        rows = [{"theta": th, "point": _cnum(z), "set_tag": tag}
                for th, z, tag in _spectra_samples(args.q, args.samples)]
        path.write_text(json.dumps({"seed": args.seed, "q": args.q,
                                    "points": rows}, indent=2) + "\n",
                        encoding="utf-8")
        outputs.append(str(path))

    summary = {"files": outputs}
    rep = non_ramanujan_witness(args.q, eps_list) if args.witness else None
    if args.sweep:
        center = SpectralParam.from_triple(args.q, 1.0, OMEGA, OMEGA * OMEGA)
        sweeps = {
            "sigma2_center": residual_sweep(args.q, center, eps_list),
            # with --witness the cusp is already swept at these eps
            "sigma1_cusp": (rep.sweep if rep is not None else
                            residual_sweep(args.q, sigma1_cusp(args.q), eps_list)),
        }
        with _csv(args, "spectra_sweep.csv",
                  "family,epsilon,residual_plus,residual_minus,norm") as fh:
            for name, reports in sweeps.items():
                for r in reports:
                    fh.write(f"{name},{r.epsilon!r},{r.residual_plus!r},"
                             f"{r.residual_minus!r},{r.norm!r}\n")
        outputs.append(fh.name)
        summary["sweep_csv"] = fh.name
        summary["sweep_decreasing"] = all(map(is_decreasing, sweeps.values()))
        if not summary["sweep_decreasing"]:
            code = 2
    if rep is not None:
        summary["witness"] = _witness_payload(rep)
        code = max(code, 0 if rep.holds else 2)
    return code, summary


def cmd_witness(args) -> tuple[int, dict]:
    rep = non_ramanujan_witness(args.q, _eps_list(args))
    return 0 if rep.holds else 2, _witness_payload(rep)


# ---------------------------------------------------------------------------

# name: (function, help, --emit formats (none: only csv), own OPTIONS)
COMMANDS = {
    "reduce": (cmd_reduce, "normal form of a matrix class", (), ("matrix",)),
    "complex": (cmd_complex, "emit the weighted complex as CSV or JSON",
                ("csv", "json"), ()),
    "eigen": (cmd_eigen, "closed-form eigenfunction values", ("csv",),
              ("s", "lambda", "check")),
    "norm": (cmd_norm, "operator norm estimate by power iteration", (),
             ("iters",)),
    "spectra": (cmd_spectra, "spectrum sets as CSV/JSON/SVG",
                ("csv", "json", "svg"), ("samples", "sweep", "witness", "eps")),
    "witness": (cmd_witness, "non-Ramanujan witness report", (), ("eps",)),
}
_ALL_FORMATS = sorted(set().union(*(c[2] for c in COMMANDS.values())))


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
    # no defaults here: a setting no flag set comes from _settle
    for key, (flag, default, text) in SETTINGS.items():
        parser.add_argument(flag, dest=key, type=type(default),
                            choices=_ALL_FORMATS if key == "fmt" else None,
                            help=text % {"default": default})
    own = parser.add_argument_group("options of the subcommands in brackets")
    for name, (default, text) in OPTIONS.items():
        takers = [c for c, (*_, names) in COMMANDS.items() if name in names]
        kind = ({"action": "store_true"} if default is False else
                {"type": int} if isinstance(default, int) else {})
        own.add_argument(f"--{name}", default=None,
                         help=f"[{', '.join(takers)}] {text}", **kind)
    return parser


def _takes_value(known: dict, flag: str) -> bool:
    """Whether flag names, in full or by a unique prefix, a one-value option."""
    hits = ({known[flag]} if flag in known else
            {action for s, action in known.items() if s.startswith(flag)})
    return len(hits) == 1 and hits.pop().nargs is None


def main(argv=None) -> int:
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse reads a value such as -1+2i or -t after a space as a
        # flag: attach it to the flag that takes it, '--lambda=-1+2i'
        known = parser._option_string_actions
        tokens = []
        for token in argv:
            if tokens and token.startswith("-") and not token.startswith("--") \
                    and token not in known and _takes_value(known, tokens[-1]):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        # argparse alone names the value after an unknown flag: '--foo 3
        # witness' would read 3 as the subcommand
        for name in (token.split("=", 1)[0] for token in tokens):
            if name.startswith("--") and not any(s.startswith(name) for s in known):
                parser.error(f"unrecognized arguments: {name}")
        args = parser.parse_args(tokens)
        func, _, formats, own = COMMANDS[args.command]
        for name, (default, _) in OPTIONS.items():
            if name in own:
                if getattr(args, name) is None:
                    setattr(args, name, default)
            elif getattr(args, name) is not None:
                parser.error(f"{args.command} does not take --{name}")
    except SystemExit as exc:
        # argparse already printed usage/help; keep exit 2 reserved for
        # verification failures, so usage errors map to 1
        return 0 if exc.code == 0 else 1
    try:
        _settle(args)
        if args.fmt not in (formats or ("csv",)):
            raise ValueError(f"{args.command} cannot write --emit {args.fmt}; it "
                             f"writes {' or '.join(formats) or 'no bulk file'}")
        # the filters stay; catch_warnings also resets the once-per-location
        # registry, so a second run in one process reports its warnings too
        with warnings.catch_warnings(record=True) as caught:
            try:
                code, summary = func(args)
            finally:
                for line in dict.fromkeys(f"warning: {w.category.__name__}: "
                                          f"{w.message}" for w in caught):
                    print(line, file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps({"seed": args.seed, "q": args.q, **summary}, indent=2),
              flush=True)
    except BrokenPipeError:
        # the reader is gone and Python flushes stdout at exit (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
