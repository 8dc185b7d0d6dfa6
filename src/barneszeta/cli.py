"""Command-line front end.

Subcommands: eval, laurent, special, verify.  Output is JSON on stdout
(schema_version "1"); verify can also write CSV.  Every record echoes the
fixed truncations as ``config``; there are no precision flags.  Exit codes:
0 success, 1 verification failure, 2 pole hit, 3 accuracy not reached
(s beyond the evaluators' reach), 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import time

from .barnes import BarnesParams, log_gamma2, polygamma2, zeta2
from .config import SNAPSHOT
from .errors import AccuracyError
from .hurwitz import stieltjes_constants
from .laurent import gammak_at_1_limit, gammak_at_2_limit, laurent_at_1, \
    laurent_at_2, residue_at_1, residue_at_2
from .verify import run_suites

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_POLE = 2
EXIT_ACCURACY = 3
EXIT_USAGE = 64

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*(\d*\.?\d+(?:[eE][+-]?\d+)?)i)?\s*$")


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi'."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = float(m.group(1))
    im_part = 0.0
    if m.group(2):
        im_part = float(m.group(3))
        if m.group(2) == "-":
            im_part = -im_part
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def _num(x: float) -> float:
    # 17 significant digits survive the JSON round trip exactly
    return float(f"{x:.17g}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _params_from(args) -> BarnesParams:
    return BarnesParams(args.alpha, args.v, args.w)


def _emit(record: dict):
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _record(args, started, **fields) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": vars_echo(args),
        "config": SNAPSHOT,
        "wall_time_ms": _num((time.perf_counter() - started) * 1000.0),
    }
    rec.update(fields)
    return rec


def vars_echo(args) -> dict:
    echo = {}
    for key, val in sorted(vars(args).items()):
        if key in ("func",) or val is None:
            continue
        echo[key] = format_complex(val) if isinstance(val, complex) else val
    return echo


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    p = _params_from(args)
    s = args.s
    if s in (1.0 + 0j, 2.0 + 0j) and not args.laurent_fallback:
        sys.stderr.write(f"zeta2 has a pole at s = {int(s.real)}\n")
        return EXIT_POLE
    if s in (1.0 + 0j, 2.0 + 0j):
        # --laurent-fallback: report the regular part at the pole
        exp = (laurent_at_1 if s.real == 1.0 else laurent_at_2)(p, 0)
        value, err, method = complex(exp.gammas[0]), exp.errs[0], "laurent"
    else:
        value, err, method = zeta2(s, p), None, "em"
    rec = _record(args, started,
                  value={"re": _num(value.real), "im": _num(value.imag)},
                  est_error=(None if err is None else _num(err)),
                  method=method)
    _emit(rec)
    return EXIT_OK


def _cmd_laurent(args) -> int:
    started = time.perf_counter()
    p = _params_from(args)
    exact = residue_at_2(p) if args.pole == 2 else residue_at_1(p)
    routes = {"em": (laurent_at_1, laurent_at_2),
              "limit": (gammak_at_1_limit, gammak_at_2_limit)}
    exp = routes[args.method][args.pole - 1](p, args.kmax)
    rec = _record(args, started,
                  pole=args.pole, method=exp.method,
                  gamma_minus1=_num(exp.gamma_minus1),
                  exact_residue=_num(exact),
                  err_minus1=_num(exp.err_minus1),
                  gammas=[_num(g) for g in exp.gammas],
                  est_errors=[_num(e) for e in exp.errs])
    _emit(rec)
    return EXIT_OK


def _cmd_special(args) -> int:
    started = time.perf_counter()
    if args.what == "stieltjes":
        if args.a is None:
            sys.stderr.write("--a is required for stieltjes\n")
            return EXIT_USAGE
        table = stieltjes_constants(args.a, args.kmax)
        rec = _record(args, started, what=args.what, a=args.a,
                      gammas=[_num(g) for g in table.gammas],
                      est_errors=[_num(e) for e in table.errs])
    else:
        p = _params_from(args)
        if args.what == "gamma2":
            value = log_gamma2(p)
            rec = _record(args, started, what=args.what,
                          log_gamma2=_num(value),
                          gamma2=_num(math.exp(value)))
        else:  # polygamma
            value = polygamma2(args.k, p)
            rec = _record(args, started, what=args.what, k=args.k,
                          value=_num(value))
    _emit(rec)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    seed = None
    env_seed = os.environ.get("BARNES_ZETA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            sys.stderr.write("BARNES_ZETA_SEED must be a decimal integer\n")
            return EXIT_USAGE
    if args.tol is not None and not 0 < args.tol < math.inf:
        sys.stderr.write("--tol must be finite and > 0\n")
        return EXIT_USAGE
    reports = run_suites((args.suite,), tol=args.tol, seed=seed)
    all_pass = all(r.passed for r in reports)
    rec = _record(args, started, suites=[r.to_dict() for r in reports])
    rec["pass"] = all_pass
    _emit(rec)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            for i, r in enumerate(reports):
                # one header line: skip it after the first report
                for row in itertools.islice(r.csv_rows(), 1 if i else 0, None):
                    fh.write(row + "\n")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="barneszeta",
                     description="Barnes double zeta-function toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", help="evaluate zeta2(s, alpha; v, w)")
    pe.add_argument("--s", type=parse_complex, required=True)
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--v", type=float, required=True)
    pe.add_argument("--w", type=float, required=True)
    pe.add_argument("--method", choices=["auto", "em"], default="auto")
    pe.add_argument("--laurent-fallback", action="store_true")
    pe.set_defaults(func=_cmd_eval)

    pl = sub.add_parser("laurent", help="Laurent coefficients at a pole")
    pl.add_argument("--pole", type=int, choices=[1, 2], required=True)
    pl.add_argument("--alpha", type=float, required=True)
    pl.add_argument("--v", type=float, required=True)
    pl.add_argument("--w", type=float, required=True)
    pl.add_argument("--kmax", type=int, default=2)
    pl.add_argument("--method", choices=["em", "limit"], default="em")
    pl.set_defaults(func=_cmd_laurent)

    ps = sub.add_parser("special", help="Stieltjes constants / Gamma2 / psi2")
    ps.add_argument("--what", choices=["stieltjes", "gamma2", "polygamma"],
                    required=True)
    ps.add_argument("--a", type=float, default=None)
    ps.add_argument("--kmax", type=int, default=3)
    ps.add_argument("--k", type=int, default=0)
    ps.add_argument("--alpha", type=float, default=1.0)
    ps.add_argument("--v", type=float, default=1.0)
    ps.add_argument("--w", type=float, default=1.0)
    ps.set_defaults(func=_cmd_special)

    pv = sub.add_parser("verify", help="run identity-verification suites")
    pv.add_argument("--suite",
                    choices=["theorem1", "theorem2", "bounds", "reduction", "all"],
                    default="all")
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--csv", type=str, default=None)
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as '-0.3+1i', which is not a plain
    # negative number, for an option flag; bind it to --s explicitly.
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--s" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--s={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AccuracyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ACCURACY
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
