"""Command-line front end.

Every command writes CSV (stdout or --output) with `# key = value` header
comments carrying the fully resolved configuration, including the snapped
epsilon and r1.  Outputs are byte-identical across reruns of the same
configuration: solver seeds are fixed and timestamps are off unless
--timestamps is given.  Exit codes: 0 ok, 1 validation error, 2 solver
failure, 3 I/O error.

A flat `key = value` config file can predefine any option of the chosen
command (hyphens may be written as underscores; `true`/`false` for switches).
Its entries become flags placed before the explicit ones, so they are
validated like flags and explicit flags win; keys that name no option of the
command are ignored.  Options are spelled out in full (no abbreviations).
Sweep points, the sectors of `solve` and the two sectors of each bisection
step of `crossings` share one pool of up to min(4, cores) threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__, specfun
from .asymptotics import fit_coefficient, law_competition, model
from .capacity import additivity_ratio
from .domain import QUARTER_CASES, build_cracked_disk, quarter_problems
from .eigensolve import SolverError
from .spectra import detect_crossings, solve_full_spectrum, solve_sector, sweep

SCHEMA_VERSION = 1


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # validation problems exit 1, not argparse's 2
        raise CliError(message)


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve_r1(args) -> float:
    if args.r1 == "auto":
        return specfun.choose_r1(args.r2)
    try:
        return float(args.r1)
    except (TypeError, ValueError):
        raise CliError(f"--r1 must be a number or 'auto', got {args.r1!r}") from None


def _write_csv(args, meta: dict, header: list[str], rows: list[list]) -> None:
    lines = [f"# crackspec {meta.pop('command')} schema={SCHEMA_VERSION}"]
    if args.timestamps:
        import datetime
        lines.append(f"# generated = {datetime.datetime.now().isoformat()}")
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_svg(path: str, eps, curves: dict[str, np.ndarray], title: str) -> None:
    """Self-contained SVG line plot: one polyline per (sector, index)."""
    width, height, pad = 720, 480, 54
    xs = np.asarray(eps)
    ys = np.concatenate([v.ravel() for v in curves.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / xspan * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / yspan * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv, yv = x0 + frac * xspan, y0 + frac * yspan
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.3f}</text>')
        parts.append(f'<text x="{pad - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.1f}</text>')
    legend_y = pad
    for ci, (label, arr) in enumerate(sorted(curves.items())):
        color = palette[ci % len(palette)]
        for col in range(arr.shape[1]):
            if len(xs) < 2:
                continue
            d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, arr[:, col]))
            parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                         'stroke-width="1.6"/>')
        parts.append(f'<rect x="{width - pad - 120}" y="{legend_y}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 102}" y="{legend_y + 11}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
        legend_y += 18
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_disk_ref(args) -> None:
    ref = specfun.disk_spectrum(args.radius, args.count)
    rows = [[e.value, e.ell, e.k, e.multiplicity] for e in ref.entries]
    _write_csv(args, {"command": "disk-ref", "radius": args.radius,
                      "count": args.count},
               ["lambda", "ell", "k", "multiplicity"], rows)


def _cmd_annulus_ref(args) -> None:
    r1 = _resolve_r1(args)
    vals = specfun.annulus_spectrum(r1, args.r2, args.ell, args.count)
    mult = 1 if args.ell == 0 else 2
    rows = [[v, args.ell, k + 1, mult] for k, v in enumerate(vals)]
    _write_csv(args, {"command": "annulus-ref", "r1": r1, "r2": args.r2,
                      "ell": args.ell, "count": args.count},
               ["lambda", "ell", "k", "multiplicity"], rows)


def _cmd_solve(args) -> None:
    r1 = _resolve_r1(args)
    spec = build_cracked_disk(args.n, args.epsilon, r1, args.r2)
    merged = solve_full_spectrum(spec, args.grid, args.k, tol=args.tol)
    rows = []
    index_by_label: dict[str, int] = {}
    for value, label, residual in zip(merged.values, merged.labels, merged.residuals):
        index_by_label[label] = index_by_label.get(label, 0) + 1
        rows.append([merged.eps, label, index_by_label[label], value, residual])
    _write_csv(args, {"command": "solve", "n": args.n,
                      "epsilon_requested": args.epsilon, "epsilon": merged.eps,
                      "r1_requested": r1, "r1": merged.r1, "r2": args.r2,
                      "m": args.grid, "k": args.k, "tol": args.tol},
               ["epsilon", "sector", "index", "lambda", "residual"], rows)


def _epsilon_grid(args) -> np.ndarray:
    lo = args.eps_min if args.eps_min is not None else 0.05 * math.pi / args.n
    hi = args.eps_max if args.eps_max is not None else 0.97 * math.pi / args.n
    return np.linspace(lo, hi, args.steps)


def _cmd_sweep(args) -> None:
    r1 = _resolve_r1(args)
    spec = build_cracked_disk(args.n, 0.0, r1, args.r2)
    curve = sweep(spec, _epsilon_grid(args), args.grid, args.k, tol=args.tol)
    rows = []
    for ie, eps in enumerate(curve.epsilons):
        for tag in curve.sectors:
            for idx in range(args.k):
                rows.append([eps, tag.label, idx + 1, curve.values[tag.label][ie, idx],
                             curve.residuals[tag.label][ie, idx]])
    meta = {"command": "sweep", "n": args.n, "r1_requested": r1,
            "r1": curve.r1, "r2": args.r2,
            "m": args.grid, "k": args.k, "steps": args.steps, "tol": args.tol,
            "epsilon_min": curve.epsilons[0], "epsilon_max": curve.epsilons[-1]}
    _write_csv(args, meta, ["epsilon", "sector", "index", "lambda", "residual"], rows)
    if args.plot:
        path = (args.output or "sweep") + ".svg"
        _write_svg(path, curve.epsilons, curve.values,
                   f"lowest eigenvalues, n={args.n}, m={args.grid}")


def _cmd_crossings(args) -> None:
    r1 = _resolve_r1(args)
    spec = build_cracked_disk(args.n, 0.0, r1, args.r2)
    curve = sweep(spec, _epsilon_grid(args), args.grid, args.k, tol=args.tol)
    events = detect_crossings(curve, args.rank)
    rows = [[e.epsilon_star, e.lambda_star, e.rank, e.total_multiplicity,
             e.sector_a.label, e.sector_b.label] for e in events]
    _write_csv(args, {"command": "crossings", "n": args.n, "r1_requested": r1,
                      "r1": curve.r1, "r2": args.r2, "m": args.grid,
                      "k": args.k, "steps": args.steps, "rank": args.rank,
                      "tol": args.tol},
               ["epsilon_star", "lambda_star", "rank", "multiplicity",
                "sectorA", "sectorB"], rows)


def _cmd_quarter(args) -> None:
    r1 = _resolve_r1(args)
    spec = build_cracked_disk(2, args.epsilon, r1, args.r2)
    problem = next(p for p in quarter_problems(spec)
                   if p.quarter_case == args.case)
    sol = solve_sector(problem, args.grid, args.k, tol=args.tol)
    rows = [[sol.operator.grid.eps, args.case, i + 1, v, r]
            for i, (v, r) in enumerate(zip(sol.values, sol.residuals))]
    _write_csv(args, {"command": "quarter", "case": args.case,
                      "epsilon_requested": args.epsilon,
                      "epsilon": sol.operator.grid.eps,
                      "r1_requested": r1, "r1": sol.operator.grid.r1,
                      "r2": args.r2, "m": args.grid, "k": args.k, "tol": args.tol},
               ["epsilon", "sector", "index", "lambda", "residual"], rows)


def _cmd_asymptotics(args) -> None:
    r1 = _resolve_r1(args)
    mod = model(args.case, r1, args.r2)
    rows = [["model", mod.case, mod.law, mod.status, mod.lambda_limit,
             mod.coefficient, "", ""]]
    if args.fit:
        eps, lam = _read_curve_csv(args.fit)
        report = fit_coefficient(eps, lam, mod)
        for w in report.windows:
            rows.append(["fit_window", mod.case, mod.law, mod.status, "",
                         w.c_hat, w.delta_max, w.ratio])
        rss = law_competition(eps, lam, mod.lambda_limit)
        for law, value in sorted(rss.items()):
            rows.append(["law_rss", mod.case, law, "", "", value, "", ""])
    _write_csv(args, {"command": "asymptotics", "case": args.case, "r1": r1,
                      "r2": args.r2, "fit": args.fit or ""},
               ["record", "case", "law", "status", "lambda_limit",
                "coefficient", "delta_max", "ratio"], rows)


def _read_curve_csv(path: str):
    """The (epsilon, lambda) rows of one curve: a file whose `sector` or
    `index` column holds more than one value holds several, and is refused."""
    eps, lam, curves = [], [], set()
    with open(path, "r", encoding="utf-8") as fh:
        header, width = None, 0
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header, width = {name: i for i, name in enumerate(cells)}, len(cells)
                if "epsilon" not in header or "lambda" not in header:
                    raise CliError(f"{path}: need 'epsilon' and 'lambda' columns")
                continue
            if len(cells) < width:
                raise CliError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
            curves.add(tuple(cells[header[c]] for c in ("sector", "index") if c in header))
            try:
                e, v = float(cells[header["epsilon"]]), float(cells[header["lambda"]])
            except ValueError:
                e = v = math.nan
            if not (math.isfinite(e) and math.isfinite(v)):
                raise CliError(f"{path}:{lineno}: epsilon and lambda must be finite numbers")
            eps.append(e)
            lam.append(v)
    if not eps:
        raise CliError(f"{path}: no data rows")
    if len(curves) > 1:
        raise CliError(f"{path}: holds {len(curves)} curves (distinct sector and index "
                       "values); fit one curve at a time")
    return eps, lam


def _cmd_capacity(args) -> None:
    r1 = _resolve_r1(args)
    deltas = [float(x) for x in args.delta_list.split(",") if x.strip()]
    rows = []
    for d in deltas:
        a = additivity_ratio(r1, args.r2, d, args.grid)
        rows.append([d, a.cap_total, a.cap_plus, a.cap_minus, a.ratio])
    _write_csv(args, {"command": "capacity", "r1": r1, "r2": args.r2,
                      "m": args.grid, "delta_list": args.delta_list},
               ["delta", "cap_total", "cap_plus", "cap_minus", "ratio"], rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="crackspec", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="store_true",
                        help="print version and file-format schema and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, geometry=True, grid=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--output", "-o", help="CSV output path (default stdout)")
        p.add_argument("--timestamps", action="store_true",
                       help="embed a timestamp header (off for reproducibility)")
        if geometry:
            p.add_argument("--r1", default="auto",
                           help="inner radius, or 'auto' for j01/j02 * r2")
            p.add_argument("--r2", type=float, default=1.0)
        if grid:
            p.add_argument("-M", "--grid", type=int, default=180,
                           help="cells per direction")
            p.add_argument("-k", type=int, default=6, help="eigenvalues per sector")
            p.add_argument("--tol", type=float, default=1e-8,
                           help="residual certificate bound")

    p = sub.add_parser("disk-ref", help="closed-form disk spectrum")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    common(p, geometry=False, grid=False)
    p.set_defaults(func=_cmd_disk_ref)

    p = sub.add_parser("annulus-ref", help="closed-form annulus spectrum per ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    common(p, grid=False)
    p.set_defaults(func=_cmd_annulus_ref)

    p = sub.add_parser("solve", help="merged spectrum of the cracked disk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="eigenvalue curves over epsilon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-min", type=float, default=None)
    p.add_argument("--eps-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossings", help="sweep and locate sector crossings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-min", type=float, default=None)
    p.add_argument("--eps-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--rank", type=int, default=3, help="largest rank to report")
    common(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("quarter", help="one quarter-disk problem")
    p.add_argument("--case", choices=QUARTER_CASES, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_quarter)

    p = sub.add_parser("asymptotics", help="two-term crack asymptotics")
    p.add_argument("--case", choices=QUARTER_CASES, required=True)
    p.add_argument("--fit", help="curve CSV with epsilon and lambda columns")
    common(p, grid=False)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("capacity", help="condenser capacities of antipodal arcs")
    p.add_argument("--delta-list", default="0.4,0.2,0.1,0.05")
    common(p, grid=False)
    p.add_argument("-M", "--grid", type=int, default=180)
    p.set_defaults(func=_cmd_capacity)

    parser.commands = sub.choices
    return parser


def _with_config(parser: _Parser, argv: list[str]) -> list[str]:
    """`argv` with the entries of the chosen command's --config file turned
    into flags just after the command name.  argparse keeps the last value of
    an option, so the explicit flags that follow win."""
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    if at is None or argv[at] not in parser.commands:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[at + 1:])[0].config
    if path is None:
        return argv
    config = _read_config(path)
    tokens = []
    for action in parser.commands[argv[at]]._actions:
        if action.dest not in config or action.dest in ("help", "config"):
            continue
        value = config[action.dest]
        flag = max(action.option_strings, key=len)
        if action.nargs != 0:
            tokens.append(f"{flag}={value}" if flag.startswith("--") else flag + value)
        elif value.lower() not in ("true", "false"):
            raise CliError(f"{path}: {action.dest} must be true or false, got {value!r}")
        elif value.lower() == "true":
            tokens.append(flag)
    return argv[:at + 1] + tokens + argv[at + 1:]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(_with_config(parser, argv))
        if args.version:
            print(f"crackspec {__version__} (file-format schema {SCHEMA_VERSION})")
            return 0
        if not getattr(args, "command", None):
            parser.print_help()
            return 0
        args.func(args)
        return 0
    except CliError as exc:
        print(f"crackspec: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"crackspec: validation error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"crackspec: solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"crackspec: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
