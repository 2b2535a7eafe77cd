"""Command-line entry point: classify | parabolic | flecnodal | portrait |
sweep | verify-locus | golden-check.

Exit codes: 0 success, 2 usage/config error, 3 unresolved classification,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .bde import asymptotic_bde
from .classify import classify_monge
from .config import (
    COMMANDS,
    JobConfig,
    load_config_file,
    parse_fraction,
    parse_pairs,
    parse_range,
)
from .emit import (
    curves_csv,
    diagram_svg,
    fingerprints_json,
    loci_csv,
    report_json,
    scene_svg,
)
from .errors import ClassificationError, UsageError
from .families import SurfaceFamily, family_library
from .field import portrait
from .flecnodal import flecnodal_system, parabolic_poly
from .goldens import check_goldens
from .poly import VARS, format_poly, parse_poly
from .sweep import event_locus_verify, panel_scene, sweep, Scene
from .trace import trace_zero_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse's exit code 2, our format
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mongebde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value or JSON config file")
        sp.add_argument("--surface", help="inline Monge-form polynomial text")
        sp.add_argument("--table2", help="built-in family label, e.g. Pi_c2")
        sp.add_argument("--moduli", nargs="*", default=[], help="k=v pairs")
        sp.add_argument("--signs", nargs="*", default=[], help="k=v pairs")
        sp.add_argument("--params", help="t,u as rationals, e.g. -1/20,0")
        sp.add_argument("--window", help="x0,x1,y0,y1")
        sp.add_argument("--grid", type=int, help="sweep grid size")
        sp.add_argument("--resolution", type=int, help="curve-trace resolution")
        sp.add_argument("--out", help="output directory (default: stdout summary)")
        sp.add_argument("--locus", help="closed-form locus polynomial in t, u")
        sp.add_argument("--t", dest="t_range", help="sweep t range lo:hi")
        sp.add_argument("--u", dest="u_range", help="sweep u range lo:hi")
        sp.add_argument("--goldens", help="golden directory (golden-check)")
    return p


#: The keys a config file may set: every flag but --config, with t and u
#: for --t and --u.
_CONFIG_KEYS = frozenset(
    ("surface", "table2", "moduli", "signs", "params", "window", "grid",
     "resolution", "out", "locus", "t", "u", "goldens")
)


def _make_config(args) -> JobConfig:
    raw = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(
            f"config {args.config}: unknown key {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(_CONFIG_KEYS))}"
        )

    def pick(key, flag_value, convert=lambda v: v):
        if flag_value is not None and flag_value != []:
            return flag_value
        if key in raw:
            return convert(raw[key])
        return None

    def listify(v):
        return v if isinstance(v, list) else [v]

    kwargs = {"command": args.command}
    surface = pick("surface", args.surface)
    table2 = pick("table2", args.table2)
    if surface is not None:
        kwargs["surface"] = str(surface)
    if table2 is not None:
        kwargs["table2"] = str(table2)
    moduli = args.moduli or listify(raw.get("moduli", []))
    signs = args.signs or listify(raw.get("signs", []))
    kwargs["moduli"] = parse_pairs(moduli)
    kwargs["signs"] = _parse_sign_pairs(signs)
    params = pick("params", args.params)
    if params is not None:
        parts = str(params).split(",")
        if len(parts) != 2:
            raise UsageError(f"--params wants t,u; got {params!r}")
        kwargs["params"] = (parse_fraction(parts[0]), parse_fraction(parts[1]))
    window = pick("window", args.window)
    if window is not None:
        parts = str(window).split(",")
        if len(parts) != 4:
            raise UsageError(f"--window wants x0,x1,y0,y1; got {window!r}")
        try:
            kwargs["window"] = tuple(float(v) for v in parts)
        except ValueError as exc:
            raise UsageError(f"bad window {window!r}: {exc}") from None
    for key, flag in (("grid", args.grid), ("resolution", args.resolution)):
        value = pick(key, flag)
        if value is not None:
            try:
                kwargs[key] = int(value)
            except ValueError as exc:
                raise UsageError(f"bad {key} {value!r}: {exc}") from None
    for key, flag in (
        ("out", args.out),
        ("locus", args.locus),
        ("goldens", args.goldens),
    ):
        value = pick(key, flag)
        if value is not None:
            kwargs[key] = str(value)
    for key, flag in (("t_range", args.t_range), ("u_range", args.u_range)):
        value = pick(key.replace("_range", ""), flag)
        if value is not None:
            kwargs[key] = parse_range(str(value))
    return JobConfig(**kwargs)


def _parse_sign_pairs(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"expected key=+ or key=-, got {item!r}")
        key, _, value = item.partition("=")
        if value not in ("+", "-"):
            raise UsageError(f"sign for {key!r} must be + or -, got {value!r}")
        out[key.strip()] = value
    return out


def _load_family(cfg: JobConfig) -> SurfaceFamily:
    if cfg.surface is not None:
        p = parse_poly(cfg.surface)
        vs = tuple(n for n in VARS if n in ("x", "y") or n in p.varlist)
        return SurfaceFamily(f=p.extend(vs), trunc_deg=10**9)
    return family_library(cfg.table2, cfg.moduli or None, cfg.signs or None)


def _write(cfg: JobConfig, filename: str, content: str) -> None:
    if cfg.out is None:
        return
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, filename), "w", encoding="utf-8") as fh:
        fh.write(content)


def _params(cfg: JobConfig) -> tuple:
    return cfg.params if cfg.params is not None else (Fraction(0), Fraction(0))


def _cmd_classify(cfg: JobConfig) -> int:
    fam = _load_family(cfg)
    report = classify_monge(fam, _params(cfg))
    text = report.to_json() + "\n"
    _write(cfg, "report.json", text)
    print(text, end="")
    return EXIT_UNRESOLVED if report.stratum == "unresolved" else EXIT_OK


def _trace_command(cfg: JobConfig, which: str) -> int:
    fam = _load_family(cfg)
    if which == "parabolic":
        poly = parabolic_poly(fam)
    else:
        poly = flecnodal_system(fam).eliminant
    traced = trace_zero_set(poly, cfg.window, cfg.resolution, _params(cfg))
    _write(cfg, "report.json", report_json({
        "command": which,
        "polynomial": format_poly(poly),
        "n_branches": traced.n_branches(),
        "special_points": [
            {"x": float(x), "y": float(y), "tag": tag}
            for (x, y), tag in traced.special_points
        ],
    }))
    _write(cfg, "curves.csv", curves_csv([(which, traced.branches)]))
    scene = Scene(
        params=tuple(_params(cfg)),
        window=cfg.window,
        parabolic=traced if which == "parabolic" else None,
        flecnodal=traced if which == "flecnodal" else None,
        gauss_cusps=[],
        butterflies=[],
    )
    _write(cfg, "scene.svg", scene_svg(scene))
    print(f"{which}: {format_poly(poly)}")
    print(f"branches: {traced.n_branches()}, special points: {len(traced.special_points)}")
    return EXIT_OK


def _cmd_portrait(cfg: JobConfig) -> int:
    fam = _load_family(cfg)
    bde = asymptotic_bde(fam.f)
    curves = portrait(bde, cfg.window, _params(cfg))
    scene = panel_scene(
        fam, _params(cfg), cfg.window,
        resolution=cfg.resolution, with_butterflies=False,
    )
    scene.portrait_curves = curves
    _write(cfg, "curves.csv", curves_csv(
        [("portrait", curves)]
        + ([("parabolic", scene.parabolic.branches)] if scene.parabolic else [])
    ))
    _write(cfg, "scene.svg", scene_svg(scene))
    print(f"portrait: {len(curves)} integral curves")
    return EXIT_OK


def _cmd_sweep(cfg: JobConfig) -> int:
    fam = _load_family(cfg)
    diagram = sweep(
        fam, cfg.t_range, cfg.u_range, cfg.grid,
        window=cfg.window, components=("gauss_cusps", "parabolic_singular"),
        cell_grid=40, bisect_tol=1e-3,
    )
    _write(cfg, "diagram.svg", diagram_svg(diagram))
    _write(cfg, "fingerprints.json", fingerprints_json(diagram))
    _write(cfg, "curves.csv", loci_csv(diagram))
    print(f"sweep: {len(diagram.loci)} loci")
    for locus in diagram.loci:
        print(f"  {locus.label}: {len(locus.points)} points")
    return EXIT_OK


def _cmd_verify_locus(cfg: JobConfig) -> int:
    if cfg.locus is None:
        raise UsageError("verify-locus needs --locus with a polynomial in t, u")
    fam = _load_family(cfg)
    result = event_locus_verify(fam, parse_poly(cfg.locus))
    _write(cfg, "report.json", report_json({
        "command": "verify-locus",
        "locus": cfg.locus,
        "exact_factor": result.exact_factor,
        "ok": result.ok,
        "detail": result.detail,
    }))
    print(f"verify-locus: {result.detail}")
    return EXIT_OK if result.ok else EXIT_VERIFY


def _cmd_golden_check(cfg: JobConfig) -> int:
    results = check_goldens(cfg.goldens)
    bad = [r for r in results if not r.ok]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if bad:
        print(f"golden-check: {len(bad)} of {len(results)} artifacts diverge "
              f"(first: {bad[0].name})")
        return EXIT_VERIFY
    print(f"golden-check: all {len(results)} artifacts match")
    return EXIT_OK


def run(argv) -> int:
    try:
        # Finite parameters can still overflow once evaluated in floats.
        # Underflow is left alone: it is harmless and happens in normal runs.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args = _build_parser().parse_args(argv)
            cfg = _make_config(args)
            if cfg.command == "classify":
                return _cmd_classify(cfg)
            if cfg.command in ("parabolic", "flecnodal"):
                return _trace_command(cfg, cfg.command)
            if cfg.command == "portrait":
                return _cmd_portrait(cfg)
            if cfg.command == "sweep":
                return _cmd_sweep(cfg)
            if cfg.command == "verify-locus":
                return _cmd_verify_locus(cfg)
            if cfg.command == "golden-check":
                return _cmd_golden_check(cfg)
            raise UsageError(f"unhandled command {cfg.command!r}")
    except ClassificationError as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: float evaluation failed ({exc}); use smaller parameters", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
