"""Command line front end: verify | solve | morita.

Config files are flat key=value text; rationals are written "a/b" so the
commensurability-critical parameters stay exact.  Reports are JSON with
sorted keys (byte-identical across runs with the same config and seed);
solve additionally emits plot-ready CSV files with header "x,y,re,im".
Every check in a report carries an anchor string quoting the identity it
measures, so a failure cites the violated equation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, adjoint, derivation, residual_norm, star, trace
from .bimodule import act_left, act_right, inner_D, inner_E
from .calculus import StructureError, curvature_closed, extract_f1_f2, mult_element
from .lattice import (CHAIN_DEPTH, CommensurabilityError, Params,
                      TorusFunction, WindowOverflowError, make_grid, y_bandwidth)
from .laplace import laplace_form_residuals, verify_critical
from .morita import MoritaGridError, s_y_samples, verify_bimodule_preservation
from .projection import build_R, verify_R_conditions
from .random_fields import (random_module_vector, random_torus_function,
                            smooth_envelope)


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "c", "hbar", "mu", "nu", "su", "sv", "refinement", "seed", "out",
    "morita.sample_count", "morita.refinement",
    "tol.exact", "tol.conditions", "tol.curvature", "tol.commutator",
    "tol.poisson", "tol.connection", "tol.morita",
}

_DEFAULT_TOLS = {
    "exact": 1e-12, "conditions": 1e-12, "curvature": 1e-8,
    "commutator": 1e-8, "poisson": 1e-12, "connection": 1e-6,
    "morita": 1e-10,
}


@dataclass(frozen=True)
class RunConfig:
    params: Params
    refinement: int = 2
    seed: int = 0
    out: str = "out"
    tolerances: Dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_TOLS))
    morita_sample_count: int = 20
    morita_refinement: int = 2
    tamper_star: bool = False  # kept for bench/workloads.py's self-test


def _parse_kv(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _frac(kv: Dict[str, str], key: str, default: Optional[str]) -> Fraction:
    raw = kv.get(key, default)
    if "." in raw:
        raise ConfigError(f"{key}={raw!r}: write exact rationals as a/b")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}={raw!r} is not an exact rational") from exc


def _intval(kv, key, default):
    raw = kv.get(key, None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}={raw!r} is not an integer") from exc


def _floatval(kv, key, default):
    """A decimal or an exact rational a/b, as a float."""
    raw = kv.get(key, None)
    if raw is None:
        return default
    try:
        return float(Fraction(raw)) if "/" in raw else float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}={raw!r} is not a number") from exc


def load_config(path: Optional[str], overrides: argparse.Namespace) -> RunConfig:
    kv: Dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                kv = _parse_kv(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    c = _intval(kv, "c", 1)
    hbar = _frac(kv, "hbar", "1")
    if "su" in kv or "sv" in kv:
        su = _frac(kv, "su", "1/4")
        sv = _frac(kv, "sv", "1/4")
        try:
            params = Params.from_steps(c, su, sv, hbar)
        except (ValueError, CommensurabilityError) as exc:
            raise ConfigError(str(exc)) from exc
    else:
        mu = _frac(kv, "mu", "1/8")
        nu = _frac(kv, "nu", "1/8")
        try:
            params = Params(c=c, hbar=hbar, mu=mu, nu=nu)
        except (ValueError, CommensurabilityError) as exc:
            raise ConfigError(str(exc)) from exc
    tols = dict(_DEFAULT_TOLS)
    for name in tols:
        tols[name] = _floatval(kv, f"tol.{name}", tols[name])
        if not 0 < tols[name] < np.inf:  # an infinite tolerance passes anything
            raise ConfigError(f"tol.{name} must be positive and finite")
    cfg = RunConfig(
        params=params,
        refinement=_intval(kv, "refinement", 2),
        seed=_intval(kv, "seed", 0),
        out=kv.get("out", "out"),
        tolerances=tols,
        morita_sample_count=_intval(kv, "morita.sample_count", 20),
        morita_refinement=_intval(kv, "morita.refinement", 2),
    )
    if overrides.refinement is not None:
        cfg = replace(cfg, refinement=overrides.refinement)
    if overrides.seed is not None:
        cfg = replace(cfg, seed=overrides.seed)
    if overrides.out is not None:
        cfg = replace(cfg, out=overrides.out)
    for name, value in (("refinement", cfg.refinement),
                        ("morita.refinement", cfg.morita_refinement),
                        ("morita.sample_count", cfg.morita_sample_count)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    return cfg


# report plumbing ----------------------------------------------------------

def _check(name: str, anchor: str, violation: float, tol: float) -> Dict[str, object]:
    violation = float(violation)
    return {"name": name, "anchor": anchor, "violation": violation,
            "tolerance": tol, "pass": bool(violation <= tol)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


class OutputError(RuntimeError):
    """A report or CSV cannot be written under the output directory."""


def _write_text(path: str, text: str):
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def _write_report(path: str, report: Dict[str, object]):
    _write_text(path, json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")


def _write_torus_csv(path: str, g: TorusFunction):
    grid = g.grid
    lines = ["x,y,re,im"]
    ys = [repr(j * grid.hy_f) for j in range(grid.ny)]
    # tolist() yields Python floats, which repr as plain floats
    for i, (re_row, im_row) in enumerate(zip(g.samples.real.tolist(),
                                             g.samples.imag.tolist())):
        x = repr(i * grid.hx_f)
        lines += [f"{x},{y},{re!r},{im!r}" for y, re, im in zip(ys, re_row, im_row)]
    _write_text(path, "\n".join(lines) + "\n")


def _tamper(elem: AlgebraElement) -> AlgebraElement:
    """Deliberately wrong product result: negate the top p-component."""
    if not elem.comps:
        return elem
    bad = max(elem.p_support)
    comps = {p: (-ch if p == bad else ch.copy()) for p, ch in elem.comps.items()}
    return AlgebraElement(elem.flavor, elem.grid, comps)


# verify -------------------------------------------------------------------

def run_verify(cfg: RunConfig) -> Dict[str, object]:
    # <f, g>_D of two modulated, translated vectors carries the wrap phases
    # e(-c k p y) up to the pairwise band B = y_bandwidth(pairwise=True), so
    # every check runs on the grid of that band (ny >= 2B + 1 at every
    # refinement) and draws full-band vectors.  The grid is checked against
    # the budget before any array exists.  Every check reads values, and
    # order 0 of a Leibniz product is a[0] * b[0] at any depth, so each
    # operand is cut to as many orders as x-derivatives are still taken of
    # it: depth 1 before a delta_Y, else 0 (a cut never deepens a chain, so
    # one too short still raises in chain_dx).
    grid = make_grid(cfg.params, cfg.refinement, pairwise=True)
    tol = cfg.tolerances
    checks: List[Dict[str, object]] = []

    R = build_R(cfg.params, grid)
    R0, R1 = R.upto(0), R.upto(1)
    # only delta_Y reads order 1 of Q; the other checks hold a copy of order
    # 0, so that order 1 is freed once the derivation check has read it
    Q1 = inner_D(R1, R1)
    Q = AlgebraElement(Q1.flavor, grid, {p: c[:1].copy() for p, c in Q1.comps.items()})
    qq = star(Q, Q)
    if cfg.tamper_star:
        qq = _tamper(qq)
    checks.append(_check("projection_idempotent", "Q * Q = Q",
                         residual_norm(qq, Q), tol["exact"]))
    checks.append(_check("projection_selfadjoint", "adjoint(Q) = Q",
                         residual_norm(adjoint(Q), Q), tol["exact"]))
    ee = inner_E(R0, R0)
    ident = AlgebraElement.identity(ee.flavor, grid, depth=0)
    checks.append(_check("module_frame", "<R,R>_E = Id",
                         residual_norm(ee, ident), tol["exact"]))
    checks.append(_check("projection_trace", "trace_D(Q) = 2 hbar mu",
                         abs(trace(Q) - float(cfg.params.su)), 1e-10))
    # curvature_closed pairs the nabla0_W R on the premise that each delta_W Q
    # is self-adjoint
    dq = (derivation(w, q) for w, q in (("X", Q), ("Y", Q1), ("Z", Q)))
    checks.append(_check("derivation_selfadjoint", "adjoint(delta_W Q) = delta_W Q",
                         np.max([residual_norm(adjoint(d), d) for d in dq]),
                         tol["curvature"]))
    del Q1

    try:
        conditions = verify_R_conditions(R0, Q)
    except ValueError as exc:  # StructureError is one
        # a faulty structure (extract_h_g's mirror test, say) is a failed
        # check of a written report, not a traceback
        checks.append(_check("projection_conditions", str(exc), np.inf,
                             tol["conditions"]))
    else:
        for name, dev in sorted(conditions.items()):
            checks.append(_check(f"condition_{name}",
                                 f"projection condition ({name})",
                                 dev, tol["conditions"]))

    try:
        # delta_Y Q reads order 1 of Q = <R, R>_D
        theta0 = curvature_closed(R1)
        checks.append(_check("curvature_xz_vanishes", "Theta0(X,Z) = 0",
                             theta0.xz.norm_inf(), tol["curvature"]))
        extract_f1_f2(theta0)
        checks.append(_check(
            "curvature_profiles",
            "Theta0(X,Y), Theta0(Y,Z) = (imaginary x-profile) delta_0",
            0.0, tol["curvature"]))
    except StructureError as exc:
        checks.append(_check("curvature_profiles", str(exc), np.inf,
                             tol["curvature"]))

    rng = np.random.default_rng(cfg.seed)
    env = smooth_envelope(grid)
    f = random_module_vector(grid, rng, envelope=env).upto(1)
    # nabla0_W v = R . delta_W <R, v>_D differentiates <R, v>_D once, so each
    # vector's <R1, v>_D is formed once and one act_right applies nabla0 to
    # v along every direction.  phi = <R, f>_D and nabla0_W f serve the
    # commutator, Leibniz and metric checks alike.
    phi = inner_D(R1, f)
    nabla_f = dict(zip("XYZ", act_right(R0, phi, "XYZ").members()))
    g = random_torus_function(grid, rng)
    scale = max(f.norm_inf() * g.norm_inf(), 1e-30)
    gx = act_left(mult_element(g.d_dx(), 0), f)
    gy = act_left(mult_element(g.d_dy(), 0), f)
    # [nabla0_W, G] f = nabla0_W(t f) - t nabla0_W f, t the element of G
    t = mult_element(g, 1)
    tf = act_left(t, f)
    phi_tf = inner_D(R1, tf)
    com = {w: v - act_left(t, nabla_f[w])
           for w, v in zip("XYZ", act_right(R0, phi_tf, "XYZ").members())}
    checks.append(_check("commutator_x", "[nabla0_X, G] = -(dG/dy) as operator",
                         (com["X"] + gy).norm_inf() / scale, tol["commutator"]))
    checks.append(_check("commutator_y", "[nabla0_Y, G] = -(dG/dx) as operator",
                         (com["Y"] + gx).norm_inf() / scale, tol["commutator"]))
    checks.append(_check("commutator_z", "[nabla0_Z, G] = 0",
                         com["Z"].norm_inf() / scale, tol["commutator"]))

    # Closed forms, not the spectral tables that made chi: chi_{n,m} = e(kx x
    # + ky y), and the coefficients of its derivatives relative to their size
    # (the roundoff of Laplace(chi) - lambda chi grows like eps max|lambda|).
    n, m = 0, 1
    kx, ky = float((n - cfg.params.sv * m) / cfg.params.su), m
    co = np.zeros((grid.su_steps, grid.ny), complex)
    co[n, m] = 1.0
    chi = TorusFunction.from_fft(grid, co)
    dx, dy = chi.d_dx(), chi.d_dy()
    xs = grid.x_of(np.arange(grid.su_steps))[:, None]
    lap = [np.max(np.abs(chi.samples - np.exp(2j * math.pi * (kx * xs + ky * grid.ys))))]
    lap += [abs(t.fft()[n, m] - want) / max(abs(want), 1.0) for t, want in (
        (dx, 2j * math.pi * kx), (dy, 2j * math.pi * ky),
        (dx.d_dx() + dy.d_dy(), -4 * math.pi ** 2 * (kx ** 2 + ky ** 2)))]
    checks.append(_check("laplace_eigenfunction", "chi_{n,m} = e(n x/su + m (y - "
                         "sv x/su)) has d/dx, d/dy, Laplace = 2 pi i kx, 2 pi i "
                         "ky, -4 pi^2 (kx^2 + ky^2)", np.max(lap), tol["poisson"]))
    del g, chi, dx, dy  # torus functions keep their transforms: free them here

    f_phi = act_right(f, phi)
    (lhs,) = act_right(R0, inner_D(R1, f_phi), "Y").members()
    # Leibniz along Y: nabla(f Phi) = (nabla f) Phi + f delta(Phi)
    rhs = act_right(nabla_f["Y"], phi) + act_right(f, derivation("Y", phi))
    lscale = max(lhs.norm_inf(), rhs.norm_inf(), 1e-30)
    checks.append(_check("connection_leibniz",
                         "nabla(f Phi) = (nabla f) Phi + f delta(Phi)",
                         (lhs - rhs).norm_inf() / lscale, tol["connection"]))
    g2 = random_module_vector(grid, rng, envelope=env).upto(1)
    fg2 = inner_D(f, g2)
    nabla_g2 = act_right(R0, inner_D(R1, g2), "XYZ").members()
    # only delta_Y reads order 1 of <f, g2>_D; each residual reads order 0.
    # np.max keeps a NaN, which max() drops behind a number
    met = np.max([residual_norm(derivation(w, fg2 if w == "Y" else fg2.upto(0)),
                                inner_D(nabla_f[w], g2), inner_D(f, ng))
                  for w, ng in zip("XYZ", nabla_g2)])
    mscale = max(fg2.norm_inf(), 1e-30)
    checks.append(_check("metric_compatibility",
                         "delta<f,g>_D = <nabla f, g>_D + <f, nabla g>_D",
                         met / mscale, tol["connection"]))

    return {
        "command": "verify",
        "config": _config_summary(cfg),
        "grid": {"nx_unit": grid.nx_unit, "ny": grid.ny,
                 "y_bandwidth": y_bandwidth(cfg.params, pairwise=True)},
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def _config_summary(cfg: RunConfig) -> Dict[str, object]:
    p = cfg.params
    return {"c": p.c, "hbar": str(p.hbar), "mu": str(p.mu), "nu": str(p.nu),
            "su": str(p.su), "sv": str(p.sv),
            "refinement": cfg.refinement, "seed": cfg.seed}


# solve --------------------------------------------------------------------

def _solve_at(cfg: RunConfig, refinement: int):
    """The critical construction at one refinement, with its Laplace-form
    residuals and solve's five checks of it."""
    grid = make_grid(cfg.params, refinement)
    tol = cfg.tolerances
    try:
        rep = verify_critical(build_R(cfg.params, grid))
    except (StructureError, ValueError) as exc:
        raise PipelineError(f"stage 'critical-point construction' failed: {exc}") from exc
    res = rep["residuals"]
    cor = rep["laplace_form"] = laplace_form_residuals(
        rep["f1"], rep["f2"], rep["perturbation"], cfg.params.c)
    rep["checks"] = [
        _check("critical_x", "[nabla_Y, Theta(X,Y)] + [nabla_Z, Theta(X,Z)] = 0",
               res["r1"], tol["connection"]),
        _check("critical_y", "[nabla_X, Theta(Y,X)] + [nabla_Z, Theta(Y,Z)] = 0",
               res["r2"], tol["connection"]),
        _check("critical_z", "[nabla_X, Theta(Z,X)] + [nabla_Y, Theta(Z,Y)]"
               " - c Theta(X,Y) = 0", res["r3"], tol["connection"]),
        _check("theta_xy", "f1 + dx G1 - dy G2 - c G3 = 0",
               cor["theta_xy"], tol["curvature"]),
        # a ramp without interior samples gives zero curvature, which is
        # trivially critical
        _check("curvature_resolved", "1 / sup |Theta0| <= 1",
               1.0 / res["scale"], 1.0),
    ]
    return grid, rep


def run_solve(cfg: RunConfig, sweep: bool = False) -> Dict[str, object]:
    report: Dict[str, object] = {"command": "solve",
                                 "config": _config_summary(cfg)}
    grid, rep = _solve_at(cfg, cfg.refinement)
    pert = rep["perturbation"]
    report.update({k: rep[k] for k in (
        "a0", "residuals", "residuals_grassmannian", "ym", "ym_grassmannian",
        "laplace_form", "checks")})
    report["discarded_zero_mode"] = rep["discarded_mean"]
    report["grid"] = {"nx_unit": grid.nx_unit, "ny": grid.ny,
                      "y_bandwidth": y_bandwidth(cfg.params),
                      "chain_depth": CHAIN_DEPTH}
    report["csv_files"] = ["f1.csv", "f2.csv", "g3.csv", "g1.csv"]
    _write_torus_csv(os.path.join(cfg.out, "f1.csv"), rep["f1"])
    _write_torus_csv(os.path.join(cfg.out, "f2.csv"), rep["f2"])
    _write_torus_csv(os.path.join(cfg.out, "g3.csv"), pert.g3)
    _write_torus_csv(os.path.join(cfg.out, "g1.csv"), pert.g1)
    if sweep:
        # every row is judged by the same five checks
        report["sweep"] = []
        for mult in (1, 2, 3):
            ref = cfg.refinement * mult
            sgrid, srep = (grid, rep) if mult == 1 else _solve_at(cfg, ref)
            failed = [c["name"] for c in srep["checks"] if not c["pass"]]
            report["sweep"].append({
                "refinement": ref, "hx": sgrid.hx_f, "ym": srep["ym"],
                **{k: srep["residuals"][k] for k in ("r1", "r2", "r3")},
                "failed_checks": failed, "pass": not failed})
    report["all_pass"] = all(c["pass"] for c in
                             rep["checks"] + report.get("sweep", []))
    return report


class PipelineError(RuntimeError):
    """A stage of a command failed; the message names the stage."""


# morita -------------------------------------------------------------------

MORITA_ANCHORS = {
    "left_action": "S(phi . f) = H(phi) . S(f)",
    "right_action": "S(f . phi) = S(f) . H(phi)",
    "inner_left": "<S f, S g>_L = H(<f,g>_L)",
    "inner_right": "<S f, S g>_R = H(<f,g>_R)",
    "membership_transport": "S(f) lies in the first spectral subspace",
}


def run_morita(cfg: RunConfig) -> Dict[str, object]:
    # make_grid's x-step and ny = |2c/sv|, on which S(f) is y-periodic; the
    # checks' y-operations are pointwise or rolls by sv_steps, so no y-band
    # binds.  All samples are one batch, cut into chunks of at most
    # lattice.GRID_BUDGET points so that any sample count fits in memory.
    # Parameters on which S or H is no map raise MoritaGridError (exit 2).
    grid = replace(make_grid(cfg.params, cfg.morita_refinement),
                   hy=Fraction(1, s_y_samples(cfg.params)))
    rep = verify_bimodule_preservation(
        grid, cfg.morita_sample_count, seed=cfg.seed,
        tol=cfg.tolerances["morita"])
    rep["command"] = "morita"
    rep["config"] = _config_summary(cfg)
    rep["grid"] = {"nx_unit": grid.nx_unit, "ny": grid.ny}
    for name, chk in rep["checks"].items():
        chk["anchor"] = MORITA_ANCHORS[name]
    return rep


# entry point --------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhm",
        description="Projective-module calculus on quantum Heisenberg "
                    "manifolds: verification, critical-point solve, "
                    "equivalence-bimodule checks.")
    parser.add_argument("command", choices=["verify", "solve", "morita"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--refinement", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--sweep", action="store_true",
                        help="solve: add a refinement sweep table")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            report = run_verify(cfg)
            out_name = "verify_report.json"
        elif args.command == "solve":
            report = run_solve(cfg, sweep=args.sweep)
            out_name = "solve_summary.json"
        else:
            report = run_morita(cfg)
            out_name = "morita_report.json"
        _write_report(os.path.join(cfg.out, out_name), report)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except WindowOverflowError as exc:
        print(f"grid error: {exc}", file=sys.stderr)
        return 2
    except MoritaGridError as exc:
        print(f"morita grid error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    ok = bool(report.get("all_pass", False))
    print(f"{args.command}: {'ok' if ok else 'FAIL'} "
          f"(report: {os.path.join(cfg.out, out_name)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
