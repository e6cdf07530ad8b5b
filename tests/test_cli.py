"""CLI front end: config handling, reports, exit codes, determinism."""

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qhm import (algebra, bimodule, calculus, cli, jets, laplace,
                 random_fields, yangmills)
from qhm.calculus import Perturbation, curvature_closed
from qhm.cli import (ConfigError, PipelineError, RunConfig, _parse_kv,
                     load_config, main, run_solve, run_verify)
from qhm.lattice import (BATTERY_SHIFT_UNITS, BATTERY_Y_MODES, CHAIN_DEPTH, Grid, Params,
                         TorusFunction, make_grid, y_bandwidth)
from qhm.morita import verify_bimodule_preservation
from qhm.projection import build_R
from qhm.random_fields import (random_module_vector, random_torus_function,
                               smooth_envelope)

from oracles import (curvature_star_form, inject_broken_unitary,
                     patch_spectral_mutant, set_grid_table)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def count_calls(monkeypatch, *targets, lens=False):
    """Record the name of each (module, name) function at every call made
    through any qhm binding of it; returns the list of recorded names, or
    with `lens` of (name, len() of each positional operand) tuples."""
    calls = []
    for mod, name in targets:
        fn = getattr(mod, name)

        def counting(*args, _name=name, _fn=fn, **kwargs):
            calls.append((_name, *map(len, args)) if lens else _name)
            return _fn(*args, **kwargs)

        for mod_name, m in list(sys.modules.items()):
            if mod_name.startswith("qhm") and getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, counting)
    return calls


def count_ffts(monkeypatch):
    """Record every numpy fft and ifft call; returns the list of names."""
    calls = []
    for name in ("fft", "ifft"):
        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            _parse_kv("bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            _parse_kv("seed = 1\nseed = 2\n")

    def test_comments_and_blanks_ignored(self):
        assert _parse_kv("# comment\n\nseed = 3  # trailing\n") == {"seed": "3"}

    def test_bad_rational_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("su = 0.3\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_su_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("su = 3/5\n")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # it raised UnicodeDecodeError out of load_config, a traceback
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"seed = 1  # \xff\n")
        code, _ = run(tmp_path, "verify", "--config", str(cfg))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        ("verify", "file/sub"), ("solve", "file"), ("morita", "file/sub")])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, out):
        # an --out below a file (NotADirectoryError) or on a file
        # (FileExistsError, from solve's CSVs, which come before the
        # report) raised out of main, a traceback
        (tmp_path / "file").write_text("kept\n")
        code = main([command, "--refinement", "9", "--out", str(tmp_path / out)])
        assert code == 2
        assert "output error" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("line", ["morita.broken_u = 0.05",
                                      "debug.tamper_star = true"])
    def test_fault_injection_keys_are_unknown(self, tmp_path, capsys, line):
        # the tests inject these faults; no config file sets them
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code, _ = run(tmp_path, "morita", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["tol.exact = 1/0",
                                      "tol.morita = abc"])
    def test_unparsable_number_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg), argparse.Namespace(
                refinement=None, seed=None, out=None))
        assert main(["morita", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, argv", [
        ("morita", "morita.sample_count = 0", []),
        ("morita", "morita.refinement = 0", []),
        ("morita", "seed = -1", []),
        ("verify", "", ["--seed", "-1"]),
        ("verify", "tol.exact = inf", []),
        ("verify", "tol.exact = nan", [])],
        ids=["sample_count", "morita_refinement", "seed", "seed_flag",
             "tol_inf", "tol_nan"])
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, command, line,
                                        argv):
        # an empty Morita battery or an infinite tolerance would pass
        # vacuously; a zero refinement or a negative seed has no grid or
        # generator to run on
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code, _ = run(tmp_path, command, "--config", str(cfg), *argv)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_grid_over_budget_exits_2_before_computing(self, tmp_path, capsys,
                                                       monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the computation started")

        for name in ("build_R", "verify_bimodule_preservation"):
            monkeypatch.setattr(cli, name, started)
        for command in ("solve", "verify"):
            code, _ = run(tmp_path, command, "--refinement", "100000")
            assert code == 2
            assert "grid error" in capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("morita.refinement = 100000\n")
        code, _ = run(tmp_path, "morita", "--config", str(cfg))
        assert code == 2

    def test_fine_verify_fits_the_budget(self, tmp_path, monkeypatch):
        # every check of verify runs on the pairwise-band grid (ny = 16), so
        # refinement 229 holds 176 thousand points; the refinement-tied grid
        # (ny = 916) held 10.07 million, over the budget
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(cli, "build_R", started)
        with pytest.raises(Started):
            run(tmp_path, "verify", "--refinement", "229")

    def test_tolerance_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        # a decimal and an exact rational a/b are both read as numbers
        cfg.write_text("tol.exact = 1e-10\ntol.morita = 1/10\nseed = 5\n")

        class NS:
            refinement = None
            seed = None
            out = None

        rc = load_config(str(cfg), NS())
        assert rc.tolerances["exact"] == 1e-10
        assert rc.tolerances["morita"] == 0.1
        assert rc.seed == 5


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        code, out = run(tmp_path, "verify")
        assert code == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert rep["all_pass"]
        names = {c["name"] for c in rep["checks"]}
        assert "projection_idempotent" in names
        assert "metric_compatibility" in names
        for c in rep["checks"]:
            assert c["anchor"]

    def test_deterministic_report(self, tmp_path):
        _, out1 = run(tmp_path / "a", "verify")
        _, out2 = run(tmp_path / "b", "verify")
        a = (out1 / "verify_report.json").read_bytes()
        b = (out2 / "verify_report.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("c, refinement, modes", [
        (1, 3, (0, 0)), (1, 4, (1, 1)), (2, 4, (0, 0)), (2, 7, (1, 1))])
    def test_pairwise_vectors_stay_resolved(self, tmp_path, c, refinement,
                                            modes):
        # <f, g>_D of two modulated, translated vectors needs
        # 2 * (5c + 2) + 1 y-samples at su = 1/4.  The refinement-tied grid
        # holds them only from refinement 4 (c = 1) or 7 (c = 2) on; below,
        # pairs resolve only for vectors without y-modes or shifts, `modes`
        # = (0, 0) against (BATTERY_Y_MODES, BATTERY_SHIFT_UNITS).
        # Verify's own grid holds the full band at every refinement.
        params = Params.from_steps(c, Fraction(1, 4), Fraction(1, 4))
        band = y_bandwidth(params, pairwise=True)
        tied = Grid(params, Fraction(1, 4 * refinement),
                    Fraction(1, 4 * refinement))
        full = (BATTERY_Y_MODES, BATTERY_SHIFT_UNITS)
        assert (tied.ny >= 2 * band + 1) == (modes == full)
        rep = run_verify(RunConfig(params=params, refinement=refinement,
                                   out=str(tmp_path)))
        assert rep["grid"]["ny"] >= 2 * band + 1
        checks = {ch["name"]: ch["pass"] for ch in rep["checks"]}
        assert checks["metric_compatibility"] and checks["commutator_x"]

    @pytest.mark.parametrize("config", [
        "c = 2\n",
        "c = 3\nsu = 1/4\nsv = 1/3\nrefinement = 4\n",
        "su = 1/5\nsv = 1/3\n"], ids=["c2", "c3-sv1/3-r4", "su1/5-sv1/3"])
    def test_coarse_pairs_are_not_aliased(self, tmp_path, config):
        # On the refinement-tied grid (ny = 8, 12 and 6 here) the wrap
        # phases e(-c k p y) of <f, g>_D aliased: metric_compatibility read
        # 25.1, 37.7 and 18.4, and commutator_x 3.20 in the second case
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        code, out = run(tmp_path, "verify", "--config", str(cfg))
        rep = json.loads((out / "verify_report.json").read_text())
        assert code == 0, [ch for ch in rep["checks"] if not ch["pass"]]

    @pytest.mark.parametrize("refinement", [2, 4, 9, 27, 45])
    @pytest.mark.parametrize("c, sv", [(1, Fraction(1, 4)), (2, Fraction(1, 4)),
                                       (3, Fraction(1, 3))])
    def test_grid_block_resolves_pairwise_band(self, tmp_path, c, sv,
                                               refinement):
        params = Params.from_steps(c, Fraction(1, 4), sv)
        rep = run_verify(RunConfig(params=params, refinement=refinement,
                                   out=str(tmp_path)))
        grid = rep["grid"]
        assert sorted(grid) == ["nx_unit", "ny", "y_bandwidth"]
        band = y_bandwidth(params, pairwise=True)
        assert grid["y_bandwidth"] == band
        assert grid["ny"] >= 2 * band + 1 and grid["ny"] % sv.denominator == 0
        assert grid["nx_unit"] == 4 * refinement
        assert [ch["name"] for ch in rep["checks"] if not ch["pass"]] == []

    @pytest.mark.parametrize("refinement", [9, 27])
    def test_vectors_are_the_tied_grid_draws(self, params, tmp_path,
                                             monkeypatch, refinement):
        # the banded grid samples the same functions: f and g2 equal the
        # refinement-tied draws of the same seed where the y-grids meet
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(random_module_vector(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(cli, "random_module_vector", recording)
        run_verify(RunConfig(params=params, refinement=refinement, seed=7,
                             out=str(tmp_path)))
        tied = Grid(params, Fraction(1, 4 * refinement),
                    Fraction(1, 4 * refinement))
        rng = np.random.default_rng(7)
        env = smooth_envelope(tied)
        f = random_module_vector(tied, rng, env)
        random_torus_function(tied, rng)
        g2 = random_module_vector(tied, rng, env)
        assert len(drawn) == 2
        ys = [Fraction(k, 4) for k in range(4)]
        for got, want in zip(drawn, (f, g2)):
            assert got.i0 == want.i0
            a = got.chain[:, :, [int(y * got.grid.ny) for y in ys]]
            b = want.chain[:, :, [int(y * tied.ny) for y in ys]]
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    def test_verify_builds_each_shared_piece_once(self, params, tmp_path,
                                                  monkeypatch):
        # <R, f>_D, each nabla0_W f, <R, t f>_D and <R, g2>_D are built
        # once and shared by the commutator, Leibniz and metric checks, and
        # Q = <R, R>_D once to order 1 for the projection checks, delta_Y
        # and the condition lists (which formed it again: 14 calls).  One
        # act_right applies nabla0 to a vector along X, Y and Z: one
        # direction per call made 14 calls.
        calls = count_calls(monkeypatch, (bimodule, "inner_D"),
                            (bimodule, "act_right"))
        run_verify(RunConfig(params=params, refinement=9, seed=7,
                             out=str(tmp_path)))
        assert (calls.count("inner_D"), calls.count("act_right")) == (13, 8)

    def test_verify_multiplies_by_no_unit_twist(self, params, tmp_path,
                                                 monkeypatch):
        # twist(a, b) with a b = 0 is exactly 1, and the kernels skip it
        # (Grid.twist_or_none): only the fold of the condition list d-2,
        # which is no kernel, takes one, at k = 0.  Multiplying by every
        # phase, the windows took 161 unit phases of 253, inner_D 100 of
        # 171 and inner_E 4 of 4.
        unit = Counter()
        twist = Grid.twist

        def counting(grid, a, b):
            if a * b == 0:
                unit[sys._getframe(1).f_code.co_name] += 1
            return twist(grid, a, b)

        monkeypatch.setattr(Grid, "twist", counting)
        run_verify(RunConfig(params=params, refinement=27, seed=7,
                             out=str(tmp_path)))
        assert unit == {"verify_R_conditions": 2}

    def test_verify_builds_the_envelope_once(self, params, tmp_path,
                                             monkeypatch):
        # both random module vectors are translates of one envelope
        calls = count_calls(monkeypatch, (random_fields, "smooth_envelope"))
        run_verify(RunConfig(params=params, refinement=27, seed=7,
                             out=str(tmp_path)))
        assert calls == ["smooth_envelope"]

    def test_verify_forms_each_product_to_the_order_it_reads(
            self, params, tmp_path, monkeypatch):
        # every check reads order 0, so an operand carries as many orders
        # as x-derivatives are still taken of it: depth 1 where a delta_Y
        # follows, depth 0 elsewhere.  With every operand at the full depth
        # the Leibniz products were {0: 3, 1: 101, 2: 139}.  The star form
        # of the curvature made them {0: 188, 1: 55}, 9 of them at depth 1
        # in Theta0(X,Z), whose order 1 verify does not read.  star
        # multiplies every (q, r) pair of components, also the one of
        # Q * Q whose row supports never meet.  The condition lists formed
        # Q again ({0: 166, 1: 52}); they take verify's Q.  One act_right
        # per vector along X, Y and Z, instead of one per direction, forms
        # each nabla0 batch's products once ({0: 163, 1: 52}).
        calls = count_calls(monkeypatch, (jets, "mul"), lens=True)
        run_verify(RunConfig(params=params, refinement=27, seed=7,
                             out=str(tmp_path)))
        assert Counter(min(a, b) - 1 for _, a, b in calls) == {0: 126, 1: 52}

    @pytest.mark.parametrize("error", [ValueError, calculus.StructureError])
    def test_broken_projection_is_a_failed_check(self, tmp_path, monkeypatch,
                                                 error):
        # a projection whose structure breaks (here extract_h_g's mirror
        # test, as a phase mutant of inner_D breaks it) fails one check of
        # a written report instead of ending in a traceback
        message = "delta_-1 component is not the conjugate mirror (2.00e+00)"

        def broken(R, Q):
            raise error(message)

        monkeypatch.setattr(cli, "verify_R_conditions", broken)
        code, out = run(tmp_path, "verify", "--refinement", "9")
        assert code == 1
        rep = json.loads((out / "verify_report.json").read_text())
        assert rep["all_pass"] is False
        failing = [c for c in rep["checks"] if not c["pass"]]
        assert failing == [{"name": "projection_conditions", "anchor": message,
                            "violation": float("inf"), "tolerance": 1e-12,
                            "pass": False}]
        assert not [c for c in rep["checks"]
                    if c["name"].startswith("condition_")]

    def test_tampered_star_fails(self, params, tmp_path):
        # as the benchmark's self-test sets it; no config key does
        rep = run_verify(RunConfig(params=params, out=str(tmp_path),
                                   tamper_star=True))
        assert not rep["all_pass"]
        failing = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert "projection_idempotent" in failing


def _kernel_row(f1):
    """f1's part on the d/dx kernel besides its mean: the x-Nyquist row on
    an even grid, zero on an odd one."""
    co = f1.fft().copy()
    co[0, 0] = 0.0
    return TorusFunction.from_fft(f1.grid, np.where(f1.dx_kernel(), co, 0.0))


def _misplaced_kernel_row(where):
    """build_perturbation with f1's kernel row taken out of G3 and, by
    `where`, dropped, put back into G3 with the wrong sign, or put into
    G1."""
    build = laplace.build_perturbation

    def mutant(f1, g3, c):
        pert = build(f1, g3, c)
        row = _kernel_row(f1) / c
        g1, g3 = pert.g1, pert.g3 - row
        if where == "g3-sign":
            g3 = g3 - row
        elif where == "g1":
            g1 = g1 + row
        return Perturbation(g1, pert.g2, g3)

    return mutant


class TestSolve:
    def test_solve_writes_report_and_csv(self, tmp_path):
        code, out = run(tmp_path, "solve", "--refinement", "9")
        assert code == 0
        rep = json.loads((out / "solve_summary.json").read_text())
        assert rep["all_pass"]
        for name in rep["csv_files"]:
            text = (out / name).read_text().splitlines()
            assert text[0] == "x,y,re,im"
            assert len(text) > 1

    def test_solve_csv_values_parse_exactly(self, params, tmp_path,
                                            monkeypatch):
        # every field is a plain float literal that reads back bit for bit
        made = {}
        verify_critical = cli.verify_critical

        def keep(*args, **kwargs):
            made.update(verify_critical(*args, **kwargs))
            return made

        monkeypatch.setattr(cli, "verify_critical", keep)
        cfg = RunConfig(params=params, refinement=9, seed=0, out=str(tmp_path))
        rep = run_solve(cfg)
        pert = made["perturbation"]
        funcs = {"f1.csv": made["f1"], "f2.csv": made["f2"],
                 "g3.csv": pert.g3, "g1.csv": pert.g1}
        assert sorted(rep["csv_files"]) == sorted(funcs)
        for name, g in funcs.items():
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "x,y,re,im"
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            grid = g.grid
            assert len(rows) == grid.su_steps * grid.ny
            for k, (x, y, re, im) in enumerate(rows):
                i, j = divmod(k, grid.ny)
                assert (x, y) == (i * grid.hx_f, j * grid.hy_f)
                assert complex(re, im) == g.samples[i, j]

    def test_solve_reports_its_grid(self, params, tmp_path):
        # the y-resolution follows the y-bandwidth of R, B = c, not the
        # refinement
        for refinement, nx_unit in ((9, 36), (27, 108)):
            cfg = RunConfig(params=params, refinement=refinement, seed=0,
                            out=str(tmp_path))
            assert run_solve(cfg)["grid"] == {
                "nx_unit": nx_unit, "ny": 4, "y_bandwidth": 1,
                "chain_depth": 2}
            lines = (tmp_path / "g3.csv").read_text().splitlines()
            assert len(lines) == 1 + refinement * 4

    def test_solve_deterministic(self, tmp_path):
        _, out1 = run(tmp_path / "a", "solve")
        _, out2 = run(tmp_path / "b", "solve")
        assert (out1 / "solve_summary.json").read_bytes() \
            == (out2 / "solve_summary.json").read_bytes()
        assert (out1 / "g3.csv").read_bytes() == (out2 / "g3.csv").read_bytes()

    def test_sweep_table(self, tmp_path):
        code, out = run(tmp_path, "solve", "--sweep", "--refinement", "3")
        assert code == 0
        rep = json.loads((out / "solve_summary.json").read_text())
        refs = [row["refinement"] for row in rep["sweep"]]
        assert refs == [3, 6, 9]
        assert all(row["pass"] is True and row["failed_checks"] == []
                   for row in rep["sweep"])

    def test_failing_sweep_row_fails_the_run(self, tmp_path, monkeypatch):
        # with f1's x-Nyquist row dropped, as when only the mean went into
        # G3, the even row 6 fails while the main refinement 3 passes
        monkeypatch.setattr(laplace, "build_perturbation",
                            _misplaced_kernel_row("dropped"))
        code, out = run(tmp_path, "solve", "--sweep", "--refinement", "3")
        assert code == 1
        rep = json.loads((out / "solve_summary.json").read_text())
        assert rep["all_pass"] is False
        assert all(c["pass"] for c in rep["checks"])
        assert [row["pass"] for row in rep["sweep"]] == [True, False, True]
        assert rep["sweep"][1]["failed_checks"] == ["critical_z", "theta_xy"]

    @pytest.mark.parametrize("refinement", [1, 2, 4], ids=["r1", "r2", "r4"])
    def test_unresolved_solve_is_not_a_pass(self, tmp_path, refinement):
        # the ramp has no interior samples and the curvature vanishes
        code, out = run(tmp_path, "solve", "--refinement", str(refinement))
        assert code == 1
        rep = json.loads((out / "solve_summary.json").read_text())
        assert rep["all_pass"] is False
        assert {c["name"] for c in rep["checks"] if not c["pass"]} \
            == {"curvature_resolved"}

    @pytest.mark.parametrize("su, refinement", [
        ("1/4", 6), ("1/4", 8), ("1/4", 18), ("1/4", 28), ("1/4", 90),
        ("2/7", 9), ("2/7", 27)],
        ids=["r6", "r8", "r18", "r28", "r90", "su2_7-r9", "su2_7-r27"])
    def test_even_grids_solve_exactly(self, tmp_path, su, refinement):
        # An even x-axis puts f1's x-Nyquist row on the kernel of the
        # discrete d/dx; at su = 2/7 every x-axis is even (2 r samples across
        # su).  G3 takes that row, so every check passes: r3 3.7e-15 at
        # su = 1/4, r = 8, where dropping the row left 3.9e-3.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"su = {su}\nsv = 1/4\n")
        code, out = run(tmp_path, "solve", "--config", str(cfg),
                        "--refinement", str(refinement))
        assert code == 0
        rep = json.loads((out / "solve_summary.json").read_text())
        assert rep["all_pass"] is True

    @pytest.mark.parametrize("where", ["g3-sign", "g1"])
    def test_misplaced_kernel_row_fails(self, tmp_path, monkeypatch, where):
        # the x-Nyquist row of f1 added to G3 with the wrong sign leaves
        # twice the row in Theta(X,Y), put into G1 it leaves the row itself
        monkeypatch.setattr(laplace, "build_perturbation",
                            _misplaced_kernel_row(where))
        code, out = run(tmp_path, "solve", "--refinement", "8")
        assert code == 1
        rep = json.loads((out / "solve_summary.json").read_text())
        failing = {c["name"] for c in rep["checks"] if not c["pass"]}
        assert failing == {"critical_z", "theta_xy"}
        assert rep["laplace_form"]["theta_xy"] > 0.5

    def test_resolved_solve_passes_every_check(self, tmp_path):
        code, out = run(tmp_path, "solve", "--refinement", "27")
        assert code == 0
        rep = json.loads((out / "solve_summary.json").read_text())
        assert rep["all_pass"] is True
        assert [c["name"] for c in rep["checks"]] == [
            "critical_x", "critical_y", "critical_z", "theta_xy",
            "curvature_resolved"]
        for c in rep["checks"]:
            assert c["pass"] is True and c["anchor"]

    def test_solve_reads_no_test_vectors(self, params, tmp_path, monkeypatch):
        # criticality is measured as elements of E: no test vector is drawn
        # (the operator oracle of the tests applies the connection to one)
        calls = count_calls(monkeypatch,
                            (random_fields, "random_module_vector"))
        cfg = RunConfig(params=params, refinement=9, seed=0, out=str(tmp_path))
        run_solve(cfg, sweep=True)
        assert calls == []

    def test_solve_batches_both_connections(self, params, tmp_path,
                                            monkeypatch):
        # The constructed and the Grassmannian connection share R, so the
        # three curvature components of both pass through the bimodule
        # kernels as one batch, with every derivation direction in one
        # act_right: one call of each kernel, next to curvature_closed's
        # one inner_D, act_right and inner_E.  The perturbation's
        # commutators are two batched stars and YM one per curvature.  One
        # batch per component pair made 4, 4, 4 and 3 kernel calls, 18
        # stars and 45 Leibniz products; one connection and one direction
        # at a time made 15, 15, 7 and 6 kernel calls.
        calls = count_calls(monkeypatch, *((bimodule, name) for name in (
            "act_right", "inner_E", "inner_D", "act_left")),
            (algebra, "star"), (jets, "mul"))
        run_solve(RunConfig(params=params, refinement=27, seed=0,
                            out=str(tmp_path)))
        counts = Counter(calls)
        assert counts.pop("star") <= 4
        assert counts.pop("mul") <= 19
        assert counts == {"act_right": 2, "inner_E": 2, "inner_D": 2,
                          "act_left": 1}

    def test_solve_forms_each_product_to_the_order_it_reads(
            self, params, monkeypatch):
        # The residuals and YM read order 0 of their elements; only
        # t = <R, T . R>_D, which delta_Y differentiates, is formed to
        # order 1.  With every operand at the full depth the residual stage
        # made the Leibniz products {0: 8, 1: 31, 2: 36} and YM {1: 2, 2: 4};
        # with one batch per component pair and one star per product,
        # {0: 20, 1: 12} and {0: 6}.
        R = build_R(params, make_grid(params, 27))
        rep = laplace.verify_critical(R)
        theta0 = rep["theta0"]
        nablas = [calculus.Connection(R, rep["perturbation"]),
                  calculus.Connection(R)]
        thetas = [calculus.curvature_perturbed(theta0, rep["perturbation"], params.c,
                                               CHAIN_DEPTH), theta0]
        calls = count_calls(monkeypatch, (jets, "mul"), lens=True)
        yangmills.critical_residuals(nablas, theta0, thetas)
        assert Counter(min(a, b) - 1 for _, a, b in calls) == {0: 6, 1: 4}
        calls.clear()
        for theta in thetas:
            yangmills.ym_of_curvature(theta)
        assert Counter(min(a, b) - 1 for _, a, b in calls) == {0: 2}

    def test_solve_builds_perturbed_curvature_once(self, params, tmp_path,
                                                   monkeypatch):
        # one theta of nabla0 + G serves the residuals and the YM value
        calls = count_calls(monkeypatch, (calculus, "curvature_perturbed"))
        run_solve(RunConfig(params=params, refinement=9, seed=0,
                            out=str(tmp_path)))
        assert calls == ["curvature_perturbed"]

    def test_solve_takes_each_transform_once(self, params, tmp_path,
                                             monkeypatch):
        # Torus functions keep their coefficients and first derivatives,
        # the profiles f1, f2 are kept on theta0, and the perturbed
        # curvature's chains stop at order 1, the most the residuals read;
        # the gauge G2 = 0 takes no transform, and delta_X transforms only
        # the rows act_right reads.  Taking every transform afresh, with
        # depth-2 chains, made 116; one act_right per component pair, 76.
        calls = count_ffts(monkeypatch)
        run_solve(RunConfig(params=params, refinement=27, seed=0,
                            out=str(tmp_path)))
        assert len(calls) <= 70

    def test_ym_ladder_refinement_takes_each_transform_once(
            self, params, monkeypatch):
        # One refinement of the construction as the ym-ladder benchmark
        # runs it: YM reads order 0 of the perturbed curvature, so its
        # multiplication elements take no transform, and the Laplace-form
        # residuals reuse the kept first derivatives; G2 = 0 takes no
        # transform.  Taking every transform afresh, with depth-2 chains,
        # made 98.
        c = params.c
        R = build_R(params, make_grid(params, 45))
        calls = count_ffts(monkeypatch)
        theta0 = calculus.curvature_closed(R)
        f1, f2 = calculus.extract_f1_f2(theta0)
        g3 = laplace.solve_poisson(laplace.assemble_rhs(f1, f2, c))
        pert = laplace.build_perturbation(f1, g3, c)
        yangmills.ym_value(calculus.Connection(R, pert), theta0)
        laplace.laplace_form_residuals(f1, f2, pert, c)
        assert len(calls) <= 52

    def test_solve_report_does_not_depend_on_seed(self, params, tmp_path):
        reps = [run_solve(RunConfig(params=params, refinement=9, seed=seed,
                                    out=str(tmp_path / str(seed))))
                for seed in (0, 5)]
        assert [r["config"].pop("seed") for r in reps] == [0, 5]
        assert reps[0] == reps[1]


def test_commands_leave_no_reference_cycles(params, tmp_path):
    # garbage in a reference cycle waits for the cyclic collector: a zero
    # torus function that held itself as its own derivative kept every
    # operation's grid, and the benchmark's peak RSS grew by about 4 MB
    cfg = RunConfig(params=params, refinement=9, seed=0, out=str(tmp_path),
                    morita_refinement=2)
    commands = (run_solve, run_verify, cli.run_morita)
    for command in commands:  # a first run may fill caches that outlive it
        command(cfg)
    gc.collect()
    gc.disable()
    try:
        for command in commands:
            command(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reports_write_json_booleans(tmp_path):
    # bool is a subclass of int; every pass flag must still read back as
    # true or false, not 1 or 0
    def flags(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k in ("pass", "all_pass"):
                    yield v
                yield from flags(v)
        elif isinstance(node, list):
            for v in node:
                yield from flags(v)

    for argv, name in ((["verify"], "verify_report.json"),
                       (["morita"], "morita_report.json"),
                       (["solve", "--refinement", "9"], "solve_summary.json"),
                       (["solve"], "solve_summary.json")):
        _, out = run(tmp_path / name, *argv)
        with open(out / name, encoding="utf-8") as fh:
            values = list(flags(json.load(fh)))
        assert len(values) > 1
        assert all(v is True or v is False for v in values)


class TestMorita:
    def test_clean_run_passes(self, tmp_path):
        code, out = run(tmp_path, "morita")
        assert code == 0
        rep = json.loads((out / "morita_report.json").read_text())
        assert rep["all_pass"]
        assert rep["sample_count"] == 20
        # ny = 2c/sv at every refinement; nx_unit = 4 * refinement
        assert rep["grid"] == {"nx_unit": 8, "ny": 8}

    def test_broken_unitary_fails(self, tmp_path, monkeypatch):
        inject_broken_unitary(monkeypatch, 0.05)
        code, out = run(tmp_path, "morita")
        assert code == 1
        rep = json.loads((out / "morita_report.json").read_text())
        assert {n for n, c in rep["checks"].items() if not c["pass"]} == {
            "inner_left", "inner_right", "membership_transport"}

    def test_every_check_has_its_anchor(self, grid2):
        # run_morita looks each check's anchor up by name: a missing one
        # raises, and this catches a stale extra one
        rep = verify_bimodule_preservation(grid2, sample_count=1, seed=0, tol=1e-10)
        assert set(rep["checks"]) == set(cli.MORITA_ANCHORS)

    def test_bad_rescale_exits_2_with_stage(self, tmp_path, capsys):
        # parameters on which S is no map cannot be honoured: input error.
        # c/sv = 4 is an integer, so the rescaling x -> -x/su is what fails
        cfg = tmp_path / "c.cfg"
        cfg.write_text("c = 2\nsu = 2/7\nsv = 1/2\n")
        code = main(["morita", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "morita grid error: 1/su" in capsys.readouterr().err

    @pytest.mark.parametrize("config, ny", [
        ("su = 1/4\nsv = -1/4\nmorita.refinement = 2\n", 8),
        ("su = 1/4\nsv = -1/4\nmorita.refinement = 8\n", 8),
        ("c = 3\nsu = 1/5\nsv = -1/3\nmorita.refinement = 5\n", 18)],
        ids=["c1-r2", "c1-r8", "c3-r5"])
    def test_negative_nu_passes(self, tmp_path, config, ny):
        # S(f) is y-periodic on ny samples iff ny divides |2c/sv|; ny = 2c/sv
        # was -8 at c = 1, sv = -1/4, and the run ended in a ValueError
        # traceback ("samples shape (1, 8, 0) does not match (S, 8, -8)")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        code, out = run(tmp_path, "morita", "--config", str(cfg))
        assert code == 0
        rep = json.loads((out / "morita_report.json").read_text())
        assert rep["all_pass"] and rep["grid"]["ny"] == ny
        assert max(c["violation"] for c in rep["checks"].values()) <= 1e-12

    @pytest.mark.parametrize("sv", ["2/5", "0"])
    def test_s_without_a_periodic_grid_exits_2(self, tmp_path, capsys, sv):
        # S(f) is y-periodic on some grid iff c/sv is an integer.  With c = 1
        # the grid of the refinement gave membership_transport 11.46 at
        # sv = 2/5; at sv = 0 every violation was NaN, and the run passed.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"su = 1/4\nsv = {sv}\n")
        code = main(["morita", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "morita grid error: c/sv" in capsys.readouterr().err


class TestChainDepth:
    def test_default_depth_needs_no_finite_differences(self, params,
                                                       tmp_path):
        # every x-derivative taken by solve and verify reads an exact chain
        # of the default depth; there is no finite-difference fallback, so
        # one that ran out would raise
        cfg = RunConfig(params=params, refinement=9, seed=0, out=str(tmp_path))
        run_solve(cfg)
        run_verify(cfg)

    def test_verify_reads_r_to_order_one(self, params, tmp_path,
                                         monkeypatch):
        # verify differentiates Q = <R, R>_D and <R, v>_D once, and never R
        # itself: an R of depth 1 writes the same report
        cfg = RunConfig(params=params, refinement=9, seed=7, out=str(tmp_path))
        full = run_verify(cfg)
        monkeypatch.setattr(cli, "build_R",
                            lambda p, g: build_R(p, g).upto(1))
        assert run_verify(cfg) == full

    def test_verify_refuses_r_without_order_one(self, params, tmp_path,
                                                monkeypatch):
        # a cut to depth 1 never deepens a shallower chain: at depth 0 the
        # first delta_Y raises, and no report is written
        monkeypatch.setattr(cli, "build_R",
                            lambda p, g: build_R(p, g).upto(0))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="chain exhausted"):
            main(["verify", "--refinement", "9", "--out", str(out)])
        assert not out.exists()

    def test_shallow_chain_is_refused(self, params, tmp_path, monkeypatch):
        # at depth 1 the deepest consumer runs out of its chain: the solve
        # stops with the stage that failed instead of approximating
        monkeypatch.setattr(cli, "build_R",
                            lambda p, g: build_R(p, g).upto(1))
        cfg = RunConfig(params=params, refinement=9, seed=0, out=str(tmp_path))
        with pytest.raises(PipelineError, match="chain exhausted"):
            run_solve(cfg)


def test_import_loads_no_sympy():
    # the ramp derivatives come from jet arithmetic, not symbolic algebra
    src = os.path.dirname(os.path.dirname(os.path.abspath(algebra.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, qhm.cli; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


# Report numbers recorded with repr at seeds 5 (solve) and 7 (verify).  The
# solve numbers date from solve's grid of the band of R alone (ny = 4 at
# c = 1); the verify numbers from verify's pairwise-band grid (ny = 16).  The
# curvature entries, the residuals, a0 and G3 date from the curvature paired
# from the three nabla0_W R, which moved them at rounding.  Any change of
# the order in which products are formed shows here.  Solve cases
# are keyed by (c, sv, refinement) at su = 1/4; the c = 3 case also pins
# the bytes of g3.csv, where G3 = solve + a0/c shows how a0/c is rounded.
PINNED_SOLVE = {
    (1, "1/4", 9): {"ym": 193.61006841215558, "ym_grassmannian": 977.5426280115385,
        "a0": -0.0 - 0.9071299842634867j,
        "residuals": {"r1": 2.9141263579581635e-15, "r2": 4.629077311030415e-17,
                      "r3": 5.63123805157741e-14,
                      "r3_osc": 5.63123805157741e-14,
                      "scale": 168.68066332793055},
        "residuals_grassmannian": {"r1": 1.7866980565843318,
                                   "r2": 4.1226725000993787e-16,
                                   "r3": 93.74260209351634,
                                   "r3_osc": 93.74260209351634,
                                   "scale": 168.68066332793055},
        "laplace_form": {"theta_xy": 6.1096239739432365e-15,
                         "second_eq_osc": 9.218373922047008e-12}},
    (1, "1/4", 27): {"ym": 159.10442281051886, "ym_grassmannian": 1032.0036713289012,
         "a0": -0.0 - 0.7878236853309557j,
         "residuals": {"r1": 7.720205024530294e-15, "r2": 5.312758504879962e-17,
                       "r3": 2.187710077520214e-13,
                       "r3_osc": 2.187710077520214e-13,
                       "scale": 200.7844860479144},
         "residuals_grassmannian": {"r1": 3.4329330349177645,
                                    "r2": 3.806094043902644e-16,
                                    "r3": 78.75391477928797,
                                    "r3_osc": 78.75391477928797,
                                    "scale": 200.7844860479144},
         "laplace_form": {"theta_xy": 6.521320009015137e-15,
                          "second_eq_osc": 4.558449557209083e-11}},
    (3, "1/3", 9): {
        "ym": 1742.4906157093992, "ym_grassmannian": 8797.883652103847,
        "a0": -0.0 - 2.721389952790463j,
        "residuals": {"r1": 2.774092431568852e-15, "r2": 8.640962581442774e-17,
                      "r3": 3.481942132871527e-14,
                      "r3_osc": 3.481942132871527e-14,
                      "scale": 506.0419899837916},
        "residuals_grassmannian": {"r1": 1.78669805658434,
                                   "r2": 6.8529241280416246e-15,
                                   "r3": 93.75606906553273,
                                   "r3_osc": 93.75606906553273,
                                   "scale": 506.0419899837916},
        "laplace_form": {"theta_xy": 3.5639084082774646e-14,
                         "second_eq_osc": 1.6956347336710117e-11},
        "g3_sha256": "bd8c6a6c6e31193915cecc528196a4c495a5fc76ef3a82256a919ba0bb5e08ad"},
}

PINNED_VERIFY = {
    "projection_idempotent": 3.3311988718462524e-16,
    "projection_selfadjoint": 2.2887833992611187e-16,
    "module_frame": 4.440892098500626e-16,
    "projection_trace": 0.0,
    "derivation_selfadjoint": 1.9131948672901813e-14,
    "condition_B-1": 0.0,
    "condition_B-2": 4.440892098500626e-16,
    "condition_B-3": 4.440892098500626e-16,
    "condition_C-1": 0.0,
    "condition_C-2": 4.440892098500626e-16,
    "condition_C-3": 0.0,
    "condition_b-1": 0.0,
    "condition_b-2": 1.2862871998485766e-16,
    "condition_b-3": 2.498001805406602e-16,
    "condition_d-1": 4.440892098500626e-16,
    "condition_d-2": 0.0,
    "curvature_xz_vanishes": 5.8724197013075876e-15,
    "curvature_profiles": 0.0,
    "commutator_x": 5.388121751833232e-15,
    "commutator_y": 3.83977687084634e-15,
    "commutator_z": 1.2581568522800448e-15,
    "laplace_eigenfunction": 8.473409486550037e-16,
    "connection_leibniz": 4.388214772253806e-16,
    "metric_compatibility": 2.8063003441783256e-14,
}


# verify at c = 2 and 3 (su = sv = 1/4, seed 7, refinement 9; ny = 28 and
# 36), recorded with repr before verify cut its chains to the orders each
# check reads; the curvature entries date from the paired nabla0_W R.
PINNED_VERIFY_C = {
    2: {"projection_idempotent": 3.789212013847933e-16,
        "projection_selfadjoint": 7.947987303456223e-16,
        "module_frame": 4.440892098500626e-16,
        "projection_trace": 0.0,
        "derivation_selfadjoint": 6.514653997020136e-14,
        "condition_B-1": 0.0,
        "condition_B-2": 4.440892098500626e-16,
        "condition_B-3": 4.440892098500626e-16,
        "condition_C-1": 0.0,
        "condition_C-2": 4.440892098500626e-16,
        "condition_C-3": 0.0,
        "condition_b-1": 0.0,
        "condition_b-2": 1.2862871998485766e-16,
        "condition_b-3": 2.7755575615628914e-16,
        "condition_d-1": 4.440892098500626e-16,
        "condition_d-2": 0.0,
        "curvature_xz_vanishes": 8.468987904196149e-14,
        "curvature_profiles": 0.0,
        "commutator_x": 1.0751030091480844e-14,
        "commutator_y": 3.759327134191922e-15,
        "commutator_z": 2.5811108998811775e-15,
        "laplace_eigenfunction": 1.4936523181711916e-15,
        "connection_leibniz": 6.55504057022151e-16,
        "metric_compatibility": 1.4111389359588649e-13},
    3: {"projection_idempotent": 6.500682264708994e-16,
        "projection_selfadjoint": 1.5752358999046824e-15,
        "module_frame": 4.440892098500626e-16,
        "projection_trace": 0.0,
        "derivation_selfadjoint": 1.2667056016373883e-13,
        "condition_B-1": 0.0,
        "condition_B-2": 4.440892098500626e-16,
        "condition_B-3": 4.440892098500626e-16,
        "condition_C-1": 0.0,
        "condition_C-2": 4.440892098500626e-16,
        "condition_C-3": 0.0,
        "condition_b-1": 0.0,
        "condition_b-2": 1.2862871998485766e-16,
        "condition_b-3": 2.7755575615628914e-16,
        "condition_d-1": 4.440892098500626e-16,
        "condition_d-2": 0.0,
        "curvature_xz_vanishes": 4.181042102445056e-13,
        "curvature_profiles": 0.0,
        "commutator_x": 1.6959410359972115e-14,
        "commutator_y": 3.8486428795075966e-15,
        "commutator_z": 5.084615561878411e-15,
        "laplace_eigenfunction": 1.4895204919483639e-15,
        "connection_leibniz": 4.3755669858510875e-16,
        "metric_compatibility": 3.1893527352072985e-13},
}


def _pinned_solve_id(case):
    c, _, refinement = case
    return str(refinement) if c == 1 else f"c{c}-r{refinement}"


@pytest.mark.parametrize("case", list(PINNED_SOLVE), ids=_pinned_solve_id)
def test_solve_report_is_pinned(tmp_path, case):
    c, sv, refinement = case
    params = Params.from_steps(c, Fraction(1, 4), Fraction(sv))
    cfg = RunConfig(params=params, refinement=refinement, seed=5,
                    out=str(tmp_path))
    rep = run_solve(cfg)
    rep["g3_sha256"] = hashlib.sha256(
        (tmp_path / "g3.csv").read_bytes()).hexdigest()
    assert {k: rep[k] for k in PINNED_SOLVE[case]} == PINNED_SOLVE[case]


def test_verify_report_is_pinned(params, tmp_path):
    cfg = RunConfig(params=params, refinement=9, seed=7, out=str(tmp_path))
    rep = run_verify(cfg)
    assert {c["name"]: c["violation"] for c in rep["checks"]} == PINNED_VERIFY


@pytest.mark.parametrize("c", sorted(PINNED_VERIFY_C))
def test_verify_report_is_pinned_at_higher_c(tmp_path, c):
    params = Params.from_steps(c, Fraction(1, 4), Fraction(1, 4))
    cfg = RunConfig(params=params, refinement=9, seed=7, out=str(tmp_path))
    rep = run_verify(cfg)
    assert {ch["name"]: ch["violation"] for ch in rep["checks"]} \
        == PINNED_VERIFY_C[c]


# The verify checks that read exactly 0.0 at the pinned configurations, and
# why:
# - condition_B-1, C-1, C-3, b-1 and d-2: products of ramp profiles whose
#   supports the bump keeps apart, so every product is an exact zero;
# - projection_trace: trace_D(Q) - su, where the p = 0 samples of Q sum
#   |R|^2 over the partition of unity and the sum rounds to su exactly;
# - curvature_profiles: a literal 0.0 whenever extract_f1_f2 returns.
# Any other check that reads exactly 0.0 has become vacuous, as the skew
# test of Theta0 did once Theta0 was paired Hermitian bit for bit, and has
# to be replaced by one that can fail.
STRUCTURAL_ZEROS = {"projection_trace", "condition_B-1", "condition_C-1",
                    "condition_C-3", "condition_b-1", "condition_d-2",
                    "curvature_profiles"}


@pytest.mark.parametrize("c", [1, 2, 3])
def test_only_structural_checks_read_zero(tmp_path, c):
    params = Params.from_steps(c, Fraction(1, 4), Fraction(1, 4))
    rep = run_verify(RunConfig(params=params, refinement=9, seed=7,
                               out=str(tmp_path)))
    assert {ch["name"] for ch in rep["checks"]
            if ch["violation"] == 0.0} == STRUCTURAL_ZEROS


def _delta_x_shift_flipped(orig):
    # delta_X with 2 pi i c p (x + p su/2) in place of (x - p su/2): the
    # flipped shift adds 2 pi i c p^2 su to the x-factor of every order
    # (of the orders the caller asks for)
    def derive_component(w, a, p, depth=None, rows=slice(None)):
        out = orig(w, a, p, depth, rows)
        if w == "X":
            params = a.grid.params
            out = out + (2j * np.pi * params.c * p * p * float(params.su)
                         * a.comps[p][:len(out), rows])
        return out
    return derive_component


def test_delta_x_shift_mutant_is_caught(params, tmp_path, monkeypatch):
    # delta_X Q is then no longer self-adjoint, and the closed form and the
    # star form of the curvature part (they agree only through that
    # premise).  The curvature passes through the same delta_X as the
    # residuals, so solve's checks do not see it; verify's do.
    mutant = _delta_x_shift_flipped(algebra.derive_component)
    for mod in (algebra, bimodule):
        monkeypatch.setattr(mod, "derive_component", mutant)
    rep = run_verify(RunConfig(params=params, refinement=9, seed=7,
                               out=str(tmp_path)))
    failed = {ch["name"]: ch["violation"] for ch in rep["checks"]
              if not ch["pass"]}
    assert set(failed) == {"derivation_selfadjoint", "metric_compatibility"}
    assert failed["derivation_selfadjoint"] > 1.0
    assert failed["metric_compatibility"] > 10.0
    R = build_R(params, make_grid(params, 9))
    new, old = curvature_closed(R), curvature_star_form(R)
    assert max((getattr(new, k) - getattr(old, k)).norm_inf()
               for k in ("xy", "xz", "yz")) > 1.0


def _laplace_check(params, tmp_path, refinement):
    rep = run_verify(RunConfig(params=params, refinement=refinement, seed=7,
                               out=str(tmp_path)))
    return next(c for c in rep["checks"] if c["name"] == "laplace_eigenfunction")


def test_laplace_check_passes_at_refinement_27(params, tmp_path):
    # it read 1.1949588973205556e-12 against 1e-12 when it compared
    # Laplace(chi) with lambda chi on the refinement-tied grid (ny = 108)
    lap = _laplace_check(params, tmp_path, 27)
    assert (lap["violation"], lap["pass"]) == (9.43689570931383e-16, True)


@pytest.mark.parametrize("mutant", ["shear", "sv", "mode"])
def test_laplace_check_catches_spectral_mutants(params, tmp_path, monkeypatch,
                                                mutant):
    # The spectral Laplacian of from_fft(delta) against the Laplace table
    # passed all three, at about 1e-13: both sides share the Grid's
    # tables.  The closed forms do not.
    patch_spectral_mutant(monkeypatch, mutant)
    lap = _laplace_check(params, tmp_path, 9)
    assert lap["violation"] > 0.5 and not lap["pass"]


def test_spectral_tables_are_built_once_per_grid(params, tmp_path, monkeypatch):
    # each skew-torus table and the one d/dy multiplier are built once per
    # grid, on first use, and kept read-only
    tables = ("shear_phase", "shear_phase_inv", "dx_multiplier",
              "dy_multiplier", "laplace_multiplier")
    calls, grids = Counter(), {}
    for name in tables:
        def counted(grid, _name=name, _build=vars(Grid)[name].func):
            calls[id(grid), _name] += 1
            grids[id(grid)] = grid
            return _build(grid)
        set_grid_table(monkeypatch, name, counted)
    run_solve(RunConfig(params=params, refinement=27, out=str(tmp_path)))
    assert len(grids) == 1
    assert calls == {(key, name): 1 for key in grids for name in tables}
    for grid in grids.values():
        for name in tables:
            assert getattr(grid, name) is getattr(grid, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0


def test_byte_identity_dump_at_one_grid_point(tmp_path):
    # tests/byte_identity.py at one (c, su, sv) and refinement: each run's
    # report, exit status and CSV hashes, the same bytes on a second dump
    import byte_identity
    runs = [("verify", 9, 7, ()), ("solve", 9, 0, ("--sweep",)),
            ("morita", 8, 0, ())]
    for out in ("a", "b"):
        byte_identity.dump(str(tmp_path / out), byte_identity.CASES[:1], runs)
    case = tmp_path / "a" / "c1-su1_4-sv1_4"
    assert sorted(p.name for p in case.iterdir()) == [
        "morita-r8-s0", "solve-r9-s0--sweep", "verify-r9-s7"]
    assert sorted(p.name for p in (case / "solve-r9-s0--sweep").iterdir()) == [
        "csv.sha256", "solve_summary.json", "status"]
    assert (case / "solve-r9-s0--sweep" / "csv.sha256").read_text().count(
        ".csv\n") == 4
    for run in case.iterdir():
        assert (run / "status").read_text() == "exit 0\n"
        for f in run.iterdir():
            twin = tmp_path / "b" / case.name / run.name / f.name
            assert f.read_bytes() == twin.read_bytes(), f
