"""Connection, curvature and multiplication-commutator tests."""

from fractions import Fraction

import numpy as np
import pytest

from qhm.algebra import adjoint, derivation
from qhm.bimodule import act_left, act_right, inner_D
from qhm.calculus import (Connection, Perturbation, StructureError,
                          curvature_closed, curvature_perturbed, extract_f1_f2,
                          mult_element)
from qhm.laplace import assemble_rhs, build_perturbation, solve_poisson
from qhm.lattice import CHAIN_DEPTH, Params, TorusFunction, make_grid
from qhm.projection import build_R
from qhm.random_fields import (random_module_vector, random_torus_function,
                               smooth_envelope)

from oracles import (character_frequencies, commutator_mult, curvature_definition,
                     curvature_star_form, nabla_of, random_perturbation, skew_defect)

def narrow_vector(grid, rng):
    """A y-constant vector at the origin, a random multiple of the
    envelope: a pair of spread-out, modulated vectors carries more y-modes
    than grid2 (ny = 8) holds."""
    return smooth_envelope(grid).scaled(complex(rng.normal(), rng.normal()))


def vector_pair(grid, rng, narrow=False):
    if narrow:
        return narrow_vector(grid, rng), narrow_vector(grid, rng)
    env = smooth_envelope(grid)
    return random_module_vector(grid, rng, env), random_module_vector(grid, rng, env)


@pytest.mark.parametrize("grid_fixture", ["grid2", "grid9"])
def test_skew_symmetrization_matches_loop(grid_fixture, request):
    # reference: the per-entry loop that the array expression replaced, on
    # the same draws; the results must agree bitwise
    grid = request.getfixturevalue(grid_fixture)
    nx, ny = grid.su_steps, grid.ny
    rng = np.random.default_rng(3)
    co = np.zeros((nx, ny), complex)
    for n in range(-2, 3):
        for m in range(-1, 2):
            co[n % nx, m % ny] = complex(rng.normal(), rng.normal())
    herm = np.zeros_like(co)
    for n in range(nx):
        for m in range(ny):
            herm[n, m] = 0.5 * (co[n, m] + np.conj(co[-n % nx, -m % ny]))
    ref = TorusFunction.from_fft(grid, 1j * herm)
    g = random_torus_function(grid, np.random.default_rng(3))
    assert np.array_equal(g.samples, ref.samples)


class TestConnectionAxioms:
    def test_leibniz(self, grid2, R2, rng):
        f, _ = vector_pair(grid2, rng, narrow=True)
        nabla0 = Connection(R2)
        phi = inner_D(R2, f)
        for w in "XYZ":
            lhs = nabla_of(nabla0, w, act_right(f, phi))
            rhs = act_right(nabla_of(nabla0, w, f), phi) \
                + act_right(f, derivation(w, phi))
            scale = max(lhs.norm_inf(), rhs.norm_inf(), 1e-30)
            assert (lhs - rhs).norm_inf() < 1e-11 * scale

    @pytest.mark.parametrize("refinement_fixture, narrow",
                             [("grid2", True), ("grid4", False)],
                             ids=["grid2", "grid4"])
    def test_metric_compatibility(self, refinement_fixture, narrow, request,
                                  rng):
        grid = request.getfixturevalue(refinement_fixture)
        R = request.getfixturevalue("R" + refinement_fixture[-1])
        f, g = vector_pair(grid, rng, narrow)
        nabla0 = Connection(R)
        scale = max(inner_D(f, g).norm_inf(), 1e-30)
        for w in "XYZ":
            dev = (derivation(w, inner_D(f, g))
                   - inner_D(nabla_of(nabla0, w, f), g)
                   - inner_D(f, nabla_of(nabla0, w, g))).norm_inf()
            assert dev < 1e-11 * scale

    def test_grassmann_reproduces_r(self, grid2, R2):
        # nabla0 fixes the module generated by R: R <R,R> = R
        assert (act_right(R2, inner_D(R2, R2)) - R2).norm_inf() < 1e-12


class TestCommutators:
    @pytest.mark.parametrize("w,deriv_axis,sign",
                             [("X", "y", -1), ("Y", "x", -1)])
    def test_mult_commutator_is_derivative(self, grid4, R4, rng, w,
                                           deriv_axis, sign):
        f = random_module_vector(grid4, rng, smooth_envelope(grid4))
        g = random_torus_function(grid4, rng)
        nabla0 = Connection(R4)
        d = g.d_dy() if deriv_axis == "y" else g.d_dx()
        com = commutator_mult(nabla0, g, w, f)
        ref = act_left(mult_element(d, 1), f).scaled(sign)
        scale = max(f.norm_inf() * g.norm_inf(), 1e-30)
        assert (com - ref).norm_inf() < 1e-10 * scale

    def test_z_commutator_vanishes(self, grid4, R4, rng):
        f = random_module_vector(grid4, rng, smooth_envelope(grid4))
        g = random_torus_function(grid4, rng)
        nabla0 = Connection(R4)
        scale = max(f.norm_inf() * g.norm_inf(), 1e-30)
        assert commutator_mult(nabla0, g, "Z", f).norm_inf() < 1e-10 * scale

    def test_commutator_on_character(self, grid4, R4):
        # analytic oracle: G = chi character, derivative has a closed form
        import math
        co = np.zeros((grid4.su_steps, grid4.ny), complex)
        co[1, 1] = 1j
        g = TorusFunction.from_fft(grid4, co)
        kx, ky = character_frequencies(grid4)
        f = random_module_vector(grid4, np.random.default_rng(5), smooth_envelope(grid4))
        nabla0 = Connection(R4)
        com = commutator_mult(nabla0, g, "Y", f)
        dg = g * (2j * math.pi * kx[1, 1])
        ref = act_left(mult_element(dg, 1), f).scaled(-1)
        assert (com - ref).norm_inf() < 1e-8 * max(f.norm_inf(), 1.0)


class TestCurvature:
    def test_closed_form_on_coarse_grid_vanishes(self, R2):
        # flat ramp at refinement 2: Grassmannian curvature is zero
        theta0 = curvature_closed(R2)
        assert theta0.norm_inf() < 1e-12

    def test_structure_at_resolving_grid(self, R9):
        # the closed form's pairing is skew by construction; the star form
        # is skew only through the self-adjointness of each delta_W Q
        theta0 = curvature_closed(R9)
        assert theta0.xz.norm_inf() < 1e-8
        for theta in (theta0, curvature_star_form(R9)):
            assert skew_defect(theta) < 1e-10 * max(theta.norm_inf(), 1.0)
        f1, f2 = extract_f1_f2(theta0)   # raises StructureError on failure
        assert f1.norm_inf() > 1.0 and f2.norm_inf() > 1.0

    @pytest.mark.parametrize("c, su, sv, refinement", [
        (1, "1/4", "1/4", 27), (1, "1/3", "0", 9), (2, "1/5", "1/2", 15),
        (3, "2/7", "1/3", 9), (3, "1/4", "1/4", 15)])
    def test_closed_form_matches_star_form(self, c, su, sv, refinement):
        # each chain order of the closed form agrees with the star form's
        # to rounding of that order's sup over the three components
        params = Params.from_steps(c, Fraction(su), Fraction(sv))
        R = build_R(params, make_grid(params, refinement))
        new, old = curvature_closed(R), curvature_star_form(R)
        assert new.xy.depth == new.xz.depth == new.yz.depth == R.depth - 1
        pairs = [(getattr(new, k), getattr(old, k)) for k in ("xy", "xz", "yz")]
        for n in range(R.depth):
            sup = max(np.max(np.abs(b.comps[p][n])) for _, b in pairs
                      for p in b.comps)
            diff = max(np.max(np.abs(a.component(p, n)[n] - b.component(p, n)[n]))
                       for a, b in pairs for p in set(a.comps) | set(b.comps))
            assert sup > 1.0 and diff <= 1e-13 * sup

    def test_operator_matches_closed_form(self, grid9, R9, rng):
        theta0 = curvature_closed(R9)
        nabla0 = Connection(R9)
        f = random_module_vector(grid9, rng, smooth_envelope(grid9))
        for w1, w2 in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            op = curvature_definition(nabla0, w1, w2, f)
            cl = act_left(theta0.component(w1, w2), f)
            scale = max(theta0.norm_inf() * f.norm_inf(), 1e-30)
            assert (op - cl).norm_inf() < 5e-6 * scale

    def test_perturbed_curvature_keeps_chain_depth(self, params):
        # G3 of the construction is y-independent, so -dG3/dy is the zero
        # element; adding it to Theta0(X,Z) must not truncate the chain.
        # Theta0 carries the order of delta_Y Q, one below R's, which is
        # the order delta_Y t of solve's residuals reads.
        R = build_R(params, make_grid(params, 27))
        theta0 = curvature_closed(R)
        f1, f2 = extract_f1_f2(theta0)
        g3 = solve_poisson(assemble_rhs(f1, f2, params.c))
        pert = build_perturbation(f1, g3, params.c)
        assert (R.depth, theta0.xz.depth) == (2, 1)
        theta = curvature_perturbed(theta0, pert, params.c, CHAIN_DEPTH)
        assert theta.xz.depth == theta0.xz.depth

    def test_perturbed_operator_matches_assembled(self, grid4, R4, rng):
        pert = random_perturbation(grid4, rng)
        nabla = Connection(R4, pert)
        theta = curvature_perturbed(curvature_closed(R4), pert, grid4.params.c,
                                    CHAIN_DEPTH)
        f = random_module_vector(grid4, rng, smooth_envelope(grid4))
        scale = max(theta.norm_inf() * f.norm_inf(), 1e-30)
        for w1, w2 in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            op = curvature_definition(nabla, w1, w2, f)
            cl = act_left(theta.component(w1, w2), f)
            assert (op - cl).norm_inf() < 1e-10 * scale

    def test_perturbation_must_be_skew(self, grid2):
        bad = TorusFunction(grid2, np.ones((grid2.su_steps, grid2.ny)))
        z = TorusFunction.zeros(grid2)
        with pytest.raises(StructureError):
            Perturbation(bad, z, z)

    def test_extract_rejects_bad_support(self, grid4, rng):
        from qhm.calculus import Curvature2Form
        from qhm.bimodule import inner_E
        f, g = vector_pair(grid4, rng)
        junk = inner_E(f, g)             # generic p-support, y-dependence
        theta = Curvature2Form(junk, junk, junk)
        with pytest.raises(StructureError):
            extract_f1_f2(theta)
