from fractions import Fraction

import numpy as np
import pytest

from mongebde.families import SurfaceFamily, family_library, surface
from mongebde.flecnodal import parabolic_poly
from mongebde.poly import Poly, parse_poly, substitute
from mongebde.sweep import (
    _chain,
    event_locus_verify,
    fingerprint,
    panel_scene,
    singular_parameter_eliminant,
    sweep,
)


class TestEliminant:
    def test_morse_locus_factor_of_v3(self):
        E = singular_parameter_eliminant(parabolic_poly(family_library("Pi_v3")))
        v = event_locus_verify(
            family_library("Pi_v3"), parse_poly("108*t + -40*u^3 + -3*u^4")
        )
        assert v.exact_factor is True and v.ok
        assert E.total_degree() >= 4

    def test_f2_locus_factors(self):
        fam = family_library("Pi_f2+")
        for text in ("t", "32*t + -12*u^2", "32*t^2 + -12*t*u^2"):
            v = event_locus_verify(fam, parse_poly(text))
            assert v.exact_factor is True and v.ok, text

    def test_wrong_factor_rejected(self):
        v = event_locus_verify(family_library("Pi_v3"), parse_poly("t + -1*u"))
        assert v.exact_factor is False and not v.ok

    def test_codim1_event_at_zero(self):
        v = event_locus_verify(family_library("Pi_v1++"), parse_poly("t"))
        assert v.exact_factor is True


class TestSweep:
    def test_codim1_locus_at_origin(self):
        d = sweep(
            family_library("Pi_v1++"),
            (-0.1, 0.1),
            grid_n=5,
            components=("gauss_cusps",),
            cell_grid=24,
        )
        assert len(d.u_values) == 1  # no u dependence: 1-D sweep
        [locus] = d.loci
        assert locus.label == "gauss_cusps"
        assert np.abs(locus.points[:, 0]).max() < 1e-7
        v = event_locus_verify(family_library("Pi_v1++"), parse_poly("t"), d)
        assert v.ok and v.max_residual < 1e-6

    def test_stable_family_has_no_events(self):
        d = sweep(
            surface("y^2 + x^3 + t*x^4"),
            (-0.2, 0.2),
            grid_n=4,
            components=("parabolic_singular", "gauss_cusps"),
            cell_grid=16,
        )
        assert d.loci == []
        flat = [fp for row in d.fingerprints for fp in row]
        assert len(set(flat)) == 1

    def test_f2_cusp_pair_locus_on_parabola(self):
        d = sweep(
            family_library("Pi_f2+"),
            (-0.02, 0.03),
            (-0.3, 0.3),
            grid_n=3,
            components=("gauss_cusps",),
            cell_grid=40,
            bisect_tol=1e-3,
        )
        pts = np.vstack([l.points for l in d.loci])
        on_parabola = np.abs(32 * pts[:, 0] - 12 * pts[:, 1] ** 2)
        # Both loci of this family pass through the swept rectangle; every
        # traced point sits near one of them, and the cusp-pair locus
        # 32t = 12u^2 is hit sharply away from the tangency at the origin.
        assert (on_parabola < 1e-2).sum() >= 2
        assert np.minimum(np.abs(pts[:, 0]), on_parabola).max() < 0.02

    def test_fingerprints_respect_y_mirror_symmetry(self):
        fam = family_library("Pi_f2+")
        y = Poly.var("y", fam.f.varlist)
        mirrored = SurfaceFamily(
            f=substitute(fam.f, {"y": -y}), trunc_deg=fam.trunc_deg
        )
        comps = ("parabolic_singular", "gauss_cusps")
        for params in [
            (Fraction(-1, 100), Fraction(1, 5)),
            (Fraction(1, 50), Fraction(1, 5)),
            (Fraction(-1, 100), Fraction(-1, 5)),
        ]:
            a = fingerprint(fam, params, components=comps, grid=24)
            b = fingerprint(mirrored, params, components=comps, grid=24)
            assert a == b, params


def test_sweep_derives_flecnodal_system_once(monkeypatch):
    import sys

    import mongebde.trace

    calls = []
    original = mongebde.trace.flecnodal_system

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mongebde.trace, "flecnodal_system", counting)
    # ``mongebde.sweep`` is the re-exported function; patch the module.
    monkeypatch.setattr(sys.modules["mongebde.sweep"], "flecnodal_system", counting)
    d = sweep(
        family_library("Pi_c2"),
        (-0.05, 0.05),
        grid_n=3,
        components=("gauss_cusps", "parabolic_singular"),
        cell_grid=16,
        bisect_tol=1e-2,
    )
    assert d.loci  # the cusp pair dies at t = 0, so bisection ran too
    assert len(calls) == 1


class TestPanelScene:
    def test_c2_panel_before_collapse(self):
        scene = panel_scene(
            family_library("Pi_c2"),
            (Fraction(-1, 20), 0),
            resolution=96,
            with_butterflies=False,
        )
        assert len(scene.gauss_cusps) == 2
        assert scene.parabolic.n_branches() >= 1
        assert scene.flecnodal.n_branches() >= 1
        assert not scene.is_empty()

    def test_empty_window(self):
        scene = panel_scene(family_library("Pi_c2"), (0, 0), window=(0, 0, 0, 0))
        assert scene.is_empty()
        assert scene.gauss_cusps == []


def test_chain_orders_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    chained = _chain(pts)
    assert np.array_equal(chained[:, 0], np.array([0.0, 1.0, 2.0, 3.0]))
