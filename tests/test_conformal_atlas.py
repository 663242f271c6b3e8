import math

import numpy as np
import pytest

from confgeo.catalog import build_instance
from confgeo.chart import grid_points, shape_batch
from confgeo.conformal_atlas import (
    MAP_TAGS,
    ProjectivePoint,
    compose_maps,
    conformality_witness,
    embed,
    in_pi,
    in_pi_minus,
    in_pi_plus,
    lift_chart,
    projective_equal,
    psi,
    sigma_rep_batch,
    t_swap,
)
from confgeo.errors import ChartDomainError, InputError, ValidationError
from confgeo.pseudo_linalg import PseudoVector, Signature, form_signs, pseudo_dot


def random_de_sitter(rng, m, n=20):
    a = rng.uniform(-1.0, 1.0, size=n)
    w = rng.normal(size=(n, m + 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return np.concatenate([np.sinh(a)[:, None], np.cosh(a)[:, None] * w], axis=1)


def random_anti_de_sitter(rng, m, n=20):
    a = rng.uniform(-1.0, 1.0, size=n)
    b = rng.uniform(0.0, 2 * math.pi, size=n)
    w = rng.normal(size=(n, m))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return np.concatenate(
        [
            (np.cosh(a) * np.cos(b))[:, None],
            (np.cosh(a) * np.sin(b))[:, None],
            np.sinh(a)[:, None] * w,
        ],
        axis=1,
    )


class TestEmbed:
    def test_flat_origin(self):
        p = embed(np.zeros(3), "sigma0")
        assert np.allclose(p.rep.coords, [0, 1, -1, 0, 0])
        assert p.is_null()
        assert not in_pi(p)

    def test_de_sitter_example(self):
        u = np.array([2.0, math.sqrt(5.0), 0.0, 0.0])
        p = embed(u, "sigma1")
        assert np.allclose(p.rep.coords, [1, 2, math.sqrt(5), 0, 0])
        assert p.is_null()

    def test_images_lightlike_and_avoid_hyperplanes(self, rng):
        m = 3
        for u in random_de_sitter(rng, m, 25):
            p = embed(u, "sigma1")
            assert p.is_null(1e-12)
            assert not in_pi_plus(p)
        for y in random_anti_de_sitter(rng, m, 25):
            p = embed(y, "sigma-1")
            assert p.is_null(1e-12)
            assert not in_pi_minus(p)
        for u in rng.normal(size=(25, m + 1)):
            p = embed(u, "sigma0")
            assert p.is_null(1e-12)
            assert not in_pi(p)

    def test_off_form_rejected(self):
        with pytest.raises(InputError):
            embed(np.array([1.0, 1.0, 1.0, 1.0]), "sigma1")


class TestPsi:
    def test_left_inverse_of_de_sitter_embedding(self, rng):
        for u in random_de_sitter(rng, 3, 100):
            out = psi(1, embed(u, "sigma1"))
            assert np.max(np.abs(out.coords - u)) <= 1e-12

    def test_swapped_coordinate_map(self):
        u = np.array([2.0, math.sqrt(5.0), 0.0, 0.0])
        out = psi(2, embed(u, "sigma1"))
        assert np.allclose(out.coords, [0.5, math.sqrt(5) / 2, 0, 0])
        signs = form_signs(1, 4)
        assert pseudo_dot(out.coords[None], out.coords[None], signs)[0] == pytest.approx(1.0)

    def test_excluded_hyperplane(self):
        rep = PseudoVector(np.array([0.0, 1.0, 1.0, 0.0, 0.0]), Signature(2, 5))
        with pytest.raises(ChartDomainError):
            psi(1, ProjectivePoint(rep))

    def test_images_on_unit_quadric(self, rng):
        signs = form_signs(1, 5)
        for y in random_anti_de_sitter(rng, 3, 20):
            out = psi(2, embed(y, "sigma-1"))
            val = pseudo_dot(out.coords[None], out.coords[None], signs)[0]
            assert val == pytest.approx(1.0, abs=1e-12)


class TestComposedMaps:
    def test_flat_origin_closed_form(self):
        out = compose_maps("sigma^1", np.zeros(4))
        assert np.allclose(out, [0, 0, 0, 0, 1])

    def test_ads_closed_form_example(self):
        m = 3
        y = np.zeros(m + 2)
        y[0] = math.sqrt(2.0)
        y[-1] = 1.0
        out = compose_maps("tau^1", y)
        # written arrangement (y2/y1, y3/y1, 1/y1): two 1/sqrt2 entries last
        expected = np.zeros(m + 2)
        expected[-2] = 1 / math.sqrt(2.0)
        expected[-1] = 1 / math.sqrt(2.0)
        assert np.allclose(out, expected)
        signs = form_signs(1, m + 2)
        assert pseudo_dot(out[None], out[None], signs)[0] == pytest.approx(1.0)

    def test_closed_forms_match_written_tuples(self, rng):
        # sigma^1(u) = (2u/(1+q), (1-q)/(1+q)), sigma^2(u) = ((1+q)/2u1, u'/u1, (1-q)/2u1)
        for u in rng.normal(size=(10, 4)):
            q = -u[0] ** 2 + np.sum(u[1:] ** 2)
            if abs(1 + q) < 0.1 or abs(u[0]) < 0.1:
                continue
            s1 = compose_maps("sigma^1", u)
            assert np.allclose(s1, np.concatenate([2 * u, [1 - q]]) / (1 + q))
            s2 = compose_maps("sigma^2", u)
            assert np.allclose(
                s2, np.concatenate([[(1 + q) / 2], u[1:], [(1 - q) / 2]]) / u[0]
            )

    def test_equality_with_permuted_embedding(self, rng):
        # each composite equals psi_alpha applied to the permuted representative
        m = 3
        for which, pts in [
            ("sigma^1", rng.normal(size=(10, m + 1))),
            ("sigma^2", rng.normal(size=(10, m + 1))),
            ("tau^1", random_anti_de_sitter(rng, m, 10)),
            ("tau^2", random_anti_de_sitter(rng, m, 10)),
        ]:
            tag = MAP_TAGS[which]
            P = tag.permutation(m)
            sigma = "sigma0" if which.startswith("sigma") else "sigma-1"
            for u in pts:
                rep = embed(u, sigma).rep.coords
                permuted = ProjectivePoint(PseudoVector(P @ rep, Signature(2, m + 3)))
                assert permuted.is_null(1e-10)
                expected = psi(tag.alpha, permuted).coords
                assert np.allclose(compose_maps(which, u), expected, atol=1e-12)

    def test_named_denominators(self):
        u = np.zeros(4)
        u[0] = 1.0  # q = -1, so 1 + q = 0
        with pytest.raises(ChartDomainError, match="1 \\+ <u,u>"):
            compose_maps("sigma^1", u)
        v = np.array([0.0, 0.3, 0.4, 0.5])
        with pytest.raises(ChartDomainError, match="u_1"):
            compose_maps("sigma^2", v)

    def test_unknown_map(self):
        with pytest.raises(ValidationError):
            compose_maps("sigma^3", np.zeros(4))


class TestTSwap:
    def test_swap_and_involution(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(t_swap(w), [2, 1, 3, 4])
        assert np.allclose(t_swap(t_swap(w)), w)

    def test_lightlike_preserved(self, rng):
        for u in random_de_sitter(rng, 3, 10):
            p = embed(u, "sigma1")
            swapped = ProjectivePoint(t_swap(p.rep))
            assert swapped.is_null(1e-12)

    def test_conformal_position_of_swapped_lift(self, sxh_chart):
        # the light-cone lift of the second coordinate chart is the slot swap
        # of the original lift, projectively
        second = lift_chart(sxh_chart, "psi2")
        U = grid_points(sxh_chart.domain, [3], margin=0.03)
        sb1 = shape_batch(sxh_chart, U)
        sb2 = shape_batch(second, U)
        Y1 = np.concatenate([sb1.rho[:, None], sb1.rho[:, None] * sb1.x], axis=1)
        Y2 = np.concatenate([sb2.rho[:, None], sb2.rho[:, None] * sb2.x], axis=1)
        sig = Signature(2, sxh_chart.m + 3)
        for a, b in zip(Y1, Y2):
            pa = ProjectivePoint(PseudoVector(t_swap(a), sig))
            pb = ProjectivePoint(PseudoVector(b, sig))
            assert projective_equal(pa, pb, tol=1e-8)


class TestConformality:
    @pytest.mark.parametrize("which", ["sigma^1", "sigma^2", "tau^1", "tau^2"])
    def test_composites_are_conformal(self, which, rng):
        m = 3
        tag = MAP_TAGS[which]
        pts = (
            rng.normal(size=(20, m + 1)) * 0.8
            if which.startswith("sigma")
            else random_anti_de_sitter(rng, m, 20)
        )
        tgt = form_signs(1, m + 2)
        checked = 0
        for u in pts:
            try:
                lam, resid = conformality_witness(
                    lambda x: compose_maps(which, x), tag.source_kind, u, tgt
                )
            except ChartDomainError:
                continue
            assert lam > 0
            assert resid <= 1e-8
            checked += 1
        assert checked >= 15

    def test_embeddings_are_conformal(self, rng):
        m = 3
        sig2 = form_signs(2, m + 3)
        for u in random_de_sitter(rng, m, 20):
            lam, resid = conformality_witness(
                lambda x: sigma_rep_batch("de_sitter", x[None, :])[0], "de_sitter", u, sig2
            )
            assert lam == pytest.approx(1.0, abs=1e-8)
            assert resid <= 1e-8


class TestLiftChart:
    def test_lift_lands_on_unit_quadric(self, hxr_chart):
        lifted = lift_chart(hxr_chart, "psi1")
        U = grid_points(lifted.domain, [3], margin=0.03)
        x = lifted.eval(U)
        assert np.max(lifted.ambient.quadric_residual(x)) <= 1e-12

    def test_lift_records_parameters(self, hxr_chart):
        lifted = lift_chart(hxr_chart, "psi2")
        assert lifted.params["lift"] == "psi2"
        assert lifted.ambient.kind == "de_sitter"

    def test_wrong_composite_for_ambient(self, hxr_chart):
        with pytest.raises(ValidationError):
            lift_chart(hxr_chart, "tau^1")

    @pytest.mark.parametrize("name", ["hxr", "wp", "hxh"])
    def test_fd_lift_differences_the_base(self, name, rng):
        # FD jets of the base chart in its own picture, composed exactly:
        # within 1e-8 of the analytic lifted jets up to order 4
        lifted = lift_chart(build_instance(name), "psi1")
        fd = lifted.with_jet_mode("fd")
        assert fd.jet_mode == "fd" and fd.base.jet_mode == "fd" and fd.exprs is None
        lo, hi = lifted.domain.arrays()
        margin = fd.fd_margin() + 0.01
        U = rng.uniform(lo + margin, hi - margin, size=(10, lifted.m))
        an, fj = lifted.jet(U, 4), fd.jet(U, 4)
        for r in range(5):
            if r:
                an, fj = an.grad(), fj.grad()
            an_r, fj_r = an.value, fj.value
            scale = 1.0 + np.max(np.abs(an_r))
            assert np.max(np.abs(an_r - fj_r)) <= 1e-8 * scale, r

    def test_domain_violation_reported(self, hxr_chart):
        lifted = lift_chart(hxr_chart, "psi1")
        bad = np.array([[0.5, 0.0, 0.0]])  # flat coordinates at zero: denominator 0
        with pytest.raises(ChartDomainError):
            lifted.eval(bad)
