import math
import re

import numpy as np
import pytest

from confgeo import taylor
from confgeo.catalog import build_instance
from confgeo.chart import grid_points, shape_batch
from confgeo.conformal_atlas import (
    MAP_TAGS,
    compose_maps,
    conformality_witness,
    embed,
    in_pi,
    in_pi_minus,
    in_pi_plus,
    is_null,
    lift_chart,
    projective_equal,
    psi,
    sigma_rep,
    sigma_rep_batch,
    t_swap,
)
from confgeo.errors import ChartDomainError, InputError, ValidationError
from confgeo.pseudo_linalg import form_signs, pseudo_dot


def _unit_peak(p: np.ndarray) -> np.ndarray:
    return p / np.max(np.abs(p))


def projective_equal_within(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """projective_equal's test at a tolerance of the caller's."""
    a, b = _unit_peak(p), _unit_peak(q)
    return abs(float(np.dot(a, b))) / (np.linalg.norm(a) * np.linalg.norm(b)) > 1.0 - tol


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
        assert np.allclose(p, [0, 1, -1, 0, 0])
        assert is_null(p)
        assert not in_pi(p)

    def test_de_sitter_example(self):
        u = np.array([2.0, math.sqrt(5.0), 0.0, 0.0])
        p = embed(u, "sigma1")
        assert np.allclose(p, [1, 2, math.sqrt(5), 0, 0])
        assert is_null(p)

    def test_images_lightlike_and_avoid_hyperplanes(self, rng):
        m = 3
        for u in random_de_sitter(rng, m, 25):
            p = embed(u, "sigma1")
            assert is_null(p)
            assert not in_pi_plus(p)
        for y in random_anti_de_sitter(rng, m, 25):
            p = embed(y, "sigma-1")
            assert is_null(p)
            assert not in_pi_minus(p)
        for u in rng.normal(size=(25, m + 1)):
            p = embed(u, "sigma0")
            assert is_null(p)
            assert not in_pi(p)

    def test_off_form_rejected(self):
        with pytest.raises(InputError):
            embed(np.array([1.0, 1.0, 1.0, 1.0]), "sigma1")

    def test_overflowing_form_rejected_without_warning(self):
        # <x,x> = 1e400 - 1e400 overflows to nan, which compares false
        # against any tolerance; warnings are errors in this suite
        with pytest.raises(InputError):
            embed(np.array([1e200, 1e200, 0.0, 0.0]), "sigma1")
        with pytest.raises(InputError):
            compose_maps("tau^1", np.array([1e200, 0.0, 1e200, 0.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1.0])
    def test_null_test_is_scale_free(self, scale):
        null = scale * np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        timelike = scale * np.array([2.0, 1.0, 0.0, 0.0, 0.0])
        assert is_null(null)
        assert not is_null(timelike)


    def test_unknown_space_form_kind(self):
        with pytest.raises(ValidationError, match="unknown space form kind 'flat'"):
            sigma_rep("flat", [0.0, 1.0])

    def test_unknown_embedding(self):
        with pytest.raises(ValidationError, match="unknown embedding 'psi1'"):
            embed(np.zeros(3), "psi1")

    def test_a_batch_is_not_one_point(self):
        with pytest.raises(InputError, match="embed expects a single point"):
            embed(np.zeros((2, 3)), "sigma0")


class TestPsi:
    def test_alpha_is_one_or_two(self):
        with pytest.raises(ValidationError, match="alpha must be 1 or 2, got 3"):
            psi(3, embed(np.zeros(3), "sigma0"))

    def test_left_inverse_of_de_sitter_embedding(self, rng):
        for u in random_de_sitter(rng, 3, 100):
            out = psi(1, embed(u, "sigma1"))
            assert np.max(np.abs(out - u)) <= 1e-12

    def test_swapped_coordinate_map(self):
        u = np.array([2.0, math.sqrt(5.0), 0.0, 0.0])
        out = psi(2, embed(u, "sigma1"))
        assert np.allclose(out, [0.5, math.sqrt(5) / 2, 0, 0])
        signs = form_signs(1, 4)
        assert pseudo_dot(out[None], out[None], signs)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.0])
    def test_tests_on_representatives_are_scale_free(self, scale):
        # [1:2:0:0:0] at any scale; the norms of the raw entries overflow
        # (1e200) or underflow (1e-200), and warnings are errors in this suite
        p = scale * np.array([1.0, 2.0, 0.0, 0.0, 0.0])
        q = np.array([1.0, 2.0, 0.0, 0.0, 0.0])
        assert np.array_equal(psi(1, p), [2.0, 0.0, 0.0, 0.0])
        assert np.array_equal(psi(2, p), [0.5, 0.0, 0.0, 0.0])
        assert (in_pi_plus(p), in_pi_minus(p), in_pi(p)) == (False, True, False)
        assert projective_equal(p, q) and projective_equal(q, p)
        on_pi_plus = scale * np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        assert in_pi_plus(on_pi_plus) and in_pi(on_pi_plus)
        with pytest.raises(ChartDomainError, match="dividing slot 1 vanishes"):
            psi(1, on_pi_plus)

    def test_zero_representative_is_outside_the_domain(self):
        with pytest.raises(ChartDomainError, match="dividing slot 1 vanishes"):
            psi(1, np.zeros((2, 5)))
        with pytest.raises(ChartDomainError, match="dividing slot 1 vanishes"):
            psi(1, np.zeros(5))

    def test_excluded_hyperplane(self):
        with pytest.raises(ChartDomainError):
            psi(1, np.array([0.0, 1.0, 1.0, 0.0, 0.0]))

    def test_point_batch_and_series_agree(self, rng):
        reps = np.stack([embed(u, "sigma1") for u in random_de_sitter(rng, 3, 8)])
        for alpha in (1, 2):
            batch = psi(alpha, reps)
            assert np.array_equal(batch, np.stack([psi(alpha, r) for r in reps]))
            series = psi(alpha, taylor.Series(np.stack([reps, 0.1 * rng.normal(size=reps.shape)]), 1, 1))
            assert series.order == 1
            np.testing.assert_allclose(series.value, batch, rtol=1e-15, atol=0)

    def test_images_on_unit_quadric(self, rng):
        signs = form_signs(1, 5)
        for y in random_anti_de_sitter(rng, 3, 20):
            out = psi(2, embed(y, "sigma-1"))
            val = pseudo_dot(out[None], out[None], signs)[0]
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
                permuted = P @ embed(u, sigma)
                assert is_null(permuted, 1e-10)
                expected = psi(tag.alpha, permuted)
                assert np.allclose(compose_maps(which, u), expected, atol=1e-12)

    def test_named_denominators(self):
        u = np.zeros(4)
        u[0] = 1.0  # q = -1, so 1 + q = 0
        with pytest.raises(ChartDomainError, match="1 \\+ <u,u>"):
            compose_maps("sigma^1", u)
        v = np.array([0.0, 0.3, 0.4, 0.5])
        with pytest.raises(ChartDomainError, match="u_1"):
            compose_maps("sigma^2", v)

    @pytest.mark.parametrize(
        "which,point",
        [
            ("sigma^2", [1.3e-12, 0.3, 0.4, 0.5]),
            ("sigma^2", [0.5e-12, 0.3, 0.4, 0.5]),
            ("tau^1", [1.5e-12, 1.0, 0.0, 0.0, 0.0]),
            ("tau^1", [0.5e-12, 1.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_denominator_rule_is_psis(self, which, point):
        # near a named denominator, a composite is defined exactly where psi
        # of its permuted representative is
        tag = MAP_TAGS[which]
        sigma = "sigma0" if which.startswith("sigma") else "sigma-1"
        rep = tag.permutation(tag.source_m(len(point))) @ embed(point, sigma)
        try:
            expected = psi(tag.alpha, rep)
        except ChartDomainError:
            with pytest.raises(ChartDomainError, match=re.escape(tag.denominator)):
                compose_maps(which, point)
        else:
            assert np.array_equal(compose_maps(which, point), expected)

    @pytest.mark.parametrize("which", ["sigma^1", "sigma^2", "tau^1", "tau^2"])
    def test_empty_batch_maps_to_an_empty_batch(self, which):
        # m = 3: 4 flat or 5 anti-de Sitter coordinates in, 5 de Sitter out
        d = 4 if which.startswith("sigma") else 5
        assert compose_maps(which, np.zeros((0, d))).shape == (0, 5)

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
            assert is_null(t_swap(embed(u, "sigma1")))

    def test_conformal_position_of_swapped_lift(self, sxh_chart):
        # the light-cone lift of the second coordinate chart is the slot swap
        # of the original lift, projectively
        second = lift_chart(sxh_chart, "psi2")
        U = grid_points(sxh_chart.domain, [3], margin=0.03)
        Y1, Y2 = (
            np.sqrt(s.rho2.value)[:, None] * np.concatenate([np.ones((U.shape[0], 1)), s.x.value], axis=1)
            for s in (shape_batch(sxh_chart, U), shape_batch(second, U))
        )
        for a, b in zip(Y1, Y2):
            assert projective_equal_within(t_swap(a), b, 1e-8)


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

    def test_unknown_lift(self, hxr_chart):
        with pytest.raises(ValidationError, match="unknown lift 'tswap'"):
            lift_chart(hxr_chart, "tswap")

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


def witness_points(which, rng, m=3, n=20):
    """TestConformality's sample: Lorentz-flat points for sigma^a, anti-de
    Sitter points for tau^a."""
    if which.startswith("sigma"):
        return rng.normal(size=(n, m + 1)) * 0.8
    return random_anti_de_sitter(rng, m, n)


class TestExactWitness:
    @pytest.mark.parametrize("which", ["sigma^1", "sigma^2", "tau^1", "tau^2"])
    def test_composites_conformal_to_roundoff(self, which, rng):
        tag = MAP_TAGS[which]
        tgt = form_signs(1, 5)
        checked = 0
        for u in witness_points(which, rng):
            try:
                lam, resid = conformality_witness(
                    lambda x: compose_maps(which, x), tag.source_kind, u, tgt
                )
            except ChartDomainError:
                continue
            assert lam > 0
            assert resid <= 1e-11
            checked += 1
        assert checked >= 15

    def test_de_sitter_embedding_is_isometric(self, rng):
        sig2 = form_signs(2, 6)
        for u in random_de_sitter(rng, 3, 20):
            lam, resid = conformality_witness(
                lambda x: sigma_rep_batch("de_sitter", x[None, :])[0], "de_sitter", u, sig2
            )
            assert lam == pytest.approx(1.0, abs=1e-14)
            assert resid <= 1e-14

    def test_stretch_is_not_conformal(self):
        # pullback diag(-1, 4, 1, 1) against diag(-1, 1, 1, 1): the factor is
        # 7/4 and the residual |4 - 7/4| / (7/4) = 9/7
        lam, resid = conformality_witness(
            lambda x: x * np.array([1.0, 2.0, 1.0, 1.0]),
            "lorentz_flat",
            np.array([0.3, 0.1, -0.2, 0.4]),
            form_signs(1, 4),
        )
        assert lam == pytest.approx(7 / 4, rel=1e-15)
        assert resid == pytest.approx(9 / 7, rel=1e-15)


class TestOneEngine:
    @pytest.mark.parametrize("name,which", [("hxr", "sigma^1"), ("hxh", "tau^2")])
    def test_lifted_chart_is_the_composite(self, name, which):
        base = build_instance(name)
        lifted = lift_chart(base, which)
        tag = MAP_TAGS[which]
        assert lifted.alpha == tag.alpha
        assert np.array_equal(lifted.M, tag.permutation(base.m))
        U = grid_points(base.domain, [3], margin=0.03)
        assert np.array_equal(lifted.eval(U), compose_maps(which, base.eval(U)))
        jet = compose_maps(which, base.jet(U, 2))
        assert np.array_equal(lifted.jet(U, 2).c, jet.c)

    @pytest.mark.parametrize("which", ["sigma^1", "sigma^2", "tau^1", "tau^2"])
    def test_batch_and_series_match_points(self, which, rng):
        X = witness_points(which, rng, n=8)
        batch = compose_maps(which, X)
        assert np.array_equal(batch, np.stack([compose_maps(which, u) for u in X]))
        series = taylor.Series(np.stack([X, 0.1 * rng.normal(size=X.shape)]), 1, 1)
        out = compose_maps(which, series)
        assert out.order == 1 and out.shape == batch.shape
        np.testing.assert_allclose(out.value, batch, rtol=1e-14, atol=1e-15)

    def test_lifted_divisor_message_names_the_chart(self, hxr_chart):
        lifted = lift_chart(hxr_chart, "psi1")
        with pytest.raises(ChartDomainError) as info:
            lifted.eval(np.array([[0.5, 0.0, 0.0]]))
        assert str(info.value) == (
            "psi1 of hxr(m=3,k=1)@psi1 undefined: dividing slot 1 vanishes (representative on pi_plus)"
        )

    def test_only_composites_permute_slots(self):
        for which, tag in MAP_TAGS.items():
            composite = tag.denominator is not None
            assert composite == (tag.source_kind is not None and tag.alpha is not None), which
            if not composite:
                assert np.array_equal(tag.permutation(3), np.eye(6)), which
