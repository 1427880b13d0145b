import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prnls as P
import prnls.radial_oracle as radial_oracle
from prnls.cli import DECAY_TOL
from prnls.radial_oracle import (
    CROSSES,
    DECAYS,
    ShotResult,
    _bisect,
    _estimate,
    _search,
    default_bracket,
)

#: ground amplitude for m = mu = 1, p = 3, n = 2, frozen from this oracle at
#: the default mesh (stable to < 1e-10 under dr halving)
U0_STAR_2D = 2.3919564032

#: (m, mu, p, n) -> (u(0) plain bisection returns from default_bracket at the
#: default mesh and tol, a ceiling on the RK4 steps find_ground_u0 takes: the sum of
#: r_end / dr over its shots).  The ceilings are the steps of the two-shot root
#: estimates (_estimate); plain bisection takes 231231, 120935, 126476, 294582,
#: 408733, 201378 and 603066.
BISECTION_REFERENCE = {
    (1.0, 1.0, 3.0, 2): (2.3919564032221388, 67958),
    (2.0, 2.0, 3.0, 2): (4.783912807000888, 34255),
    (1.0, 4.0, 3.0, 2): (9.567825614034518, 34460),
    (1.0, 1.0, 2.5, 3): (4.27654169690868, 104364),
    (1.0, 1.0, 2.2, 3): (4.382651320021978, 185701),
    (1.0, 1.0, 3.9, 2): (2.221150864093943, 51895),
    (0.5, 0.3, 2.8, 3): (0.9353956959352612, 192000),
}


@pytest.fixture()
def shot_radii(monkeypatch):
    """Exit radii of every shot made through the module-level shoot."""
    radii = []
    original = radial_oracle.shoot

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        radii.append(res.r_end)
        return res

    monkeypatch.setattr(radial_oracle, "shoot", counting)
    return radii


class TestShoot:
    def test_small_amplitude_decays(self, params_inf):
        res = P.shoot(0.05, params_inf)
        assert res.kind == DECAYS

    def test_rest_point_decays(self, params_inf):
        res = P.shoot(1.0, params_inf)  # mu^{1/(p-2)} = 1
        assert res.kind == DECAYS

    def test_large_amplitude_crosses(self, params_inf):
        rest = params_inf.mu ** (1.0 / (params_inf.p - 2.0))
        res = P.shoot(10.0 * rest, params_inf)
        assert res.kind == CROSSES

    def test_nonpositive_u0_rejected(self, params_inf):
        with pytest.raises(ValueError):
            P.shoot(0.0, params_inf)

    def test_oversized_step_rejected(self, params_inf):
        with pytest.raises(ValueError, match="too large"):
            P.shoot(2.39, params_inf, dr=1.0)

    def test_energy_drift_rejected(self, params_inf):
        # |a| dr^2 = 0.024 passes the core-curvature guard; the monitor trips at the second step
        with pytest.raises(ValueError, match=r"energy drift at r = 4\.400$"):
            P.shoot(1.01, params_inf, dr=2.2)

    def test_recorded_samples_start_at_u0(self, params_inf):
        res = P.shoot(0.5, params_inf, record=True)
        assert res.values[0] == 0.5

    def test_3d_classifications(self):
        pp = P.PhysParams(m=1.0, mu=1.0, c=math.inf, p=2.5, n=3)
        assert P.shoot(0.1, pp).kind == DECAYS
        assert P.shoot(20.0, pp).kind == CROSSES


class TestBisection:
    def test_frozen_ground_amplitude(self, oracle_profile):
        assert abs(oracle_profile.u0 - U0_STAR_2D) <= 1e-8

    def test_equal_bracket_rejected(self, params_inf):
        with pytest.raises(ValueError):
            P.find_ground_u0(params_inf, (2.0, 2.0))

    def test_misclassified_bracket_rejected(self, params_inf):
        with pytest.raises(ValueError, match="bracket"):
            P.find_ground_u0(params_inf, (5.0, 9.0))  # both overshoot

    def test_halving_dr_is_stable(self, params_inf, oracle_profile):
        u0_half = P.find_ground_u0(params_inf, default_bracket(params_inf), dr=5e-4)[0]
        assert abs(u0_half - oracle_profile.u0) <= 1e-8

    def test_oversized_step_still_rejected(self, params_inf):
        # at dr = 1 the 10x overshoot endpoint trips the core-curvature guard
        with pytest.raises(ValueError, match="too large"):
            P.find_ground_u0(params_inf, default_bracket(params_inf), dr=1.0)

    def test_divergent_shot_raises(self, params_inf, monkeypatch):
        original = radial_oracle.shoot

        def diverging(u0, *args, **kwargs):
            res = original(u0, *args, **kwargs)
            return res if u0 in (1.0, 10.0) else ShotResult("diverges", res.r_end, None)

        monkeypatch.setattr(radial_oracle, "shoot", diverging)
        with pytest.raises(RuntimeError, match="divergent shot"):
            P.find_ground_u0(params_inf, (1.0, 10.0))


class TestExactness:
    @pytest.mark.parametrize("case", list(BISECTION_REFERENCE))
    def test_plain_bisection_value_from_fewer_steps(self, case, shot_radii):
        u0_ref, steps_ref = BISECTION_REFERENCE[case]
        m, mu, p, n = case
        pp = P.PhysParams(m=m, mu=mu, c=math.inf, p=p, n=n)
        assert P.find_ground_u0(pp, default_bracket(pp))[0] == u0_ref
        assert round(sum(shot_radii) / 1e-3) <= steps_ref

    def test_profile_counts_its_search_shots(self, params_inf, shot_radii):
        prof = P.ground_profile(params_inf)
        assert prof.shots == len(shot_radii) - 1  # the recorded shot is not counted
        assert 2 < prof.shots < 39  # bisection takes 39 on this bracket


def _step_shots(root: float, rate: float, c_dec: float, c_cro: float, r_max: float = 30.0,
                dr: float = 1e-3):
    """Synthetic shooting: u0 > root crosses, else decays, exiting on the mesh at
    r = ln(C / |u0 - root|) / rate, the asymptotic law of real shots."""
    def shot(u0: float) -> ShotResult:
        kind = CROSSES if u0 > root else DECAYS
        d = abs(u0 - root)
        r = math.log((c_cro if kind == CROSSES else c_dec) / d) / rate if d > 0.0 else r_max
        return ShotResult(kind, min(r_max, max(dr, dr * math.ceil(r / dr))), None)
    return shot


def _power_shots(root: float, r_max: float = 30.0, dr: float = 1e-3):
    """Synthetic shooting whose exit radius grows as |u0 - root|^(-1/2), a law the
    exponential root estimates misread."""
    def shot(u0: float) -> ShotResult:
        d = abs(u0 - root)
        r = r_max if d == 0.0 else min(r_max, max(dr, dr * math.ceil(d ** -0.5 / dr)))
        return ShotResult(CROSSES if u0 > root else DECAYS, r, None)
    return shot


def _plain_bisection(classify, lo: float, hi: float, tol: float) -> float:
    return 0.5 * sum(_bisect(classify, lo, hi, tol))


LO, HI = 1.0, 10.0


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_estimate_is_the_root_of_its_law(side):
    # two unquantized shots of |u0 - s| = C exp(-rate r_end) give back s to rounding
    s, rate, C = 2.4, 2.83, 300.0
    pts = [(s + side * C * math.exp(-rate * r), r) for r in (3.0, 4.5)]
    assert _estimate(pts, LO, HI, rate) == pytest.approx(s, rel=0.0, abs=2 * math.ulp(s))
    assert _estimate(pts[1:], LO, HI, rate) is None  # one shot fixes no root
    assert _estimate(pts, LO, s - 0.1, rate) is None  # the root lies outside (a, b)


class TestSearch:
    """The search is plain bisection, checked without shooting."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(root=st.floats(LO, HI, exclude_max=True),
           rate=st.floats(0.5, 6.0), rate_guess=st.floats(0.5, 6.0),
           c_dec=st.floats(1.0, 1e3), c_cro=st.floats(1.0, 1e3),
           tol=st.sampled_from([1e-10, 1e-7, 1e-3]))
    @example(root=5.5, rate=2.83, rate_guess=2.83, c_dec=306.0, c_cro=287.0, tol=1e-10)
    @example(root=LO + 9.0 * 3 / 1024, rate=2.83, rate_guess=2.83, c_dec=306.0, c_cro=287.0,
             tol=1e-10)
    @example(root=2.4, rate=1.7, rate_guess=2.83, c_dec=1e3, c_cro=1.0, tol=1e-10)
    @example(root=2.4, rate=0.5, rate_guess=6.0, c_dec=1.0, c_cro=1.0, tol=1e-10)  # radii hit r_max
    def test_bisection_shooting_only_unsettled_points(self, root, rate, rate_guess, c_dec,
                                                      c_cro, tol):
        shot = _step_shots(root, rate, c_dec, c_cro)
        a, b = LO, HI  # the largest shot that decayed, the smallest that crossed
        shots = 0

        def classify(u0):
            nonlocal a, b, shots
            assert a < u0 < b  # a point the earlier shots settle is never shot
            shots += 1
            res = shot(u0)
            if res.kind == CROSSES:
                b = u0
            else:
                a = u0
            return res

        def kind(u0):
            return shot(u0).kind

        assert _search(classify, LO, HI, tol, rate_guess) == \
            _plain_bisection(kind, LO, HI, tol)
        assert shots <= 2 * math.ceil(math.log2((HI - LO) / tol))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(root=st.floats(LO, HI, exclude_max=True), rate_guess=st.floats(0.5, 6.0),
           tol=st.sampled_from([1e-10, 1e-7, 1e-3]))
    @example(root=2.123848461224779, rate_guess=5.965269644916532, tol=1e-3)
    def test_shot_budget_holds_when_radii_mislead(self, root, rate_guess, tol):
        shot = _power_shots(root)
        calls = []

        def classify(u0):
            calls.append(u0)
            return shot(u0)

        def kind(u0):
            return shot(u0).kind

        assert _search(classify, LO, HI, tol, rate_guess) == \
            _plain_bisection(kind, LO, HI, tol)
        assert len(calls) <= 2 * math.ceil(math.log2((HI - LO) / tol))


class TestProfile:
    def test_positive_and_strictly_decreasing(self, oracle_profile):
        assert np.all(oracle_profile.values > 0.0)
        assert np.all(np.diff(oracle_profile.values) < 0.0)

    def test_tail_fully_decayed(self, oracle_profile):
        assert oracle_profile.values[-1] <= DECAY_TOL * oracle_profile.u0

    def test_radii_mesh(self, oracle_profile):
        r = oracle_profile.radii()
        assert r[0] == 0.0 and r[-1] == pytest.approx(radial_oracle.R_MAX)
        assert len(r) == len(oracle_profile.values)

    @pytest.mark.parametrize("m2,mu2", [(2.0, 2.0), (1.0, 4.0)])
    def test_scaling_closure(self, oracle_profile, m2, mu2):
        # u_{m2,mu2}(r) = alpha * u_{1,1}(beta r) with alpha = mu2^{1/(p-2)},
        # beta = sqrt(2 m2 mu2 / (2 m1 mu1)); both pairs give beta = 2 so the
        # scaled radii land exactly on the reference mesh
        pp2 = P.PhysParams(m=m2, mu=mu2, c=math.inf, p=3.0, n=2)
        prof2 = P.ground_profile(pp2)
        alpha = mu2 ** (1.0 / (3.0 - 2.0))
        half = len(prof2.values) // 2
        mapped = alpha * oracle_profile.values[::2][: half + 1]
        direct = prof2.values[: half + 1]
        assert np.max(np.abs(mapped - direct)) <= 1e-6 * prof2.u0


class TestCompareProfiles:
    def test_zero_field_scores_one(self, grid, oracle_profile):
        zero = P.RealField(grid, np.zeros(grid.shape))
        assert P.compare_profiles(zero, oracle_profile) == pytest.approx(1.0)

    def test_lifted_profile_round_trips(self, grid, oracle_profile):
        lifted = P.profile_to_field(oracle_profile, grid)
        assert P.compare_profiles(lifted, oracle_profile) <= 1e-6

    def test_spectral_state_matches(self, limit_state, oracle_profile):
        assert P.compare_profiles(limit_state, oracle_profile) <= 1e-3
