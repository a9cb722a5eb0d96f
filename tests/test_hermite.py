import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from reconstab import hermite
from reconstab.errors import DegenerateSpectrum, QuadratureNonconvergent
from reconstab.hermite import (
    ActivationSpec,
    activation_names,
    gamma_ntk_closed_form,
    gamma_rf_lower_bound,
    get_activation,
    _hermite_matrix,
    _tanh_prime,
    hermite_coefficients,
    series_tail_bound,
)


class TestHermitePolynomial:
    def test_h1(self):
        assert _hermite_matrix(1, 2.0)[1] == pytest.approx(2.0)

    def test_h2_at_zero(self):
        assert _hermite_matrix(2, 0.0)[2] == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_h4_at_zero(self):
        assert _hermite_matrix(4, 0.0)[4] == pytest.approx(3.0 / math.sqrt(24.0))

    def test_first_five_closed_forms(self):
        rho = np.linspace(-3, 3, 31)
        closed = [
            np.ones_like(rho),
            rho,
            (rho**2 - 1) / math.sqrt(2),
            (rho**3 - 3 * rho) / math.sqrt(6),
            (rho**4 - 6 * rho**2 + 3) / math.sqrt(24),
        ]
        for l, expected in enumerate(closed):
            assert np.allclose(_hermite_matrix(l, rho)[l], expected, atol=1e-12)

    def test_orthonormality_under_quadrature(self):
        x, w = hermite._half_range_nodes(120)
        basis = hermite._hermite_matrix(8, x)
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10


class TestHermiteCoefficients:
    def test_hermite_combo_returns_exact_list(self):
        spec = hermite_coefficients(get_activation("h1+h2"), order=6)
        assert np.allclose(spec.coefficients, [0, 1, 1, 0, 0, 0, 0], atol=0)
        assert spec.truncation == 6 and spec.nodes == 0 and spec.tail_power == 0.0

    def test_identity_activation(self):
        spec = hermite_coefficients(get_activation("identity"), order=5)
        assert np.allclose(spec.coefficients, [0, 1, 0, 0, 0, 0], atol=0)

    def test_relu_low_order_coefficients(self):
        # mu_0 = E[relu(rho)] = 1/sqrt(2 pi), mu_1 = E[rho relu(rho)] = 1/2
        spec = hermite_coefficients(get_activation("relu"))
        assert abs(spec.coefficients[0] - 1.0 / math.sqrt(2 * math.pi)) <= 1e-6
        assert abs(spec.coefficients[1] - 0.5) <= 1e-6

    def test_relu_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(1234)
        rho = rng.standard_normal(1_000_000)
        relu = np.maximum(rho, 0.0)
        spec = hermite_coefficients(get_activation("relu"))
        for l in range(3):
            mc = float(np.mean(relu * _hermite_matrix(l, rho)[l]))
            assert abs(spec.coefficients[l] - mc) <= 5e-3

    @pytest.mark.parametrize("order", [40, 150])
    def test_relu_matches_closed_form_series(self, order):
        # mu_0 = phi(0), mu_1 = 1/2, mu_2k = phi(0) (-1)^(k-1) (2k-3)!! / sqrt((2k)!)
        # for k >= 1, and 0 at odd orders >= 3; (2k-3)!! = (2k-2)! / (2^(k-1) (k-1)!)
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        closed = np.zeros(order + 1)
        closed[0], closed[1] = phi0, 0.5
        for k in range(1, order // 2 + 1):
            log_ratio = (
                math.lgamma(2 * k - 1) - (k - 1) * math.log(2.0) - math.lgamma(k)
                - 0.5 * math.lgamma(2 * k + 1)
            )
            closed[2 * k] = phi0 * (-1) ** (k - 1) * math.exp(log_ratio)
        spec = hermite_coefficients(get_activation("relu"), order=order)
        assert np.max(np.abs(spec.coefficients - closed)) <= 1e-12

    def test_callable_identity_matches_combo(self):
        callable_spec = ActivationSpec(name="lin", fn=lambda u: u)
        spec = hermite_coefficients(callable_spec, order=8)
        # a quadrature spectrum records its rule, even with no measurable tail
        assert spec.truncation == 8 and spec.nodes > 0
        assert abs(spec.coefficients[1] - 1.0) <= 1e-10
        assert np.max(np.abs(np.delete(spec.coefficients, 1))) <= 1e-10

    def test_parseval_inequality_and_convergence(self):
        relu = get_activation("relu")
        second_moment = 0.5  # E[relu(rho)^2] = E[rho^2 1(rho>0)]
        captured_10 = float(np.sum(hermite_coefficients(relu, order=10).coefficients ** 2))
        captured_40 = float(np.sum(hermite_coefficients(relu, order=40).coefficients ** 2))
        assert captured_10 <= second_moment + 1e-8
        assert captured_40 <= second_moment + 1e-8
        assert captured_40 >= captured_10
        assert second_moment - captured_40 <= 2e-4

    @pytest.mark.parametrize("order", [40, 80])
    def test_tanh_converges_and_matches_trapezoid_oracle(self, order):
        tanh = get_activation("tanh")
        dtanh = ActivationSpec(name="d(tanh)", fn=_tanh_prime)
        spec = hermite_coefficients(tanh, order=order)
        dspec = hermite_coefficients(dtanh, order=order)
        assert spec.nodes <= hermite.MAX_NODES and dspec.nodes <= hermite.MAX_NODES
        # Stein's identity: E[f h_l] = E[f' h_{l-1}] / sqrt(l)
        orders = np.arange(1, spec.coefficients.size)
        stein = np.sqrt(orders) * spec.coefficients[1:] - dspec.coefficients[:-1]
        assert np.max(np.abs(stein)) <= 1e-10
        # the trapezoid rule on a fine grid is spectrally accurate for smooth
        # integrands that decay, and shares nothing with the engine's rule
        rho = np.linspace(-20.0, 20.0, 40001)
        weights = np.exp(-0.5 * rho**2) / math.sqrt(2 * math.pi) * (rho[1] - rho[0])
        basis = _hermite_matrix(order, rho)
        for act, got in ((tanh, spec), (dtanh, dspec)):
            oracle = basis @ (weights * act(rho))
            assert np.max(np.abs(got.coefficients - oracle)) <= 1e-10

    def test_nonconvergent_quadrature_raises(self):
        square_wave = ActivationSpec(
            name="square-wave", fn=lambda u: np.sign(np.sin(10.0 * u))
        )
        with pytest.raises(QuadratureNonconvergent):
            hermite_coefficients(square_wave, order=10)

    @pytest.mark.parametrize("name", hermite.activation_names())
    def test_order_past_default_nodes(self, name):
        # the rule starts with more nodes on each half line than the order, so
        # order 80 needs a rule of more than DEFAULT_NODES nodes
        act = get_activation(name)
        spec = hermite_coefficients(act, order=80)
        assert spec.coefficients.shape == (81,)
        low = hermite_coefficients(act).coefficients
        assert np.max(np.abs(spec.coefficients[: low.size] - low)) <= 1e-12

    @pytest.mark.parametrize("order", [hermite.MAX_NODES // 2, hermite.MAX_NODES])
    def test_order_without_room_to_double_raises(self, order):
        # convergence compares two rules, and the larger must stay within the cap
        with pytest.raises(QuadratureNonconvergent, match="and a doubling"):
            hermite_coefficients(get_activation("tanh"), order=order)

    @pytest.mark.parametrize("name", ["relu", "tanh", "h1+h2"])
    def test_negative_order_rejected(self, name):
        # relu and tanh are integrated by quadrature, h1+h2 is an explicit combination
        with pytest.raises(ValueError, match="order must be >= 0"):
            hermite_coefficients(get_activation(name), order=-1)


class TestGammaRfLowerBound:
    def test_alpha_zero(self):
        spec = hermite_coefficients(get_activation("relu"))
        assert gamma_rf_lower_bound(spec, 0.0) == 0.0

    def test_h1_plus_h2_values(self):
        spec = hermite_coefficients(get_activation("h1+h2"))
        assert gamma_rf_lower_bound(spec, 0.5) == pytest.approx(0.125)
        assert gamma_rf_lower_bound(spec, 0.25) == pytest.approx(0.03125)

    def test_monotone_in_alpha(self):
        for name in ("h1+h2", "h1+h4", "relu"):
            spec = hermite_coefficients(get_activation(name))
            values = [gamma_rf_lower_bound(spec, a) for a in np.linspace(0, 0.98, 25)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_range(self):
        spec = hermite_coefficients(get_activation("h1+h4"))
        for alpha in np.linspace(0.0, 0.99, 12):
            assert 0.0 <= gamma_rf_lower_bound(spec, alpha) < 1.0

    def test_degenerate_spectrum(self):
        constant = ActivationSpec(name="const", coeffs=(1.0,))
        with pytest.raises(DegenerateSpectrum):
            gamma_rf_lower_bound(hermite_coefficients(constant), 0.5)


class TestGammaNtkClosedForm:
    def test_h0_plus_h1_values(self):
        spec = hermite_coefficients(get_activation("h0+h1"))
        assert gamma_ntk_closed_form(spec, 0.5) == pytest.approx(0.25)
        assert gamma_ntk_closed_form(spec, 0.25) == pytest.approx(0.0625)

    def test_h0_plus_h3(self):
        spec = hermite_coefficients(get_activation("h0+h3"))
        assert gamma_ntk_closed_form(spec, 0.5) == pytest.approx(0.0625)

    def test_alpha_one_limit(self):
        for name in ("h0+h1", "h0+h3"):
            spec = hermite_coefficients(get_activation(name))
            assert gamma_ntk_closed_form(spec, 1.0) == pytest.approx(1.0)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.01, 0.99, 50)
        for name in ("h0+h1", "h0+h3"):
            spec = hermite_coefficients(get_activation(name))
            values = [gamma_ntk_closed_form(spec, a) for a in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_open_interval_range(self):
        spec = hermite_coefficients(get_activation("h0+h1"))
        for alpha in np.linspace(0.05, 0.95, 10):
            assert 0.0 < gamma_ntk_closed_form(spec, alpha) < 1.0


class TestSeriesTailBound:
    def test_exact_combo_has_no_tail(self):
        spec = hermite_coefficients(get_activation("h1+h4"))
        assert series_tail_bound(spec, 0.7) == 0.0

    def test_alpha_zero(self):
        spec = hermite_coefficients(get_activation("relu"))
        assert series_tail_bound(spec, 0.0) == 0.0

    def test_dominates_truncated_combination_tail(self):
        # the power past the truncation sits in mu_5, not in the captured mu_1
        act = ActivationSpec(name="h1/100+h5", coeffs=(0.0, 0.01, 0.0, 0.0, 0.0, 1.0))
        spec = hermite_coefficients(act, order=3)
        assert spec.tail_power == 1.0
        for alpha in (0.25, 0.5, 0.9, 1.0):
            assert series_tail_bound(spec, alpha) >= alpha**5

    def test_dominates_explicit_long_truncation(self):
        relu = get_activation("relu")
        alpha = 0.5
        spec20 = hermite_coefficients(relu, order=20)
        spec60 = hermite_coefficients(relu, order=60)
        bound = series_tail_bound(spec20, alpha)
        captured20 = float(np.sum(spec20.coefficients**2))
        cap_expr = alpha**21 * captured20 / (1 - alpha)
        explicit_tail = float(
            np.sum(spec60.coefficients[21:] ** 2 * alpha ** np.arange(21, 61))
        )
        assert bound <= cap_expr + 1e-300
        assert bound >= explicit_tail


class TestActivationSpec:
    def test_derivative_of_tanh_matches_finite_differences(self):
        act = get_activation("tanh")
        deriv = ActivationSpec(name="d(tanh)", fn=_tanh_prime)
        u = np.linspace(-2, 2, 9)
        eps = 1e-6
        fd = (act(u + eps) - act(u - eps)) / (2 * eps)
        assert np.allclose(deriv(u), fd, atol=1e-9)

    def test_chunked_evaluation_matches_one_basis(self):
        # a shape spanning several chunks, with a partial last one
        act = get_activation("h1+h4")
        u = np.random.default_rng(0).standard_normal((3, hermite.ACTIVATION_CHUNK + 7))
        whole = np.asarray(act.coeffs) @ _hermite_matrix(len(act.coeffs) - 1, u.ravel())
        assert np.array_equal(act(u), whole.reshape(u.shape))

    def test_rejects_both_kinds(self):
        with pytest.raises(ValueError):
            ActivationSpec(name="bad", coeffs=(1.0,), fn=lambda u: u)


def _chunked_rows():
    """Rows spanning several ACTIVATION_CHUNKs, the last one partial."""
    return 3.0 * np.random.default_rng(1).standard_normal((3, hermite.ACTIVATION_CHUNK + 7))


def _term_by_term(coeffs, u):
    """c_0 + c_1 h_1(u) + ... + c_L h_L(u), summed in that order over the rows
    of _hermite_matrix."""
    basis = _hermite_matrix(len(coeffs) - 1, u.ravel())
    acc = np.full(u.size, coeffs[0])
    for c, row in zip(coeffs[1:], basis[1:]):
        acc += c * row
    return acc.reshape(u.shape)


class TestInPlaceActivation:
    """Activations written over their input, one ACTIVATION_CHUNK at a time,
    in buffers that belong to the call."""

    @pytest.mark.parametrize("name", [n for n in activation_names() if get_activation(n).coeffs])
    def test_hermite_combination_sums_term_by_term(self, name):
        act = get_activation(name)
        u = _chunked_rows()
        expected = _term_by_term(act.coeffs, u)
        out = act.in_place(u)
        assert out is u
        assert np.array_equal(u, expected)

    @pytest.mark.parametrize("name", ["relu", "tanh"])
    def test_callable_is_applied_exactly(self, name):
        act = get_activation(name)
        u = _chunked_rows()
        expected = act.fn(u)
        assert np.array_equal(act.in_place(u), expected)

    @pytest.mark.parametrize("name", activation_names())
    def test_call_leaves_its_input_untouched(self, name):
        act = get_activation(name)
        u = _chunked_rows()
        before = u.copy()
        out = act(u)
        assert np.array_equal(u, before) and not np.shares_memory(out, u)
        assert np.array_equal(act(u.T), out.T)
        assert np.array_equal(act(u[:, ::2]), out[:, ::2])

    def test_rejects_an_array_it_cannot_write_over(self):
        act = get_activation("h1+h2")
        with pytest.raises(ValueError):
            act.in_place(_chunked_rows()[:, ::2])
        with pytest.raises(ValueError):
            act.in_place(np.zeros(5, dtype=np.float32))

    @pytest.mark.parametrize("name", ["h1+h2", "h1+h4"])
    def test_transient_memory_is_one_basis_and_one_row(self, name):
        # an (L + 1)-row basis of the call and one temporary row of the
        # recurrence, however many chunks the input spans; the slack covers
        # the array views' own objects
        act = get_activation(name)
        u = np.random.default_rng(2).standard_normal(3 * hermite.ACTIVATION_CHUNK + 5)
        tracemalloc.start()
        try:
            act.in_place(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (len(act.coeffs) + 1) * hermite.ACTIVATION_CHUNK * 8 + 8192

    def test_threads_on_different_blocks_give_one_threads_bits(self):
        # more threads than cores, switching often: buffers shared between
        # calls would mix the blocks' partial sums
        act = get_activation("h1+h4")
        blocks = [3.0 * np.random.default_rng(seed).standard_normal(2 * hermite.ACTIVATION_CHUNK + 5)
                  for seed in range(4)]
        expected = [act(b) for b in blocks]
        results = [None] * len(blocks)
        start = threading.Barrier(len(blocks))

        def work(i):
            start.wait()
            for _ in range(5):
                results[i] = act.in_place(blocks[i].copy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(blocks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
