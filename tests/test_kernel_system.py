"""A single row is a batch of one: every single-row result is the first row of
the batched result, bitwise, and agrees with the multi-row batch."""

import numpy as np
import pytest

from reconstab.alignment import AlignmentSolver
from reconstab.data import LabeledDataset, generate_synthetic, sample_teacher
from reconstab.featuremaps import sample_map
from reconstab.hermite import get_activation
from reconstab.linops import SOLVE_BLOCK, KernelSolveCache, KernelSystem
from reconstab.trainer import FitReport, fit_min_norm

D_X = D_Y = 5
# rows of the large instance, whose leading views cut the factor's diagonal
# blocks at and around a block edge; its wider rows and feature counts keep
# the Gram nonsingular
N_LARGE = 2 * SOLVE_BLOCK + 22
LARGE = {"d_x": 20, "rf": 2 * N_LARGE, "ntk": 40}
SMALL = {"d_x": D_X, "rf": 60, "ntk": 4}


def _instance(kind: str, n: int = 12):
    size = LARGE if n == N_LARGE else SMALL
    d_x = d_y = size["d_x"]
    teacher = sample_teacher(d_x, 0)
    dataset = generate_synthetic(n, d_x, d_y, teacher, 1)
    probes = generate_synthetic(4, d_x, d_y, teacher, 2).z
    if kind == "rf":
        fmap = sample_map("rf", size["rf"], d_x + d_y, get_activation("h1+h2"), 3)
    else:
        fmap = sample_map("ntk", size["ntk"], d_x + d_y, get_activation("h0+h1"), 3)
    return fmap, dataset, probes


@pytest.mark.parametrize("kind", ["rf", "ntk"])
def test_batch_of_one_equals_batch(kind):
    fmap, dataset, probes = _instance(kind)
    model = fit_min_norm(fmap, dataset)

    batch = model.predict(probes)
    for i, z in enumerate(probes):
        single = model.predict(z)
        assert single.shape == (1,)
        assert np.array_equal(single, model.predict(z[None]))
        assert single[0] == pytest.approx(batch[i], rel=1e-12, abs=1e-12)

    z, zp = probes[0], probes[1]
    assert fmap.kernel(z, zp) == fmap.prepare(zp).cross(fmap.prepare(z))[0, 0]
    assert fmap.kernel(z, zp) == pytest.approx(
        fmap.prepare(probes).cross(fmap.prepare(z))[0, 1], rel=1e-12
    )

    # one solve of K^{-1} k(z1) against the explicit two-solve residual formula
    system = KernelSystem.build(fmap, dataset.z[1:])
    z1 = dataset.z[0]
    k1, kz = system.cross(fmap.prepare(z1))[0], system.cross(fmap.prepare(z))[0]
    den = fmap.kernel(z1, z1) - float(k1 @ system.solve(k1))
    num = fmap.kernel(z, z1) - float(kz @ system.solve(k1))
    got_num, got_den = AlignmentSolver(system).alignment_parts(z, z1)
    assert abs(got_num - num) <= 1e-12 * (1.0 + abs(num))
    assert abs(got_den - den) <= 1e-12 * (1.0 + abs(den))

    # a one-row leave-one-out fit is the zero model, perfectly conditioned
    one = LabeledDataset(z=dataset.z[:1], g=dataset.g[:1], d_x=D_X, d_y=D_Y)
    loo = fit_min_norm(fmap, one.drop_row(0))
    assert loo.n_train == 0
    assert loo.report == FitReport(0.0)
    assert (loo.system.cache.min_eig, loo.system.cache.condition) == (0.0, 1.0)
    assert loo.predict(z)[0] == pytest.approx(0.0, abs=1e-12)


B = SOLVE_BLOCK


@pytest.mark.parametrize("kind", ["rf", "ntk"])
@pytest.mark.parametrize("m", [0, 1, 11, B - 1, B, B + 1, N_LARGE - 1])
def test_leading_view_equals_system_on_leading_rows(kind, m, monkeypatch):
    # views of up to 11 rows come from the 12-row instance
    fmap, dataset, probes = _instance(kind, 12 if m < 12 else N_LARGE)
    full = KernelSystem.build(fmap, dataset.z)
    direct = KernelSystem.build(fmap, dataset.z[:m])

    def forbidden(*args, **kwargs):
        raise AssertionError("a leading view must not prepare or factor again")

    with monkeypatch.context() as patched:
        patched.setattr(type(fmap), "prepare", forbidden)
        patched.setattr(KernelSolveCache, "factor", forbidden)
        view = full.leading(m)
    assert view.n == m and view.map is fmap
    assert m == 0 or np.shares_memory(view.cache.chol.diags[0], full.cache.chol.diags[0])
    assert np.shares_memory(view.cache.diag_inv, full.cache.diag_inv) or m == 0
    # the view has no spectrum of its own
    assert np.isnan(view.cache.min_eig) and np.isnan(view.cache.max_eig)

    queries = fmap.prepare(probes)
    cross, expected = view.cross(queries), direct.cross(queries)
    assert cross.shape == expected.shape == (len(probes), m)
    assert np.allclose(cross, expected, rtol=1e-12, atol=1e-12)
    b = np.random.default_rng(m).standard_normal((m, 2))
    for rhs in (b, b[:, 0]):
        x, oracle = view.solve(rhs), direct.solve(rhs)
        assert np.linalg.norm(x - oracle) <= 1e-12 * (1.0 + np.linalg.norm(oracle))


def test_leading_rejects_out_of_range():
    fmap, dataset, _ = _instance("rf")
    system = KernelSystem.build(fmap, dataset.z)
    for m in (-1, dataset.n + 1):
        with pytest.raises(ValueError):
            system.leading(m)


@pytest.mark.parametrize("kind", ["rf", "ntk"])
def test_alignment_makes_one_cross_call_per_pair(kind, monkeypatch):
    fmap, dataset, probes = _instance(kind)
    system = KernelSystem.build(fmap, dataset.z[1:])
    z1 = dataset.z[0]
    k1, kz = system.cross(fmap.prepare(z1))[0], system.cross(fmap.prepare(probes))
    solved = system.solve(k1)
    expected = [
        (fmap.kernel(z, z1) - float(kz[i] @ solved), fmap.kernel(z1, z1) - float(k1 @ solved))
        for i, z in enumerate(probes)
    ]
    calls, features = [], []
    real = KernelSystem.cross

    def counting(self, queries):
        calls.append(queries.n)
        return real(self, queries)

    # the pair's rows become features once: its Gram and cross block share them
    producer = "feature_matrix" if kind == "rf" else "_derivs"
    real_features = getattr(type(fmap), producer)

    def counting_features(self, rows):
        features.append(len(rows))
        return real_features(self, rows)

    monkeypatch.setattr(KernelSystem, "cross", counting)
    monkeypatch.setattr(type(fmap), producer, counting_features)
    solver = AlignmentSolver(system)
    for z, (expected_num, expected_den) in zip(probes, expected):
        num, den = solver.alignment_parts(z, z1)
        assert abs(num - expected_num) <= 1e-12 * (1.0 + abs(expected_num))
        assert abs(den - expected_den) <= 1e-12 * (1.0 + abs(expected_den))
    assert calls == [2] * len(probes)
    assert features == [2] * len(probes)
