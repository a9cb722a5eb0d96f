import pytest

from reconstab import linops


@pytest.fixture
def lanczos_runs(monkeypatch):
    """(n, operator applications, whether the run ended) of each
    ``linops._top_eigenvalue`` call made while the test runs; a run that its
    ``stop`` ended early has not ended."""
    runs = []
    real = linops._top_eigenvalue

    def counting(apply, n, stop=None):
        steps = 0

        def counted(v):
            nonlocal steps
            steps += 1
            return apply(v)

        theta = real(counted, n, stop)
        runs.append((n, steps, theta is not None))
        return theta

    monkeypatch.setattr(linops, "_top_eigenvalue", counting)
    return runs
