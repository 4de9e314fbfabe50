import pytest

from gencoag import (
    AdditiveKernel,
    ConstantKernel,
    ExponentialProfile,
    PowerSumKernel,
    SingularProductKernel,
    make_grid,
    sample_initial,
)
from gencoag.experiments import (
    CLOSED_FORM_TIMES,
    _mass_snapshots,
    mass_conservation_report,
    run_model,
)


@pytest.fixture
def grid10():
    return make_grid(10.0, 8)


@pytest.fixture
def grid30():
    return make_grid(30.0, 16)


@pytest.fixture
def exp_density(grid30):
    return sample_initial(ExponentialProfile(), grid30)


@pytest.fixture
def const_kernel():
    return ConstantKernel(1.0)


def kernel_trio():
    """The three stock families."""
    return [
        ConstantKernel(1.0),
        SingularProductKernel(k=1.0, sigma=0.2),
        AdditiveKernel(),
    ]


def high_rank_kernel():
    """Five separable factors, more than any stock family has:
    1 + mu + nu + (mu nu)^(-1/5) / 2 + (mu nu)^(1/2) / 4, at sigma = 0.2."""
    return PowerSumKernel([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0),
                           (0.5, -0.2, -0.2), (0.25, 0.5, 0.5)], sigma=0.2)


def random_density(grid, rng, scale=1.0):
    from gencoag import NumberDensity

    return NumberDensity(grid, scale * rng.random(grid.size), 0.0)


def grid_run(config, model, horizon, stops, eps=None):
    """A run of ``model`` on the grid of the sweep config ``config``."""
    grid = make_grid(config.n, config.cells_per_decade)
    return run_model(model, config.kernel, grid, sample_initial(config.profile, grid),
                     horizon, stops, eps=eps)


def mass_report(config, model, eps=None):
    """The mass report on its own run of ``model`` to the horizon."""
    traj = grid_run(config, model, config.horizon, _mass_snapshots(config), eps)
    return mass_conservation_report(config, traj)


def closed_form_run(config):
    """The SCE run that the closed-form check reads, stopping at its times."""
    return grid_run(config, "sce", max(CLOSED_FORM_TIMES), CLOSED_FORM_TIMES)
