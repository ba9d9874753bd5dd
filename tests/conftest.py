import pytest

from spinlock.montecarlo import McConfig
from spinlock.noise import NoiseComponent


@pytest.fixture
def three_tone_noise() -> list[NoiseComponent]:
    """The lab noise model: two mains tones plus a slow drift."""
    return [
        NoiseComponent.from_field_pt(540, 50),
        NoiseComponent.from_field_pt(390, 100),
        NoiseComponent.from_slow_drift(40, 2.1),
    ]


@pytest.fixture
def default_mc() -> McConfig:
    """50 atoms, chi = 6.25e-4 * g at g = 1e6/s (50 photons), alpha = 0.01."""
    return McConfig(
        samples=2000,
        master_seed=7,
        n_atoms=50,
        chi=625.0,
        squeeze_duration=1.6e-5,
    )
