"""Exact collective-spin machinery on the symmetric (Dicke) subspace.

An ensemble of ``n_atoms`` spin-1/2 particles restricted to the fully
symmetric subspace is a single spin J = n_atoms/2 living in n_atoms + 1
dimensions.  Every generator used here (Jx, Jy, Jz, Jz^2 and their real
combinations) is Hermitian and tridiagonal in the m basis, so it is stored
as a real diagonal plus a complex super-diagonal: O(N) memory, O(N)
expectation values.  Evolution is exact up to rounding, with no step size or
truncation, so it can serve as ground truth for closed-form expressions.
A non-diagonal rotation diagonalises the tridiagonal generator, whose
eigenvectors take (N+1)^2 reals; that is the remaining O(N^2) cost.
``TridiagonalOperator`` is the package's one operator type: ``squeezing``
takes its photon Stokes operators from the same spin-N_s/2 bands and
propagates them with the same rotation.

Basis convention: amplitudes are indexed by m descending from +J, i.e.
index 0 is m = +J and index n_atoms is m = -J.  Jz is diagonal in this
order.  One fixed convention prevents silent sign errors in Jy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NumericsError,
)

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
IMAG_TOL = 1e-10
VARIANCE_FLOOR = -1e-10
MAX_ATOMS = 10_000

GENERATOR_NAMES = ("jx", "jy", "jz", "jz2")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Hermitian operator tridiagonal in the m basis of a spin irrep.

    Parameters
    ----------
    diag : real ndarray, shape (dim,)
    upper : complex ndarray, shape (dim - 1,)
        Super-diagonal entries <k|A|k+1>; the sub-diagonal is their
        conjugate, so the operator is Hermitian by construction.
    """

    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        diag = np.array(self.diag)
        if np.iscomplexobj(diag):
            if np.abs(diag.imag).max(initial=0.0) >= HERMITIAN_TOL:
                raise NonHermitianError("tridiagonal operator needs a real diagonal")
            diag = diag.real
        diag = np.array(diag, dtype=float)
        upper = np.array(self.upper, dtype=complex)
        if diag.ndim != 1 or diag.size < 1 or upper.shape != (diag.size - 1,):
            raise DimensionMismatchError(
                f"need diag (dim,) and upper (dim-1,), got {diag.shape} and {upper.shape}"
            )
        diag.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def entries(self) -> np.ndarray:
        """The dense complex matrix, built on each access (O(dim^2))."""
        return (
            np.diag(self.diag.astype(complex))
            + np.diag(self.upper, 1)
            + np.diag(self.upper.conj(), -1)
        )

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """A @ vec in O(dim) for a complex vector."""
        out = self.diag * vec
        out[:-1] += self.upper * vec[1:]
        out[1:] += self.upper.conj() * vec[:-1]
        return out


@dataclass(frozen=True)
class DickeState:
    """Pure state of the symmetric subspace: one complex amplitude per m."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be positive, got {self.n_atoms}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.n_atoms + 1:
            raise DimensionMismatchError(
                f"expected {self.n_atoms + 1} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) >= NORM_TOL:
            raise NumericsError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def j(self) -> float:
        return self.n_atoms / 2

    @property
    def m_values(self) -> np.ndarray:
        return self.j - np.arange(self.n_atoms + 1)


@dataclass(frozen=True)
class PhaseTriple:
    """Accumulated phases of one interrogation cycle.

    alpha is the twisting phase chi*t, beta the signal/noise phase, gamma the
    drive phase; all in radians.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"phase {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PulseStep:
    """One instantaneous rotation or twisting segment: exp(-i*angle*G)."""

    generator: str
    angle: float

    def __post_init__(self):
        if self.generator not in GENERATOR_NAMES:
            raise ConfigError(
                f"unknown generator {self.generator!r}; expected one of {GENERATOR_NAMES}"
            )


PulseSchedule = Sequence[PulseStep]


@dataclass(frozen=True)
class CollectiveOps:
    """The J = n_atoms/2 angular-momentum operators plus Jz^2."""

    n_atoms: int
    jx: TridiagonalOperator
    jy: TridiagonalOperator
    jz: TridiagonalOperator
    jz2: TridiagonalOperator

    def by_name(self, name: str) -> TridiagonalOperator:
        if name not in GENERATOR_NAMES:
            raise ConfigError(f"unknown generator {name!r}")
        return getattr(self, name)


def _m_and_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """m values (descending) and the J+ coefficients sqrt(j(j+1) - m(m+1))."""
    j = (dim - 1) / 2
    m = j - np.arange(dim)
    return m, np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))


def spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (jx, jy, jz) matrices for the spin-(dim-1)/2 irrep, m descending."""
    m, ladder = _m_and_ladder(dim)
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = ladder
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    jz = np.diag(m.astype(complex))
    return jx, jy, jz


def build_collective_ops(n_atoms: int) -> CollectiveOps:
    """Angular-momentum operators for J = n_atoms/2 in the m-descending basis.

    Each is stored as its two bands (O(n_atoms)); Jy's super-diagonal is
    -i times Jx's.

    Raises
    ------
    ConfigError
        If n_atoms is outside [1, 10_000] (a rotation's eigenvectors take
        (n+1)^2 reals).
    """
    if not isinstance(n_atoms, (int, np.integer)) or isinstance(n_atoms, bool):
        raise ConfigError(f"n_atoms must be an integer, got {n_atoms!r}")
    if not 1 <= n_atoms <= MAX_ATOMS:
        raise ConfigError(
            f"n_atoms={n_atoms} outside [1, {MAX_ATOMS}]: a rotation's (n+1)^2 "
            "eigenvector entries would not fit"
        )
    m, ladder = _m_and_ladder(n_atoms + 1)
    zeros = np.zeros(n_atoms)
    return CollectiveOps(
        n_atoms=n_atoms,
        jx=TridiagonalOperator(np.zeros(n_atoms + 1), ladder / 2),
        jy=TridiagonalOperator(np.zeros(n_atoms + 1), -0.5j * ladder),
        jz=TridiagonalOperator(m, zeros),
        jz2=TridiagonalOperator(m * m, zeros),
    )


def css_state(n_atoms: int, theta: float, phi: float) -> DickeState:
    """Coherent spin state |theta, phi⟩ in the Dicke basis.

    The amplitude at m = J - k is
    sqrt(C(n_atoms, k)) * cos(theta/2)^(n_atoms-k) * (e^{i phi} sin(theta/2))^k.
    Binomial weights are assembled in log space so large ensembles do not
    overflow, then normalized.
    """
    if not 1 <= n_atoms <= MAX_ATOMS:
        raise ConfigError(f"n_atoms={n_atoms} outside [1, {MAX_ATOMS}]")
    k = np.arange(n_atoms + 1)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    with np.errstate(divide="ignore"):
        log_c = np.log(abs(c)) if c != 0 else -np.inf
        log_s = np.log(abs(s)) if s != 0 else -np.inf
    log_factorial = np.array([math.lgamma(j + 1) for j in range(n_atoms + 1)])
    log_w = 0.5 * (log_factorial[n_atoms] - log_factorial - log_factorial[::-1])
    log_w[:n_atoms] += (n_atoms - k[:n_atoms]) * log_c  # k = n has no cos factor
    log_w[1:] += k[1:] * log_s  # k = 0 has no sin factor
    signs = np.sign(c) ** (n_atoms - k) * np.sign(s) ** k if (c < 0 or s < 0) else 1.0
    amps = signs * np.exp(log_w - log_w.max()) * np.exp(1j * phi * k)
    amps /= np.linalg.norm(amps)
    return DickeState(n_atoms=n_atoms, amplitudes=amps)


def x_css(n_atoms: int) -> DickeState:
    """The x-polarized CSS (theta = pi/2, phi = 0) every sequence starts from."""
    return css_state(n_atoms, np.pi / 2, 0.0)


def _check_operator(op: TridiagonalOperator, n_atoms: int, role: str) -> None:
    if op.dim != n_atoms + 1:
        raise DimensionMismatchError(f"{role} dim {op.dim} != state dim {n_atoms + 1}")


def _propagate(generator: TridiagonalOperator, angle: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i*angle*G) @ vec for a Hermitian tridiagonal G.

    ``vec`` is one vector of shape (dim,) or a block of columns (dim, k).
    Diagonal generators (Jz, Jz^2) short-circuit to exact phase factors.
    Otherwise the diagonal unitary S with S^dag G S real and symmetric (its
    super-diagonal |u_k|) is applied, and the real tridiagonal matrix is
    diagonalised with LAPACK's tridiagonal eigensolver.
    """
    rows = (-1,) + (1,) * (vec.ndim - 1)  # per-row factors broadcast over columns
    upper = generator.upper
    if not upper.any():
        return np.exp(-1j * angle * generator.diag).reshape(rows) * vec
    import scipy.linalg  # deferred: ~0.3 s to import, and only rotations need it

    size = np.abs(upper)
    unit = np.ones_like(upper)
    np.divide(upper.conj(), size, out=unit, where=size > 0)
    gauge = np.concatenate(([1.0], np.cumprod(unit))).reshape(rows)
    w, v = scipy.linalg.eigh_tridiagonal(generator.diag, size)
    coeffs = np.exp(-1j * angle * w).reshape(rows) * _real_matvec(v.T, gauge.conj() * vec)
    return gauge * _real_matvec(v, coeffs)


def _real_matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Real matrix times a complex vector or block, without a complex copy of the matrix."""
    return mat @ vec.real + 1j * (mat @ vec.imag)


def evolve_unitary(
    state: DickeState, generator: TridiagonalOperator, duration_phase: float
) -> DickeState:
    """Apply exp(-i * duration_phase * generator) to a Dicke state.

    Evolution is unitary up to rounding with no step-size tuning.
    """
    _check_operator(generator, state.n_atoms, "evolution generator")
    amps = _propagate(generator, duration_phase, state.amplitudes)
    return DickeState(n_atoms=state.n_atoms, amplitudes=amps)


def expect(state: DickeState, op: TridiagonalOperator) -> float:
    """⟨psi|op|psi⟩ for a Hermitian op; the (tiny) imaginary part is discarded."""
    _check_operator(op, state.n_atoms, "expect() operator")
    value = np.vdot(state.amplitudes, op.matvec(state.amplitudes))
    if abs(value.imag) >= IMAG_TOL:
        raise NumericsError(
            f"expectation has imaginary part {value.imag:.3e} beyond 1e-10"
        )
    return float(value.real)


def variance(state: DickeState, op: TridiagonalOperator) -> float:
    """⟨op^2⟩ - ⟨op⟩^2, clamping rounding-level negatives to zero."""
    _check_operator(op, state.n_atoms, "variance() operator")
    vec = op.matvec(state.amplitudes)
    second = np.vdot(vec, vec).real  # ⟨psi|op^2|psi⟩ with op hermitian
    first = np.vdot(state.amplitudes, vec).real
    var = second - first * first
    if var < 0:
        if var <= VARIANCE_FLOOR:
            raise NumericsError(f"variance {var:.3e} below -1e-10: not mere rounding")
        var = 0.0
    return float(var)


def apply_schedule(
    state: DickeState, ops: CollectiveOps, schedule: PulseSchedule
) -> DickeState:
    """Run a pulse schedule (ordered rotations/twists) on a Dicke state."""
    for step in schedule:
        state = evolve_unitary(state, ops.by_name(step.generator), step.angle)
    return state


def schedule_expectations(n_atoms: int, schedule: PulseSchedule) -> dict[str, float]:
    """Dicke-basis expectations {Jx, Jy, Jz, Jz^2} of a schedule run on the x-CSS."""
    ops = build_collective_ops(n_atoms)
    state = apply_schedule(x_css(n_atoms), ops, schedule)
    return {name: expect(state, ops.by_name(name)) for name in GENERATOR_NAMES}


def full_space_oracle(n_atoms: int, schedule: PulseSchedule) -> dict[str, float]:
    """Expectations from an independent 2^n product-space simulation.

    Builds the collective operators as Kronecker sums of single-spin Paulis,
    starts from the product |+x⟩^n, and propagates with scipy's expm (a
    different algorithm from the Dicke path on purpose).  Only feasible for
    n_atoms <= 4; used to validate the symmetric-subspace code.
    """
    if not 1 <= n_atoms <= 4:
        raise ConfigError(f"full-space oracle limited to n_atoms <= 4, got {n_atoms}")
    import scipy.linalg

    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    eye = np.eye(2, dtype=complex)

    def collective(single: np.ndarray) -> np.ndarray:
        total = np.zeros((2**n_atoms, 2**n_atoms), dtype=complex)
        for site in range(n_atoms):
            factors = [eye] * n_atoms
            factors[site] = single
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += term
        return total

    ops = {"jx": collective(sx), "jy": collective(sy), "jz": collective(sz)}
    ops["jz2"] = ops["jz"] @ ops["jz"]

    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    full = psi
    for _ in range(n_atoms - 1):
        full = np.kron(full, psi)
    for step in schedule:
        full = scipy.linalg.expm(-1j * step.angle * ops[step.generator]) @ full

    return {name: float(np.vdot(full, ops[name] @ full).real) for name in GENERATOR_NAMES}
