"""Exact collective-spin machinery on the symmetric (Dicke) subspace.

An ensemble of ``n_atoms`` spin-1/2 particles restricted to the fully
symmetric subspace is a single spin J = n_atoms/2 living in n_atoms + 1
dimensions.  Every generator used here (Jx, Jy, Jz, Jz^2 and their real
combinations) is Hermitian and tridiagonal in the m basis, so it is stored
as a real diagonal plus a complex super-diagonal: O(N) memory, O(N)
expectation values.  A non-diagonal rotation is a Chebyshev expansion of
exp(-i theta G) in banded mat-vecs: O(N) memory, no eigensolver, and a cost
that grows with |theta| times the half-width of G's spectrum (N/2 for Jx).
The expansion is truncated at terms below 1e-16, so evolution is exact up
to rounding, with no step size to tune, and can serve as ground truth for
closed-form expressions.
A state is its plain array of amplitudes; ``css_state`` returns them
normalised and read-only.  One evaluator, ``_schedule_moments``, runs a
pulse schedule on them: the steps up to the last twist act on the
amplitudes, and the rotations after it need no state at all: they act on
the first and second moments of J as one SO(3) matrix, read from the
state's populations and first two coherences in O(N).  The moments of the
twisted x-CSS alone are closed form (``_twisted_moments``).
``TridiagonalOperator`` is the package's one operator type; its bands are
the whole operator, and no dense matrix of it is built.  The check that
shares none of this, ``full_space_oracle``, runs n <= 8 spins-1/2 in 2^n
dimensions and reads Jx, Jy and Jz off bit tables (``_bit_tables``).

Basis convention: amplitudes are indexed by m descending from +J, i.e.
index 0 is m = +J and index n_atoms is m = -J.  Jz is diagonal in this
order.  One fixed convention prevents silent sign errors in Jy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NumericsError,
    _check_integer,
    _check_real,
)

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
VARIANCE_FLOOR = -1e-10
MAX_ATOMS = 10_000
# the 2^n oracle's bit tables hold 3 4^n complex entries: 3 MB at n = 8
_ORACLE_MAX_ATOMS = 8

GENERATOR_NAMES = ("jx", "jy", "jz", "jz2")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Hermitian operator tridiagonal in the m basis of a spin irrep.

    Parameters
    ----------
    diag : real ndarray, shape (dim,), or (P, dim) for a stack of P operators
    upper : complex ndarray, shape (dim - 1,), or (P, dim - 1)
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
        if (
            diag.ndim not in (1, 2)
            or diag.shape[-1] < 1
            or upper.shape != diag.shape[:-1] + (diag.shape[-1] - 1,)
        ):
            raise DimensionMismatchError(
                "need diag (dim,) and upper (dim-1,), or stacks (P, dim) and "
                f"(P, dim-1), got {diag.shape} and {upper.shape}"
            )
        diag.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "upper", upper)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """A @ vec in O(dim) for a complex vector (dim,) or block (dim, *axes).

        A stack of P operators takes vectors stacked the same way, (P, dim) or
        (P, dim, k), and applies operator p to entry p.
        """
        columns = (1,) * (vec.ndim - self.diag.ndim)  # per-row factors broadcast over columns
        diag = self.diag.reshape(self.diag.shape + columns)
        upper = self.upper.reshape(self.upper.shape + columns)
        # the m axis, after any stack axis
        head = (Ellipsis, slice(None, -1)) + (slice(None),) * len(columns)
        tail = (Ellipsis, slice(1, None)) + (slice(None),) * len(columns)
        out = diag * vec
        out[head] += upper * vec[tail]
        out[tail] += upper.conj() * vec[head]
        return out


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
            _check_real(name, getattr(self, name))


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
        _check_real("angle", self.angle)


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


def build_collective_ops(n_atoms: int) -> CollectiveOps:
    """Angular-momentum operators for J = n_atoms/2 in the m-descending basis.

    Each is stored as its two bands (O(n_atoms)); Jy's super-diagonal is
    -i times Jx's.  A rotation by theta then costs O(n_atoms) memory and
    about |theta| n_atoms / 2 banded mat-vecs.

    Raises
    ------
    ConfigError
        If n_atoms is not an integer, or is outside [1, 10_000], the range
        the closed-form checks cover.
    """
    _check_integer("n_atoms", n_atoms, 1, MAX_ATOMS)
    m, ladder = _m_and_ladder(n_atoms + 1)
    zeros = np.zeros(n_atoms)
    return CollectiveOps(
        n_atoms=n_atoms,
        jx=TridiagonalOperator(np.zeros(n_atoms + 1), ladder / 2),
        jy=TridiagonalOperator(np.zeros(n_atoms + 1), -0.5j * ladder),
        jz=TridiagonalOperator(m, zeros),
        jz2=TridiagonalOperator(m * m, zeros),
    )


def css_state(n_atoms: int, theta: float, phi: float) -> np.ndarray:
    """Coherent spin state |theta, phi⟩ in the Dicke basis, as its read-only
    amplitudes (n_atoms + 1,), m descending.

    The amplitude at m = J - k is
    sqrt(C(n_atoms, k)) * cos(theta/2)^(n_atoms-k) * (e^{i phi} sin(theta/2))^k.
    Log-magnitudes are summed outward from the peak index over the ratios
    log|a_k / a_(k-1)| = log((n_atoms-k+1)/k)/2 + log|tan(theta/2)|, so large
    ensembles neither overflow nor lose digits to big log-factorials; the
    result is then normalized.
    """
    _check_integer("n_atoms", n_atoms, 1, MAX_ATOMS)
    k = np.arange(n_atoms + 1)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    with np.errstate(divide="ignore"):
        log_c = np.log(abs(c)) if c != 0 else -np.inf
        log_s = np.log(abs(s)) if s != 0 else -np.inf
        ratios = 0.5 * np.log((n_atoms - k[:-1]) / k[1:]) + (log_s - log_c)
    peak = np.count_nonzero(ratios > 0)  # the ratios decrease with k
    log_w = np.zeros(n_atoms + 1)
    log_w[peak + 1 :] = np.cumsum(ratios[peak:])
    log_w[:peak] = -np.cumsum(ratios[:peak][::-1])[::-1]
    signs = np.sign(c) ** (n_atoms - k) * np.sign(s) ** k if (c < 0 or s < 0) else 1.0
    amps = signs * np.exp(log_w) * np.exp(1j * phi * k)
    amps /= np.linalg.norm(amps)
    amps.setflags(write=False)
    return amps


def x_css(n_atoms: int) -> np.ndarray:
    """The x-polarized CSS (theta = pi/2, phi = 0) every sequence starts from."""
    return css_state(n_atoms, np.pi / 2, 0.0)


def _propagate(generator: TridiagonalOperator, angle: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i*angle*G) @ vec for a Hermitian tridiagonal G, or for each of a stack.

    ``vec`` is one vector of shape (dim,) or a block (dim, *axes), and the
    result is shaped like it.  A stack of P generators (bands (P, dim) and
    (P, dim - 1)) propagates ``vec`` with each, giving (P,) + vec.shape.
    Diagonal generators (Jz, Jz^2) and a zero angle short-circuit to exact
    phase factors.
    Otherwise the exponential is expanded in Chebyshev polynomials
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)):

        exp(-i angle G) v = e^{-i angle c} sum_k (2 - delta_k0) (-i)^k
                            J_k(angle h) T_k((G - c)/h) v,

    where [c - h, c + h] is the Gershgorin interval of the two bands, one per
    generator of a stack.  Each T_k v follows from the previous two by one
    banded mat-vec, so memory is O(dim) per generator, and the cost is about
    |angle| h + O((|angle| h)^(1/3)) mat-vecs: it grows with |angle| times
    the half-width h (N/2 for Jx at N atoms; a Jz^2 term of weight w in a
    combined generator adds |w| N^2/8).  A stack runs one recurrence on all
    its rows, as many terms as its widest row needs.  Only terms with
    |J_k| < 1e-16 are dropped, and |T_k| <= 1 on the interval, so the
    truncation error is at the level of rounding.
    """
    diag, upper = generator.diag, generator.upper
    stack = diag.shape[:-1]  # () for one generator, (P,) for a stack
    if stack:  # broadcast_to costs more than a diagonal step on one generator
        vec = np.broadcast_to(vec, stack + vec.shape)
    columns = (1,) * (vec.ndim - diag.ndim)  # per-row factors broadcast over the columns
    if angle == 0 or not upper.any():
        phases = np.exp(-1j * angle * diag)
        return phases.reshape(phases.shape + columns) * vec
    size = np.abs(upper)
    edge = np.zeros(stack + (1,))
    radius = np.concatenate((edge, size), axis=-1) + np.concatenate((size, edge), axis=-1)
    low = (diag - radius).min(axis=-1, keepdims=True)
    high = (diag + radius).max(axis=-1, keepdims=True)
    centre, half_width = (high + low) / 2, (high - low) / 2
    # one coefficient per generator, broadcast over the vector's shape
    coeffs = _chebyshev_coefficients(angle * half_width[..., 0])
    coeffs = np.moveaxis(coeffs, -1, 0)
    coeffs = coeffs.reshape(coeffs.shape + (1,) + columns)
    # 2 (G - c)/h, the factor of the three-term recurrence; an all-zero
    # generator of a stack has h = 0, and its scaled bands stay 0
    scale = np.divide(2, half_width, out=np.zeros_like(half_width), where=half_width > 0)
    scaled = TridiagonalOperator(scale * (diag - centre), scale * upper)
    prev, cur = vec, 0.5 * scaled.matvec(vec)
    total = coeffs[0] * prev + 2 * coeffs[1] * cur
    term = np.empty_like(total)
    for coeff in coeffs[2:]:
        prev, cur = cur, scaled.matvec(cur) - prev
        total += np.multiply(2 * coeff, cur, out=term)
    total *= np.exp(-1j * angle * centre[..., 0]).reshape(coeffs.shape[1:])
    return total


def _chebyshev_coefficients(x: float | np.ndarray) -> np.ndarray:
    """(-i)^k J_k(x) for k = 0, 1, ... while Kapteyn's bound on |J_k(x)| >= 1e-16.

    ``x`` is a float, giving shape (K,), or an array, giving one row per
    entry, shape x.shape + (K,); the grid and K are set by max |x| and shared
    by every row.  Kapteyn's inequality (DLMF 10.14.8) bounds |J_k(k z)| for
    0 < z <= 1 by (z e^r / (1 + r))^k with r = sqrt(1 - z^2); the bound rises
    with z and falls monotonically in k once k > |x|, so every dropped term
    of every row is below 1e-16.  By Jacobi-Anger,
    exp(-i x cos t) = sum_k (-i)^k J_k(x) e^{ikt}, so one FFT of it on 2 half
    points gives the coefficients, aliased with those of index k +- 2 half.
    half >= |x| + 12 |x|^(1/3) + 40 puts every alias in the Airy tail of J_k,
    below 1e-17.  At least two coefficients are kept, which the recurrence in
    ``_propagate`` needs.
    """
    x = np.asarray(x, dtype=float)
    top = float(np.abs(x).max())
    half = math.ceil(top + 12 * top ** (1 / 3) + 40)
    k = np.arange(1, half + 1)
    z = np.minimum(top / k, 1.0)
    root = np.sqrt(1 - z * z)
    with np.errstate(divide="ignore"):  # x = 0 gives log(0) = -inf, a zero bound
        log_bound = k * (np.log(z) + root - np.log1p(root))
    keep = max(2, 1 + np.count_nonzero(log_bound >= math.log(1e-16)))
    t = np.arange(2 * half) * (np.pi / half)
    return np.fft.fft(np.exp(-1j * x[..., None] * np.cos(t)))[..., :keep] / (2 * half)


def _clamped_variance(var):
    """One variance or an array of them, rounding-level negatives set to zero."""
    if np.any(var <= VARIANCE_FLOOR):
        raise NumericsError(
            f"variance {np.min(var):.3e} below -1e-10: not mere rounding"
        )
    return np.where(var < 0, 0.0, var)


def _spin_moments(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and symmetrised second moments of J for amplitudes in the m basis.

    ``amps`` is one state (dim,) or a block of columns (dim, k).  Returns
    <J> = (<Jx>, <Jy>, <Jz>) and M_ab = <{J_a, J_b}>/2, shapes (3,) and
    (3, 3), or (k, 3) and (k, 3, 3) for a block.  Everything is read from
    the diagonal of the density matrix and its first two off-diagonals in
    O(dim) per column: <J+> = <Jx> + i<Jy> and <{J+, Jz}> = <{Jx, Jz}> +
    i<{Jy, Jz}> from the first, <J+^2> = <Jx^2 - Jy^2> + i<{Jx, Jy}> from
    the second, and <Jx^2 + Jy^2> = j(j+1) - <Jz^2> from the Casimir.  A
    column of a block gets the bits of its own 1-D call.  This is where
    amplitudes are read, so each column must be normalised to within 1e-12.
    """
    if amps.ndim not in (1, 2):
        raise DimensionMismatchError(f"need a (dim,) state or (dim, k) block, got {amps.shape}")
    # one contiguous row per column: each sum below then runs over a row
    # exactly as it does over a single state
    rows = np.ascontiguousarray(amps.T)
    m, ladder = _m_and_ladder(amps.shape[0])
    pop = (rows.conj() * rows).real
    norm2 = pop.sum(axis=-1)
    deviation = np.abs(np.sqrt(norm2) - 1.0).reshape(-1)
    worst = int(deviation.argmax())
    if deviation[worst] >= NORM_TOL:
        raise NumericsError(
            f"state norm of column {worst} deviates from 1 by {deviation[worst]:.3g}, beyond 1e-12"
        )
    near = rows[..., :-1].conj() * rows[..., 1:] * ladder  # <m|J+|m-1> a_m^* a_(m-1)
    plus = near.sum(axis=-1)
    plus_z = (near * (m[:-1] + m[1:])).sum(axis=-1)
    plus2 = (rows[..., :-2].conj() * rows[..., 2:] * (ladder[:-1] * ladder[1:])).sum(axis=-1)
    jz = (pop * m).sum(axis=-1)
    jz2 = (pop * (m * m)).sum(axis=-1)
    j = (m.size - 1) / 2
    transverse = j * (j + 1) * norm2 - jz2  # <Jx^2 + Jy^2>
    xx, yy = (transverse + plus2.real) / 2, (transverse - plus2.real) / 2
    xy, xz, yz = plus2.imag / 2, plus_z.real / 2, plus_z.imag / 2
    # the column axis comes out first under .T; M is symmetric, so
    # transposing each 3 x 3 block with it changes nothing
    mean = np.array([plus.real, plus.imag, jz]).T
    second = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, jz2]]).T
    return mean, second


def _rotation_matrix(generator: str, angle: float | np.ndarray) -> np.ndarray:
    """SO(3) matrix R with U^dag J_a U = sum_b R_ab J_b for U = exp(-i angle J_n).

    An array of angles gives one matrix per angle, shape angle.shape + (3, 3).
    """
    angle = np.asarray(angle, dtype=float)
    axis = "xyz".index(generator[1])
    first, second = (axis + 1) % 3, (axis + 2) % 3  # cyclic: the right-hand sense
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    out[..., axis, axis] = 1.0
    out[..., first, first] = out[..., second, second] = c
    out[..., first, second], out[..., second, first] = -s, s
    return out


def _rotate_moments(
    rotation: np.ndarray, mean: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R<J> and R M R^T: the moments after the rotations R stands for.

    ``rotation`` is one SO(3) matrix (3, 3) or a stack (..., 3, 3); ``mean``
    (..., 3) and ``second`` (..., 3, 3) come from ``_spin_moments``.  The
    leading axes broadcast as in np.matmul, so a stack of S rotations meets
    k states as (S, 3, 3) against (k, 1, 3) and (k, 1, 3, 3).
    """
    mean = (rotation @ mean[..., None])[..., 0]
    second = rotation @ second @ rotation.swapaxes(-1, -2)
    return mean, second


def _schedule_moments(
    amps: np.ndarray, steps: Sequence[tuple[str, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """<J> and M after a schedule of (generator, angle) steps run on ``amps``.

    ``amps`` is one state (dim,), the x-CSS for every caller; each step
    rebinds it, so no copy of the input outlives the first step here.  Only
    the steps up to and including the last Jz^2 twist act on the amplitudes.
    The rotations after it act on the moments instead: in the Heisenberg
    picture each maps J to R J with R in SO(3), so their product R gives
    <J> -> R<J> and M -> R M R^T (``_rotate_moments``), read from the
    twisted state by ``_spin_moments`` in O(N).
    """
    ops = build_collective_ops(amps.size - 1)
    twists = [k for k, (generator, _) in enumerate(steps) if generator == "jz2"]
    split = twists[-1] + 1 if twists else 0
    for generator, angle in steps[:split]:
        amps = _propagate(ops.by_name(generator), angle, amps)
    rotation = np.eye(3)
    for generator, angle in steps[split:]:
        rotation = _rotation_matrix(generator, angle) @ rotation
    return _rotate_moments(rotation, *_spin_moments(amps))


def _twisted_moments(n_atoms: int, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<J> and M of the x-CSS after exp(-i alpha Jz^2) for each of A twists,
    shapes (A, 3) and (A, 3, 3), closed form at every N (Kitagawa & Ueda,
    PRA 47, 5138 (1993)).  With p = N(N-1)/8 and c = cos^{N-2}(2 alpha):
    <J> = ((N/2) cos^{N-1}(alpha), 0, 0), M_xx = N/4 + p (1 + c),
    M_yy = N/4 + p (1 - c), M_zz = N/4, M_yz = 2p sin(alpha) cos^{N-2}(alpha)
    and M_xy = M_xz = 0 (R_x(pi) commutes with Jz^2 and fixes the x-CSS).
    At N = 1, where p = 0, the power N - 2 is taken as 0: no cos^{-1} meets p.
    """
    half, pairs, power = n_atoms / 2, n_atoms * (n_atoms - 1) / 8, max(n_atoms - 2, 0)
    squeeze, zero = np.cos(2 * alphas) ** power, np.zeros_like(alphas)
    xx, yy = half / 2 + pairs * (1 + squeeze), half / 2 + pairs * (1 - squeeze)
    yz = 2 * pairs * np.sin(alphas) * np.cos(alphas) ** power
    mean = np.array([half * np.cos(alphas) ** (n_atoms - 1), zero, zero]).T
    # M is symmetric, so .T moving the twist axis first leaves each block as is
    second = np.array([[xx, zero, zero], [zero, yy, yz], [zero, yz, zero + half / 2]]).T
    return mean, second


def schedule_expectations(n_atoms: int, schedule: PulseSchedule) -> dict[str, float]:
    """Dicke-basis expectations {Jx, Jy, Jz, Jz^2} of a schedule run on the x-CSS,
    through ``_schedule_moments``."""
    steps = [(step.generator, step.angle) for step in schedule]
    mean, second = _schedule_moments(x_css(n_atoms), steps)
    return dict(zip(GENERATOR_NAMES, [*mean.tolist(), float(second[2, 2])]))


@functools.lru_cache(maxsize=_ORACLE_MAX_ATOMS)
def _bit_tables(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only 2^n product-space tables, built once per n from bit counts.

    Bit j of index k is set when spin j points down.  Returns Jz's diagonal
    m_k = n/2 - popcount(k), shape (2^n,); the phases i^popcount(k) of
    S = diag(1, i) on every spin, (2^n,); and (H, H S^dag, I), shape
    (3, 2^n, 2^n), with the Walsh-Hadamard H_kl = (-1)^popcount(k & l) / 2^(n/2).
    H Jz H = Jx and S Jx S^dag = Jy, so row a takes a state to J_a's eigenbasis.
    """
    bits = (np.arange(2**n_atoms)[:, None] >> np.arange(n_atoms)) & 1  # (2^n, n)
    ones = bits.sum(axis=1)
    m = n_atoms / 2 - ones
    phases = np.array([1, 1j, -1, -1j])[ones % 4]
    # popcount(k & l) is the k, l entry of bits @ bits^T
    hadamard = (-1.0) ** (bits @ bits.T) / 2 ** (n_atoms / 2)
    bases = np.stack([hadamard, hadamard * phases.conj(), np.eye(m.size)])
    for array in (m, phases, bases):
        array.flags.writeable = False
    return m, phases, bases


def full_space_oracle(n_atoms: int, schedule: PulseSchedule) -> dict[str, float]:
    """Expectations from an independent 2^n product-space simulation, n <= 8.

    Starts from |+x⟩^n, every amplitude 2^(-n/2), and builds no collective
    operator: with the tables of ``_bit_tables``, a Jz or Jz^2 step is a
    phase vector, a Jx step is H e^{-i angle Jz} H, and a Jy step is that
    between S and S^dag.  <Jx>, <Jy> and <Jz> are |(H, H S^dag, I) psi|^2
    against m, and <Jz^2> is |psi|^2 against m^2: none of the Dicke path's
    code, on purpose.  Used to validate the symmetric-subspace code.
    """
    _check_integer("n_atoms", n_atoms, 1, _ORACLE_MAX_ATOMS)
    m, phases, bases = _bit_tables(n_atoms)
    hadamard, to_y, _ = bases
    full = np.full(m.size, 2 ** (-n_atoms / 2), dtype=complex)
    for step in schedule:
        turn = np.exp(-1j * step.angle * (m * m if step.generator == "jz2" else m))
        if step.generator == "jx":
            full = hadamard @ (turn * (hadamard @ full))
        elif step.generator == "jy":
            full = phases * (hadamard @ (turn * (to_y @ full)))
        else:
            full = turn * full
    populations = np.abs(bases @ full) ** 2
    jx, jy, jz = (populations @ m).tolist()
    return {"jx": jx, "jy": jy, "jz": jz, "jz2": float(populations[2] @ (m * m))}
