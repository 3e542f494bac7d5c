"""Phase-space data model for all-to-all sinusoidally coupled oscillators.

Phases live on the unwrapped real line (not reduced mod 2*pi) so that
winding information survives long runs; equilibrium matching depends on it.
All container types are immutable after construction and all operations are
pure, so everything here is safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _phase_array(values, name="phases"):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d sequence")
    if arr.size < 2:
        raise ValueError(f"{name} needs at least two entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhaseConfig:
    """Snapshot of N oscillator phases."""

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", _phase_array(self.phases))

    @property
    def n(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class NaturalFrequencies:
    """Intrinsic drift rates; required to have (numerically) zero mean."""

    omega: np.ndarray

    def __post_init__(self):
        arr = np.array(self.omega, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("omega must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("omega contains non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        with np.errstate(over="ignore"):  # refused below
            mean = float(arr.mean())
        if not math.isfinite(mean):
            raise ValueError("the mean of omega overflows")
        if abs(mean) > 1e-12 * scale:
            raise ValueError("omega must have zero mean")
        arr.setflags(write=False)
        object.__setattr__(self, "omega", arr)

    @classmethod
    def zero(cls, n: int) -> "NaturalFrequencies":
        return cls(np.zeros(n))

    @property
    def d_omega(self) -> float:
        """Spread max(omega) - min(omega)."""
        return float(span(self.omega))

    @property
    def is_identical(self) -> bool:
        return bool(np.all(self.omega == 0.0))


@dataclass(frozen=True)
class SimParams:
    """Fixed-step iteration parameters.

    A run stops once the gradient norm drops below ``conv_tol``, or at
    ``max_steps``; ``conv_tol = 0`` runs to the cap.
    """

    coupling: float
    step_size: float
    max_steps: int = 1_000_000
    conv_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.coupling < math.inf:
            raise ValueError("coupling must be positive and finite")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if not 0 <= self.conv_tol < math.inf:
            raise ValueError("conv_tol must be nonnegative and finite")


@dataclass(frozen=True)
class OrderParameter:
    """Magnitude and argument of the mean of exp(i*theta_k)."""

    r: float
    phi: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# array-level primitives (single canonical code path; see euler_step contract)
# ---------------------------------------------------------------------------

CHUNK_PHASES = 2**18  # phases per chunk of a row-wise pass over a long run


def row_chunks(rows: int, width: int, values: int = CHUNK_PHASES):
    """Slices of ``rows`` rows of ``width`` values, about ``values`` each."""
    step = max(1, values // width)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def row_dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis, one dot product per row, so a row's value
    does not depend on the rows beside it as a 2-d ``a @ b`` (one gemv) does;
    on 1-d operands it is bitwise ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def span(values: np.ndarray):
    """max - min over the last axis."""
    return values.max(axis=-1) - values.min(axis=-1)


def has_repeats(values: np.ndarray) -> bool:
    """Whether two entries of a 1-d array are equal, found as np.unique finds
    them but without the numpy.ma import that its first call costs."""
    v = np.sort(values)
    return bool((v[1:] == v[:-1]).any())


def mean_field(theta: np.ndarray):
    """Z = C + iS over the last axis of ``theta``, C = sum_j cos(theta_j) and
    S = sum_j sin(theta_j): the sums :func:`coupling_sums` reduces, in its
    order, so Z is bitwise the one an Euler step from ``theta`` forms.

    The coupling, the potential and the order parameter all derive from Z,
    which makes every one of them O(N) per configuration (Kuramoto 1975).
    """
    return np.add.reduce(np.cos(theta), -1) + 1j * np.add.reduce(np.sin(theta), -1)


def coupling_sums(theta: np.ndarray, out: np.ndarray | None = None,
                  sums=(None, None)) -> np.ndarray:
    """sum_j sin(theta_j - theta_i) for every i, in O(N), over the last axis
    of ``theta``: one configuration (N,) or one per row (B, N).

    Uses the order-parameter identity
    sum_j sin(theta_j - theta_i) = cos(theta_i) sum_j sin(theta_j)
                                   - sin(theta_i) sum_j cos(theta_j).
    Rounding error is of order N * eps against the pairwise sum.  A row of a
    C-contiguous (B, N) array is summed in the same order as the same row
    alone, so each row's result is bitwise that of the (N,) call.  For (B, N)
    ``theta``, ``sums`` may name two (B, 1) arrays that receive the sine and
    cosine sums S and C, the mean field's parts.
    """
    # row sums as a (B, 1) column; one configuration's as a scalar, which
    # numpy takes faster than a (1,) array
    rows = theta.ndim > 1
    s = np.sin(theta)
    c = np.cos(theta)
    out = np.multiply(c, np.add.reduce(s, -1, keepdims=rows, out=sums[0]), out=out)
    s *= np.add.reduce(c, -1, keepdims=rows, out=sums[1])
    out -= s
    return out


def velocity_arrays(theta, omega, coupling, out=None, sums=(None, None)):
    """Right-hand side omega_i + (K/N) sum_j sin(theta_j - theta_i).

    This equals minus the potential gradient; every stepper and gradient
    evaluation funnels through this function so the identities between them
    hold bit-exactly.  ``theta`` is (N,) or (B, N); ``coupling`` is a scalar
    and ``omega`` is (N,) or (1, N).  ``out`` and ``sums`` are optional
    output arrays for the result and for the sums of :func:`coupling_sums`.
    """
    v = coupling_sums(theta, out, sums)
    v *= coupling / theta.shape[-1]
    v += omega
    return v


def gradient_arrays(theta, omega, coupling):
    return -velocity_arrays(theta, omega, coupling)


def potential_from_mean_field(z, theta, omega, coupling):
    """(K/2N)(N^2 - |Z|^2) - omega . theta, for Z = mean_field(theta).

    Equals -sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i));
    ``theta`` may hold one configuration or one per row.
    """
    n = theta.shape[-1]
    z2 = z.real * z.real + z.imag * z.imag
    return (coupling / (2.0 * n)) * (n * n - z2) - row_dot(theta, omega)


def order_from_mean_field(z, n: int):
    """(min(|Z|/N, 1), angle Z) for each mean field Z of N phases."""
    return np.minimum(np.abs(z) / n, 1.0), np.angle(z)


def potential_arrays(theta, omega, coupling) -> float:
    """-sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i))."""
    return float(potential_from_mean_field(mean_field(theta), theta, omega, coupling))


def _check_lengths(config: PhaseConfig, freqs: NaturalFrequencies):
    if config.n != freqs.omega.size:
        raise ValueError(
            f"length mismatch: {config.n} phases vs {freqs.omega.size} frequencies"
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def order_parameter(config: PhaseConfig) -> OrderParameter:
    """Coherence r in [0, 1] and mean angle phi in (-pi, pi].

    When r falls below 1e-14 the angle is meaningless; it is reported as 0
    with the degenerate flag set.
    """
    r, phi = map(float, order_from_mean_field(mean_field(config.phases), config.n))
    if r < 1e-14:
        return OrderParameter(r=r, phi=0.0, degenerate=True)
    if phi <= -math.pi:
        phi = math.pi
    return OrderParameter(r=r, phi=phi)


def subset_indices(subset, n: int) -> np.ndarray:
    """Sorted index array of ``subset``; raises unless it is a nonempty
    subset of range(n)."""
    idx = np.asarray(sorted(subset), dtype=int)
    if idx.size == 0:
        raise ValueError("empty index set")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("subset index out of range")
    return idx


def diameter(config: PhaseConfig, subset=None) -> float:
    """max - min of the phases over ``subset`` (all indices by default)."""
    if subset is None:
        sel = config.phases
    else:
        sel = config.phases[subset_indices(subset, config.n)]
    return float(span(sel))


def kuramoto_potential(config: PhaseConfig, freqs: NaturalFrequencies,
                       coupling: float) -> float:
    """Potential whose negative gradient generates the oscillator dynamics.

    Normalised so the value is 0 exactly when all phases coincide and the
    frequencies vanish, making it a clean Lyapunov value for that case.
    """
    _check_lengths(config, freqs)
    return potential_arrays(config.phases, freqs.omega, coupling)


def kuramoto_gradient(config: PhaseConfig, freqs: NaturalFrequencies,
                      coupling: float) -> np.ndarray:
    """Gradient of :func:`kuramoto_potential`; component i is
    -(omega_i + (K/N) sum_j sin(theta_j - theta_i))."""
    _check_lengths(config, freqs)
    return gradient_arrays(config.phases, freqs.omega, coupling)
