"""Exact stochastic matrices on the 8^m residue classes and their stationary law.

A matrix is stored as its image array: row i lists the image classes of the 8
refining subclasses of B(i, 8^m) (forward_split), each carrying probability
1/8, so its rows sum to 1 by construction and every product with it is a
gather or a bincount.  Its powers and the k-step measure matrix, capped to
small levels, are exact dense rows.  The stationary law is the invariant
measure, which takes one value on even classes and another on odd ones, so it
is kept as that (even, odd) pair and checked against the matrix.  The
independent cross-checks, check_stochasticity and kstep_measure_matrix, solve
congruences (preimage_targets) instead of applying the forward images.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import preimage_targets
from .errors import CapacityError, ConsistencyError
from .maps import MULTIPLIERS, OFFSETS
# Matrices above the measure check's level cap (8^5 = 32768 states) are refused.
from .measure import MAX_CHECK_LEVEL as MAX_LEVEL, alternating_weights

#: Exact dense output and powering are limited to this level.
MAX_POWER_LEVEL = 2

#: Image cells a power or k-step composition may hold: 16 MiB of indices.
#: Q(m)^k sends each state to 8^k image columns, so it holds 8^(m+k) cells.
MAX_IMAGE_CELLS = 8**7

#: Entry values indexed by image count: count of a row's 8 columns, over 8.
EIGHTHS = tuple(Fraction(count, 8) for count in range(9))

#: Power iteration stops when successive vectors differ by less than this in
#: max norm, and must then agree with the exact fixed vector to within it.
POWER_TOL = 1e-12

#: Power iteration steps before it is declared not to converge.
POWER_MAX_ITER = 100_000


class TransitionMatrix:
    """Row-stochastic matrix on the 8^level residue classes, as an image array.

    `images` has one row of 8 column indices per state, and entry (i, j) is
    (occurrences of j in images[i]) / 8.  The array is read-only.
    """

    __slots__ = ("level", "images")

    def __init__(self, level: int, images) -> None:
        size = 8**level
        images = np.array(images, dtype=np.intp)
        if images.shape != (size, 8):
            raise ValueError(f"expected a ({size}, 8) image array, got shape {images.shape}")
        if images.min() < 0 or images.max() >= size:
            raise ValueError("image column out of range")
        images.flags.writeable = False
        self.level = level
        self.images = images

    @property
    def size(self) -> int:
        return 8**self.level

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """(row, column, count) of every nonzero entry in row-major order, by
        column within a row; the entry is count / 8."""
        ordered = np.sort(self.images, axis=1)
        starts = np.ones(ordered.shape, dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        flat = np.flatnonzero(starts)
        # every row opens a run, so a run ends where the next one starts
        counts = np.diff(flat, append=ordered.size)
        return zip((flat // 8).tolist(), ordered.ravel()[flat].tolist(), counts.tolist())

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Exact sparse rows: (column, probability) pairs sorted by column."""
        rows = [[] for _ in range(self.size)]
        for i, j, count in self.entries():
            rows[i].append((j, EIGHTHS[count]))
        return tuple(map(tuple, rows))

    def dense(self) -> list[list[Fraction]]:
        if self.level > MAX_POWER_LEVEL:
            raise CapacityError(f"dense output refused above level {MAX_POWER_LEVEL}")
        return _dense(self.images, 8)


def _dense(images: np.ndarray, denominator: int) -> list[list[Fraction]]:
    """Exact dense rows of a square image array: entry (i, j) is
    (occurrences of j in images[i]) / denominator."""
    size = len(images)
    counts = np.bincount((np.arange(size)[:, None] * size + images).ravel(), minlength=size * size)
    probability = {c: Fraction(c, denominator) for c in np.unique(counts).tolist()}
    return [[probability[c] for c in row] for row in counts.reshape(size, size).tolist()]


def build_matrix(level: int) -> TransitionMatrix:
    """Transition matrix Q(m) at level m from the branch table.

    Row i holds the image classes of the 8 refining subclasses of B(i, 8^m),
    (base + stride*h) mod 8^m for h = 0..7, with base = (multiplier*i +
    offset)/8 and stride = multiplier*8^(m-1) from the branch of i mod 8:
    forward_split(B(i, 8^m)) column for column.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > MAX_LEVEL:
        raise CapacityError(f"level {level} exceeds cap {MAX_LEVEL} (8^{level} states)")
    size = 8**level
    residues = np.arange(size)
    multiplier = np.array(MULTIPLIERS)[residues & 7]
    base = (multiplier * residues + np.array(OFFSETS)[residues & 7]) >> 3
    stride = multiplier * 8 ** (level - 1)
    return TransitionMatrix(level, (base[:, None] + stride[:, None] * np.arange(8)) % size)


def check_stochasticity(matrix: TransitionMatrix) -> bool:
    """Independent check that the matrix has the in-degrees of the class chain.

    Every row is 8 image columns in range (checked on construction), so it
    sums to 1, and column j must be hit once per member of the preimage of
    B(j, 8^m): the subclasses that the forward splits send into B(j) are
    exactly that preimage, found here by solving congruences instead.
    """
    size = matrix.size
    indegree = np.bincount(matrix.images.ravel(), minlength=size)
    return np.array_equal(indegree, np.bincount(preimage_targets(matrix.level), minlength=size))


def left_multiply(weights, matrix: TransitionMatrix) -> list[Fraction]:
    """Exact row-vector times matrix product."""
    out = [Fraction(0)] * matrix.size
    for i, j, count in matrix.entries():
        if weights[i]:
            out[j] += weights[i] * EIGHTHS[count]
    return out


def power_iteration(matrix: TransitionMatrix) -> np.ndarray:
    """Float left fixed vector from the uniform start, iterated to max-norm POWER_TOL."""
    size = matrix.size
    columns = matrix.images.ravel()
    vec = np.full(size, 1.0 / size)
    for _ in range(POWER_MAX_ITER):
        nxt = np.bincount(columns, weights=np.repeat(vec / 8, 8), minlength=size)
        if np.max(np.abs(nxt - vec)) < POWER_TOL:
            return nxt
        vec = nxt
    raise ConsistencyError(
        f"power iteration did not converge to {POWER_TOL} in {POWER_MAX_ITER} steps"
    )


def stationary_distribution(matrix: TransitionMatrix) -> tuple[Fraction, Fraction]:
    """The stationary law of the class chain as its (even, odd) weights,
    verified two ways.

    The vector with alternating_weights(level) at even and odd classes is
    checked to satisfy P*Q = P exactly, then cross-checked against
    floating-point power iteration within POWER_TOL.
    """
    weights = alternating_weights(matrix.level)
    # P*Q = P in integers: with P scaled by D = 12*8^(m-1), the odd weight's
    # denominator, it is 2 at even and 1 at odd classes, and column j must
    # receive 8*D*P[j] from the image columns of all rows.  The bincount
    # sums are integers of at most 8*D, far below 2^53 where float64 stops
    # being exact.
    scale = weights[1].denominator
    scaled = np.tile((2, 1), matrix.size // 2)
    inflow = np.bincount(matrix.images.ravel(), weights=np.repeat(scaled, 8), minlength=matrix.size)
    if not np.array_equal(inflow, 8 * scaled):
        raise ConsistencyError("closed-form vector is not exactly stationary; matrix is corrupt")
    numeric = power_iteration(matrix)
    drift = np.max(np.abs(scaled / scale - numeric))
    if drift > POWER_TOL:
        raise ConsistencyError(f"power iteration disagrees with exact vector by {drift:.3e}")
    return weights


def matrix_power(matrix: TransitionMatrix, exponent: int) -> list[list[Fraction]]:
    """Exact k-th power as dense rows; capped to small levels and MAX_IMAGE_CELLS.

    Row i of Q^(e+1) = Q^e * Q is the union of the rows of Q at the image
    columns of row i of Q^e, so row i of Q^k is 8^k image columns of weight
    1/8^k each.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if matrix.level > MAX_POWER_LEVEL:
        raise CapacityError(f"exact powering capped at level {MAX_POWER_LEVEL}")
    cells = matrix.size * 8**exponent
    if cells > MAX_IMAGE_CELLS:
        raise CapacityError(f"power {exponent} needs {cells} image cells, cap {MAX_IMAGE_CELLS}")
    images = matrix.images
    for _ in range(exponent - 1):
        images = matrix.images[images].reshape(matrix.size, -1)
    return _dense(images, 8**exponent)


def kstep_measure_matrix(steps: int, level: int = 1) -> list[list[Fraction]]:
    """k-step transition probabilities computed from iterated preimages.

    Entry (i, j) is measure(B(i) and k-fold preimage of B(j)) / measure(B(i)).
    The preimage maps of levels level+k-1 down to level, composed, send each
    residue mod 8^(level+k) to its class k steps on; those in B(i) weigh
    measure(B(i)) / 8^k each.  Independent of matrix multiplication; used to
    validate that the k-step chain equals the k-th matrix power.  The composed
    map and the dense result are each capped at MAX_IMAGE_CELLS cells.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    cells = 8 ** (level + max(steps, level))
    if cells > MAX_IMAGE_CELLS:
        raise CapacityError(f"level {level}, {steps} steps: {cells} cells, cap {MAX_IMAGE_CELLS}")
    image = np.arange(8 ** (level + steps))
    for fine in reversed(range(level, level + steps)):
        image = preimage_targets(fine)[image]
    # residue i + 8^level * h lies in B(i): row i gathers the images over h
    return _dense(image.reshape(-1, 8**level).T, 8**steps)


@dataclass(frozen=True)
class ErgodicityResult:
    positive: bool
    exponent: int | None
    conclusive: bool

    def __str__(self):
        if self.positive:
            return f"all entries positive at exponent {self.exponent}"
        return "reducible/periodic" if self.conclusive else "inconclusive (bound exhausted)"


def check_ergodicity(matrix: TransitionMatrix) -> ErgodicityResult:
    """Search for a power of the matrix with strictly positive entries.

    Works on row supports packed into bitmasks, 8 states per byte (no
    cancellation can occur in a nonnegative product).  The support of row i
    of Q^(e+1) = Q * Q^e is the union of the Q^e supports of the 8 image
    columns of row i, so each step ORs 8 rows of masks.  Stops early if
    the supports stabilize below full, which is conclusive evidence of
    reducibility/periodicity.  The search gives up, inconclusive, after
    exponent 2 * size.
    """
    size, images = matrix.size, matrix.images

    def times_q(masks: np.ndarray) -> np.ndarray:
        out = masks[images[:, 0]]
        for column in images.T[1:]:
            out |= masks[column]
        return out

    states = np.arange(size)
    current = np.zeros((size, size // 8), dtype=np.uint8)
    current[states, states >> 3] = 1 << (states & 7)  # Q^0, the identity
    current = times_q(current)
    for exponent in range(1, 2 * size + 1):
        if (current == 0xFF).all():
            return ErgodicityResult(True, exponent, True)
        nxt = times_q(current)
        if np.array_equal(nxt, current):
            return ErgodicityResult(False, None, True)
        current = nxt
    return ErgodicityResult(False, None, False)


def emit_chain_graph(matrix: TransitionMatrix) -> str:
    """DOT digraph of the class chain, nodes labelled B(i,8^m), exact edge weights."""
    modulus = matrix.size
    lines = ["digraph residue_chain {", "  rankdir=LR;"]
    for i in range(matrix.size):
        lines.append(f'  "B({i},{modulus})";')
    for i, j, count in matrix.entries():
        lines.append(f'  "B({i},{modulus})" -> "B({j},{modulus})" [label="{EIGHTHS[count]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
