"""Exact stochastic matrices on the 8^m residue classes and their stationary law.

A matrix is stored as its image array: row i is a multiset of `width` columns,
each carrying probability 1/width.  The class chain Q(m) has width 8, since
row i lists the image classes of the 8 refining subclasses of B(i, 8^m)
(forward_split), so its rows sum to 1 by construction and every product with
it is a gather or a bincount.  The stationary law is the invariant measure,
which takes one value on even classes and another on odd ones, so it is kept
as that (even, odd) pair and checked against the matrix.  The k-step
transition probabilities computed from preimages and the invariant measure
(kstep_measure_matrix) are kept as the independent cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import ClassUnion, CongruenceClass, preimage_class, preimage_union
from .errors import CapacityError, ConsistencyError
from .maps import MULTIPLIERS, OFFSETS
from .measure import measure_class

#: Matrices above this level (8^5 = 32768 states) are refused.
MAX_LEVEL = 5

#: Exact dense output and powering are limited to this level.
MAX_POWER_LEVEL = 2

#: Image cells (rows x width) a matrix power may hold: 16 MiB of indices.
#: Q(m)^k has width 8^k.
MAX_IMAGE_CELLS = 8**7

#: Power iteration stops when successive vectors differ by less than this in
#: max norm, and must then agree with the exact fixed vector to within it.
POWER_TOL = 1e-12

#: Power iteration steps before it is declared not to converge.
POWER_MAX_ITER = 100_000


class TransitionMatrix:
    """Row-stochastic matrix on the 8^level residue classes, as an image array.

    `images` has one row of `width` column indices per state, and entry (i, j)
    is (occurrences of j in images[i]) / width.  The array is read-only.
    """

    __slots__ = ("level", "images")

    def __init__(self, level: int, images) -> None:
        size = 8**level
        images = np.array(images, dtype=np.intp)
        if images.ndim != 2 or len(images) != size or images.shape[1] == 0:
            raise ValueError(f"expected {size} rows of image columns, got shape {images.shape}")
        if images.min() < 0 or images.max() >= size:
            raise ValueError("image column out of range")
        images.flags.writeable = False
        self.level = level
        self.images = images

    @property
    def size(self) -> int:
        return 8**self.level

    @property
    def width(self) -> int:
        """Image columns per row; every entry is a multiple of 1/width."""
        return self.images.shape[1]

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """(row, column, count) of every nonzero entry in row-major order, by
        column within a row; the entry is count / width."""
        ordered = np.sort(self.images, axis=1)
        starts = np.ones(ordered.shape, dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        flat = np.flatnonzero(starts)
        # every row opens a run, so a run ends where the next one starts
        counts = np.diff(flat, append=ordered.size)
        return zip((flat // self.width).tolist(), ordered.ravel()[flat].tolist(), counts.tolist())

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Exact sparse rows: (column, probability) pairs sorted by column."""
        probability = _by_count(self.width)
        rows = [[] for _ in range(self.size)]
        for i, j, count in self.entries():
            rows[i].append((j, probability[count]))
        return tuple(map(tuple, rows))

    def dense(self) -> list[list[Fraction]]:
        if self.level > MAX_POWER_LEVEL:
            raise CapacityError(f"dense output refused above level {MAX_POWER_LEVEL}")
        probability = _by_count(self.width)
        out = [[probability[0]] * self.size for _ in range(self.size)]
        for i, j, count in self.entries():
            out[i][j] = probability[count]
        return out


def _by_count(width: int) -> list[Fraction]:
    """Entry values indexed by image count: count / width."""
    return [Fraction(count, width) for count in range(width + 1)]


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
    """Independent check that the matrix has the shape of the class chain.

    Every row must be 8 image columns (in range by construction), so it sums
    to 1, and column j must be hit once per member of the preimage of
    B(j, 8^m): the subclasses that the forward splits send into B(j) are
    exactly that preimage, found here by solving congruences instead.
    """
    size = matrix.size
    if matrix.images.shape != (size, 8):
        return False
    indegree = np.bincount(matrix.images.ravel(), minlength=size).tolist()
    return indegree == [len(preimage_class(CongruenceClass(j, matrix.level))) for j in range(size)]


def left_multiply(weights, matrix: TransitionMatrix) -> list[Fraction]:
    """Exact row-vector times matrix product."""
    probability = _by_count(matrix.width)
    out = [Fraction(0)] * matrix.size
    for i, j, count in matrix.entries():
        if weights[i]:
            out[j] += weights[i] * probability[count]
    return out


def alternating_weights(level: int) -> tuple[Fraction, Fraction]:
    """The invariant measure of the classes mod 8^level as (even, odd) values:
    1/(6*8^{m-1}) on every even class, half that on every odd one."""
    return measure_class(CongruenceClass(0, level)), measure_class(CongruenceClass(1, level))


def power_iteration(matrix: TransitionMatrix) -> np.ndarray:
    """Float left fixed vector from the uniform start, iterated to max-norm POWER_TOL."""
    size, width = matrix.size, matrix.width
    columns = matrix.images.ravel()
    vec = np.full(size, 1.0 / size)
    for _ in range(POWER_MAX_ITER):
        nxt = np.bincount(columns, weights=np.repeat(vec / width, width), minlength=size)
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
    # receive width*D*P[j] from the image columns of all rows.  The bincount
    # sums are integers of at most width*D, far below 2^53 where float64 stops
    # being exact.
    scale = weights[1].denominator
    scaled = np.tile((2, 1), matrix.size // 2)
    inflow = np.bincount(
        matrix.images.ravel(), weights=np.repeat(scaled, matrix.width), minlength=matrix.size
    )
    if not np.array_equal(inflow, matrix.width * scaled):
        raise ConsistencyError("closed-form vector is not exactly stationary; matrix is corrupt")
    numeric = power_iteration(matrix)
    drift = np.max(np.abs(scaled / scale - numeric))
    if drift > POWER_TOL:
        raise ConsistencyError(f"power iteration disagrees with exact vector by {drift:.3e}")
    return weights


def matrix_power(matrix: TransitionMatrix, exponent: int) -> TransitionMatrix:
    """Exact k-th power; capped to small levels and MAX_IMAGE_CELLS.

    Row i of Q^(e+1) = Q^e * Q is the union of the rows of Q at the image
    columns of row i of Q^e, so the power has width width^k.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if matrix.level > MAX_POWER_LEVEL:
        raise CapacityError(f"exact powering capped at level {MAX_POWER_LEVEL}")
    cells = matrix.size * matrix.width**exponent
    if cells > MAX_IMAGE_CELLS:
        raise CapacityError(f"power {exponent} needs {cells} image cells, cap {MAX_IMAGE_CELLS}")
    images = matrix.images
    for _ in range(exponent - 1):
        images = matrix.images[images].reshape(matrix.size, -1)
    return TransitionMatrix(matrix.level, images)


def kstep_measure_matrix(steps: int, level: int = 1) -> list[list[Fraction]]:
    """k-step transition probabilities computed from iterated preimages.

    Entry (i, j) is measure(B(i) and k-fold preimage of B(j)) / measure(B(i)),
    with the intersection read off the preimage union at level k+level.
    Independent of matrix multiplication; used to validate that the k-step
    chain equals the k-th matrix power.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    size = 8**level
    out = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        union = ClassUnion(level, (CongruenceClass(j, level),))
        for _ in range(steps):
            union = preimage_union(union)
        buckets: dict[int, Fraction] = {}
        for member in union:
            i = member.residue % size
            buckets[i] = buckets.get(i, Fraction(0)) + measure_class(member)
        for i, mass in buckets.items():
            out[i][j] = mass / measure_class(CongruenceClass(i, level))
    return out


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
    of Q^(e+1) = Q * Q^e is the union of the Q^e supports of the image
    columns of row i, so each step ORs `width` rows of masks.  Stops early if
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


def emit_chain_graph(matrix: TransitionMatrix, force: bool = False) -> str:
    """DOT digraph of the class chain, nodes labelled B(i,8^m), exact edge weights.

    Meant for the 8-state chain; larger levels are refused unless forced.
    """
    if matrix.level > 1 and not force:
        raise ValueError(f"graph emission intended for level 1; got level {matrix.level} (use force)")
    modulus = matrix.size
    probability = _by_count(matrix.width)
    lines = ["digraph residue_chain {", "  rankdir=LR;"]
    for i in range(matrix.size):
        lines.append(f'  "B({i},{modulus})";')
    for i, j, count in matrix.entries():
        lines.append(f'  "B({i},{modulus})" -> "B({j},{modulus})" [label="{probability[count]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
