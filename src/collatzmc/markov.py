"""Exact stochastic matrices on the 8^m residue classes and their stationary law.

A matrix is stored as its image array: column h of row i is the image class of
B(i + 8^m*h, 8^(m+1)) (forward_split), with probability 1/8, so rows sum to 1
by construction and images.T.ravel() is the class map mod 8^(m+1).  Its powers
and the k-step measure matrix are image arrays too, 8^k columns of weight 1/8^k
a row, each row sorted so that two are equal exactly when their matrices are.
The stationary law is the invariant measure, which takes one value on even
classes and another on odd ones, so it is kept as that (even, odd) pair and
checked on the class map by measure.weigh_fibres.  The independent
cross-checks, check_stochasticity and kstep_measure_matrix, solve congruences
(preimage_targets) instead of applying the forward images.  Q's nonzero
entries are enumerated only by _runs(), which runs() calls on every row; the
triplet, stationary and graph texts are built from arrays by one byte-array
builder (emit_triplets, emit_stationary, emit_chain_graph), one block of rows
at a time, and the CLI writes each block as it comes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import preimage_targets
from .errors import ConsistencyError
from .maps import BRANCHES, MULTIPLIERS, OFFSETS
from .measure import alternating_weights, refuse_cells, weigh_fibres

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
    (occurrences of j in images[i]) / 8.  The level is read off the row
    count, 8^level with level >= 1.  The array is read-only.
    """

    __slots__ = ("level", "images")

    def __init__(self, images) -> None:
        if not np.issubdtype(np.asarray(images).dtype, np.integer):
            raise ValueError("image array must hold integers")
        self._hold(np.array(images, dtype=np.intp))

    def _hold(self, images: np.ndarray) -> None:
        """Check and freeze an intp image array that nothing else holds, and
        keep it as it is: a caller's array is copied first, one that
        build_matrix made is not."""
        size = images.size // 8
        level = (size.bit_length() - 1) // 3  # 8^level has 3 * level + 1 bits
        if level < 1 or images.shape != (8**level, 8):
            raise ValueError(f"expected an (8^m, 8) image array, m >= 1, got shape {images.shape}")
        if images.min() < 0 or images.max() >= size:
            raise ValueError("image column out of range")
        images.flags.writeable = False
        self.level = level
        self.images = images

    @property
    def size(self) -> int:
        return 8**self.level

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and count arrays of every nonzero entry in row-major
        order, by column within a row; the entry is count / 8."""
        return _runs(self.images)

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Exact sparse rows: (column, probability) pairs sorted by column."""
        rows = [[] for _ in range(self.size)]
        for i, j, count in zip(*(array.tolist() for array in self.runs())):
            rows[i].append((j, EIGHTHS[count]))
        return tuple(map(tuple, rows))

    def dense(self) -> list[list[Fraction]]:
        refuse_cells(2 * self.level, f"level {self.level} dense rows")
        rows = [[EIGHTHS[0]] * self.size for _ in range(self.size)]
        for i, j, count in zip(*(array.tolist() for array in self.runs())):
            rows[i][j] = EIGHTHS[count]
        return rows


def _runs(images: np.ndarray, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """runs() of the image rows lo, lo + 1, ... given as images: row indices
    are offset by lo."""
    ordered = np.sort(images, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    flat = np.flatnonzero(starts)
    # every row opens a run, so a run ends where the next one starts
    return lo + flat // 8, ordered.ravel()[flat], np.diff(flat, append=ordered.size)


def _row_blocks(size: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of the blocks of rows the texts are built in: eight of
    size / 8 rows, one per leading octal digit of the row, up to 4096 rows
    (level 5, under 1 MB of text a block); above that, blocks of 4096 rows."""
    block = min(size // 8, 4096)
    return [(lo, lo + block) for lo in range(0, size, block)]


def build_matrix(level: int) -> TransitionMatrix:
    """Transition matrix Q(m) at level m from the branch table.

    Row i holds the image classes of the 8 refining subclasses of B(i, 8^m),
    (base + stride*h) mod 8^m for h = 0..7, with base = (multiplier*i +
    offset)/8 and stride = multiplier*8^(m-1) from the branch of i mod 8:
    forward_split(B(i, 8^m)) column for column.  For i = 8a + s that is
    multiplier * (a + 8^(m-1)*h) + base_image of branch s, so the rows are
    written 8 branches at a time into the one full-size array.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    refuse_cells(level + 1, f"level {level} image array")
    size = 8**level
    images = np.empty((size, 8), dtype=np.intp)
    blocks = images.reshape(size // 8, 8, 8)  # [a, s, h]: row 8a + s, column h
    shifts = np.arange(size // 8)[:, None, None] + 8 ** (level - 1) * np.arange(8)
    np.multiply(shifts, np.array(MULTIPLIERS)[:, None], out=blocks)
    blocks += np.array([branch.base_image for branch in BRANCHES])[:, None]
    images &= size - 1
    matrix = TransitionMatrix.__new__(TransitionMatrix)
    matrix._hold(images)
    return matrix


def check_stochasticity(matrix: TransitionMatrix, targets: np.ndarray | None = None) -> bool:
    """Independent check that the matrix is the class chain, image for image.

    Every row is 8 image columns in range (checked on construction), so it
    sums to 1.  Entry (i, h) must equal preimage_targets at i + 8^m*h, read
    in place as an (8^m, 8) view: the class that B(i + 8^m*h, 8^(m+1)) maps
    into, found there by solving congruences instead.  targets is that map
    when the caller has built it already.
    """
    if targets is None:
        targets = preimage_targets(matrix.level)
    return np.array_equal(matrix.images, targets.reshape(8, -1).T)


def left_multiply(weights, matrix: TransitionMatrix) -> list[Fraction]:
    """Exact row-vector times matrix product: weight i adds 1/8 of itself to
    each of row i's 8 image columns, so int weights give Fractions too."""
    out = [Fraction(0)] * matrix.size
    for weight, columns in zip(weights, matrix.images.tolist()):
        for j in columns:
            out[j] += weight * EIGHTHS[1]
    return out


def power_iteration(matrix: TransitionMatrix) -> np.ndarray:
    """Float left fixed vector from the uniform start, iterated to max-norm POWER_TOL."""
    size = matrix.size
    columns = matrix.images.ravel()
    vec = np.full(size, 1.0 / size)
    # each image cell's weight, vec[i] / 8, in one buffer for every round: a
    # fresh 8^(m+1) array per round took new pages each time (8 MiB and up)
    shares = np.empty((size, 8))
    for _ in range(POWER_MAX_ITER):
        np.divide(vec[:, None], 8, out=shares)
        nxt = np.bincount(columns, weights=shares.ravel(), minlength=size)
        if np.max(np.abs(nxt - vec)) < POWER_TOL:
            return nxt
        vec = nxt
    raise ConsistencyError(
        f"power iteration did not converge to {POWER_TOL} in {POWER_MAX_ITER} steps"
    )


def stationary_distribution(matrix: TransitionMatrix) -> tuple[Fraction, Fraction]:
    """The stationary law of the class chain as its (even, odd) weights,
    verified two ways.

    The vector P with alternating_weights(level) at even and odd classes
    satisfies P*Q = P exactly when measure.weigh_fibres passes on the class
    map images.T.ravel(): entry (i, j) of Q is the share of B(i)'s measure
    that maps into B(j).  P is then cross-checked against floating-point
    power iteration within POWER_TOL.
    """
    if not weigh_fibres(matrix.images.T.ravel()).passed:
        raise ConsistencyError("closed-form vector is not exactly stationary; matrix is corrupt")
    weights = alternating_weights(matrix.level)
    numeric = power_iteration(matrix)
    drift = np.max(np.abs(numeric.reshape(-1, 2) - np.array(weights, dtype=float)))
    if drift > POWER_TOL:
        raise ConsistencyError(f"power iteration disagrees with exact vector by {drift:.3e}")
    return weights


def matrix_power(matrix: TransitionMatrix, exponent: int) -> np.ndarray:
    """The k-th power as an (8^m, 8^k) image array, each row sorted.

    Row i of Q^(e+1) = Q^e * Q is the union of the rows of Q at the image
    columns of row i of Q^e, so row i of Q^k is 8^k image columns of weight
    1/8^k each: entry (i, j) is the count of j in row i over 8^k.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    refuse_cells(matrix.level + exponent, f"level {matrix.level}, {exponent} steps")
    images = matrix.images
    for _ in range(exponent - 1):
        images = matrix.images[images].reshape(matrix.size, -1)
    return np.sort(images, axis=1)


def kstep_measure_matrix(steps: int, level: int = 1) -> np.ndarray:
    """k-step transition probabilities from iterated preimages, as
    matrix_power's sorted (8^level, 8^k) image array.

    Entry (i, j) is measure(B(i) and k-fold preimage of B(j)) / measure(B(i)).
    The preimage maps of levels level+k-1 down to level, composed, send each
    residue mod 8^(level+k) to its class k steps on; those in B(i) weigh
    measure(B(i)) / 8^k each, so row i lists their classes.  Independent of
    matrix multiplication; used to validate that the k-step chain equals the
    k-th matrix power.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    refuse_cells(level + steps, f"level {level}, {steps} steps")
    image = np.arange(8 ** (level + steps))
    for fine in reversed(range(level, level + steps)):
        image = preimage_targets(fine)[image]
    # residue i + 8^level * h lies in B(i): row i gathers the images over h
    return np.sort(image.reshape(-1, 8**level).T, axis=1)


@dataclass(frozen=True, eq=False)
class ErgodicityResult:
    """rows[i] is the first exponent e at which row i of Q^e is all positive."""

    rows: np.ndarray

    @property
    def exponent(self) -> int:
        return int(self.rows.max())  # a full row stays full

    def __str__(self):
        return f"all entries positive at exponent {self.exponent}"


def check_ergodicity(level: int) -> ErgodicityResult:
    """First strictly positive power of each row of the class chain Q(m).

    Row i of Q^e is T3^e(B(i, 8^m)) mod 8^m, and T3 maps a 2-adic class (c, v)
    = {c + 2^v*s} with v >= 3 onto the one class (T3(c), v - 3 + v2(M)), M the
    multiplier of c mod 8 (Terras 1976, Lagarias 1985).  So each row descends
    from (i, 3m), taking T3(c) mod 8^m from the branch table, until v <= 3.
    It then holds every class whose residue mod 8 is in c + 2^v*t, and the
    row supports of Q(1) step that residue set, keyed 8v + c mod 8, until
    full.  Q(m) is not built, but its cell cap holds, so m = 7 is refused.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    refuse_cells(level + 1, f"level {level} image array")
    size = 8**level
    multipliers, offsets = np.array(MULTIPLIERS), np.array(OFFSETS)
    twos = np.array([(m & -m).bit_length() - 1 for m in MULTIPLIERS])
    c, v = np.arange(size), np.full(size, 3 * level)
    rows = np.zeros(size, dtype=np.intp)
    while (live := v > 3).any():
        rows += live
        branch = c & 7
        v = np.where(live, v - 3 + twos[branch], v)
        c = np.where(live, (multipliers[branch] * c + offsets[branch]) >> 3 & (size - 1), c)
    keys, finish = np.arange(32), np.zeros(32, dtype=np.intp)
    marks = np.eye(8, dtype=bool)  # marks[r] flags residue r mod 8
    reached = marks[((keys & 7)[:, None] + (1 << (keys >> 3))[:, None] * np.arange(8)) & 7].any(axis=1)
    support = marks[build_matrix(1).images].any(axis=1)
    while not (full := reached.all(axis=1)).all():
        finish += ~full
        reached = reached @ support
    return ErgodicityResult(rows + finish[8 * v + (c & 7)])


def emit_chain_graph(matrix: TransitionMatrix) -> Iterator[str]:
    """DOT digraph of the class chain, nodes labelled B(i,8^m), exact edge
    weights: the text in pieces, the node and edge lines of each block of
    rows built as one byte array."""
    size = matrix.size
    names = np.char.add(np.char.add(b'"B(', _decimals(size)), f',{size})"'.encode())
    indented = np.char.add(b"  ", names)
    labels = np.array([f'[label="{p}"];' for p in EIGHTHS], dtype="S")
    yield "digraph residue_chain {\n  rankdir=LR;\n"
    nodes = np.char.add(indented, b";")
    for lo, hi in _row_blocks(size):
        yield _ascii_lines((nodes, np.arange(lo, hi)))
    arrows = np.char.add(indented, b" ->")
    for lo, hi in _row_blocks(size):
        rows, columns, counts = _runs(matrix.images[lo:hi], lo)
        yield _ascii_lines((arrows, rows), (names, columns), (labels, counts))
    yield "}\n"


def _ascii_lines(*fields: tuple[np.ndarray, np.ndarray]) -> str:
    """Text lines built as one byte array: field k of line n is
    labels_k[index_k[n]], fields joined by single spaces.

    Each labels_k is an array of ASCII byte strings (numpy dtype S), which
    numpy pads with NUL bytes to a common width; its bytes form a uint8 table
    with one row per label.  The gathered tables and constant space and
    newline columns are stacked side by side and the padding is dropped.
    """
    lines = len(fields[0][1])
    cells = []
    for labels, index in fields:
        table = labels.view(np.uint8).reshape(len(labels), -1)
        cells += [table[index], np.full((lines, 1), ord(" "), dtype=np.uint8)]
    cells[-1] = np.full((lines, 1), ord("\n"), dtype=np.uint8)
    block = np.hstack(cells).ravel()
    return block[block != 0].tobytes().decode("ascii")


def _decimals(size: int) -> np.ndarray:
    """0, 1, ..., size - 1 in decimal, as ASCII byte strings."""
    return np.arange(size).astype(f"S{len(str(size - 1))}")


def emit_triplets(matrix: TransitionMatrix) -> Iterator[str]:
    """Lines "row column probability" of every nonzero entry, in runs()
    order, one block of rows at a time."""
    decimals = _decimals(matrix.size)
    labels = np.array([str(p) for p in EIGHTHS], dtype="S")
    for lo, hi in _row_blocks(matrix.size):
        rows, columns, counts = _runs(matrix.images[lo:hi], lo)
        yield _ascii_lines((decimals, rows), (decimals, columns), (labels, counts))


def emit_stationary(level: int, weights: tuple[Fraction, Fraction]) -> Iterator[str]:
    """Lines "class weight" for every class mod 8^level, with the (even, odd)
    weights at even and odd classes, one block of classes at a time."""
    size = 8**level
    decimals = _decimals(size)
    labels = np.array([str(w) for w in weights], dtype="S")
    for lo, hi in _row_blocks(size):
        classes = np.arange(lo, hi)
        yield _ascii_lines((decimals, classes), (labels, classes & 1))
