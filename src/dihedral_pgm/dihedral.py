"""Dihedral group arithmetic and hidden-subgroup state constructions.

The dihedral group of order 2N is generated by a rotation s (order N) and
a reflection r (order 2) with r s r = s^-1.  A generic element is written
r^t s^k with t in Z_2 and k in Z_N, and occupies position t*N + k of the
2N-dimensional "group basis".

A conditional Fourier transform on the rotation register (inverse when
t = 0, forward when t = 1) moves states with a hidden order-two subgroup
{e, r s^d} into a basis labeled by (bit, x) in which k copies of the
state are block diagonal over x in Z_N^k, with pure 2^k-dimensional
conditional states whose amplitudes depend only on d and the subset sums
b . x mod N.  The block-compressed representation of those states lives
here; everything downstream (counting, measurement, certification) is
built on top of it.

Conventions fixed once for all modules:

* bit strings b in Z_2^k are little-endian integers sum_j b_j 2^(j-1)
  (b_1 is the least significant bit), and b . x is reduced mod N one
  coordinate at a time, so it equals the full-integer sum mod N;
* block labels x in Z_N^k flatten lexicographically (x_1 most
  significant);
* complex phases are read from a per-N table of the N distinct roots of
  unity, indexed by exponents reduced mod N, so equal exponents are
  bitwise-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

#: Marker for the trivial hidden subgroup (and the matching outcome),
#: compared by value: a str sent to a worker process arrives as a new
#: object.
TRIVIAL = "trivial"

#: Dense operators are only built at oracle scale.
DENSE_DIM_LIMIT = 4096

#: Explicit enumeration of the 2^k bit strings is capped here.
ENUM_LIMIT = 2 ** 24

#: bit_dot_table adds two residues below N in int64, exact for N below this.
BIT_DOT_N_LIMIT = 2 ** 62


class ScaleLimitError(ValueError):
    """An operation would exceed one of its scale guards (_guard)."""


def _guard(what: str, value: int, limit: int) -> int:
    """value, checked against its scale guard: the one refusal of every
    guard in the package, a ScaleLimitError "<what> <value> exceeds
    <limit>" when value > limit.  what names the guard and the quantity
    it bounds."""
    if value > limit:
        raise ScaleLimitError(f"{what} {value} exceeds {limit}")
    return value


@lru_cache(maxsize=None)
def phase_table(N: int) -> np.ndarray:
    """The N distinct values exp(2 pi i m / N), m = 0 .. N-1.

    All phase arithmetic indexes into this table with exponents reduced
    mod N; identities such as sum_j omega^(j(p-q)) = N delta_pq then
    cancel to machine precision because repeated exponents are
    bitwise-identical values.
    """
    table = np.exp(2j * np.pi * np.arange(N) / N)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralElement:
    """Element r^t s^k of the dihedral group of order 2N."""

    t: int
    k: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        object.__setattr__(self, "t", self.t % 2)
        object.__setattr__(self, "k", self.k % self.N)

    @property
    def index(self) -> int:
        """Position t*N + k in the group basis."""
        return self.t * self.N + self.k

    def __repr__(self):
        return f"r^{self.t} s^{self.k} (N={self.N})"


def identity(N: int) -> DihedralElement:
    return DihedralElement(0, 0, N)


def element_from_index(index: int, N: int) -> DihedralElement:
    """Inverse of DihedralElement.index."""
    return DihedralElement(index // N, index % N, N)


def multiply(a: DihedralElement, b: DihedralElement) -> DihedralElement:
    """Product ab, using r^t' s^k' r^t s^k = r^(t+t') s^(k + (-1)^t k')."""
    if a.N != b.N:
        raise ValueError("group mismatch")
    sign = -1 if b.t else 1
    return DihedralElement(a.t + b.t, b.k + sign * a.k, a.N)


def inverse(a: DihedralElement) -> DihedralElement:
    """Group inverse; reflections are involutions."""
    if a.t:
        return a
    return DihedralElement(0, -a.k, a.N)


def subgroup_elements(kind: str, N: int, *, j: int | None = None,
                      d: int | None = None) -> frozenset[DihedralElement]:
    """Elements of a supported subgroup of the order-2N dihedral group.

    kind is one of "trivial", "order2" (requires d), "cyclic" (requires a
    divisor j of N) or "dihedral" (requires j and d).  "order2" with
    shift d is the subgroup {e, r s^d}.
    """
    if kind == "trivial":
        return frozenset({identity(N)})
    if kind == "order2":
        if d is None:
            raise ValueError("order2 subgroup needs a shift d")
        return frozenset({identity(N), DihedralElement(1, d, N)})
    if kind in ("cyclic", "dihedral"):
        if j is None:
            raise ValueError(f"{kind} subgroup needs an index j")
        if N % j != 0:
            raise ValueError(f"j={j} does not divide N={N}")
        rotations = [DihedralElement(0, m * j, N) for m in range(N // j)]
        if kind == "cyclic":
            return frozenset(rotations)
        if d is None:
            raise ValueError("dihedral subgroup needs a shift d")
        reflections = [DihedralElement(1, m * j + d, N) for m in range(N // j)]
        return frozenset(rotations + reflections)
    raise ValueError(f"unknown subgroup kind {kind!r}")


# ---------------------------------------------------------------------------
# single-copy states in the group basis
# ---------------------------------------------------------------------------

def coset_state_group_basis(k: int, d: int, N: int) -> np.ndarray:
    """Random coset state (|0,k> + |1,-k+d>)/sqrt(2) as 2N amplitudes."""
    v = np.zeros(2 * N, dtype=np.complex128)
    v[k % N] = 1 / np.sqrt(2)
    v[N + (d - k) % N] = 1 / np.sqrt(2)
    return v


def hidden_subgroup_state(subgroup: frozenset[DihedralElement],
                          N: int | None = None) -> np.ndarray:
    """Single-copy hidden subgroup state (|H|/|G|) sum_g |gH><gH|.

    The sum runs over one representative per left coset; the coset state
    |gH> is the uniform superposition over {gh : h in H}.
    """
    elems = list(subgroup)
    if not elems:
        raise ValueError("empty subgroup")
    if N is None:
        N = elems[0].N
    if any(h.N != N for h in elems):
        raise ValueError("group mismatch")
    dim = _guard("dense dimension", 2 * N, DENSE_DIM_LIMIT)
    order = len(elems)
    # g h for every g = r^t s^k (rows) and h in H (columns), by multiply's
    # rule r^(t + t_h) s^(k_h + (-1)^(t_h) k); a coset is named by its
    # least index
    idx = np.arange(dim)
    t, k = idx[:, None] // N, idx[:, None] % N
    h_t = np.array([h.t for h in elems])
    h_k = np.array([h.k for h in elems])
    products = ((t + h_t) % 2) * N + (h_k + np.where(h_t, -k, k)) % N
    coset = products.min(axis=1)
    # the cosets partition the group, so each entry of V V^dag, with the
    # coset states 1/sqrt(|H|) as the columns of V, has one nonzero term
    # a a; scaled, it is (|H|/|G|) fl(a a) where g and g' share a coset
    a = 1 / np.sqrt(order)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[coset[:, None] == coset[None, :]] = (order / dim) * (a * a)
    return rho


def _shift_permutation(N: int, d: int) -> np.ndarray:
    """Group-basis indices q with rho_d = rho_0[q][:, q]: the automorphism
    of the dihedral group that fixes the rotation s and sends the
    reflection r to r s^d maps r^t s^k to r^t s^(k + t d), so it carries
    the hidden subgroup {e, r} to {e, r s^d} and permutes the group basis."""
    j = np.arange(N)
    return np.concatenate([j, N + (j - d) % N])


def tilde_basis_change(N: int) -> np.ndarray:
    """Conditional Fourier transform on the rotation register (2N x 2N).

    Applies the inverse Z_N transform when the reflection bit is 0 and
    the forward transform when it is 1.  Pushing the uniform mixture of
    coset states with shift d through this unitary yields the block form
    (1/N) sum_x |phi~_{x,d}><phi~_{x,d}| with
    |phi~_{x,d}> = (|0> + omega^(xd) |1>) |x> / sqrt(2).
    """
    _guard("dense dimension", 2 * N, DENSE_DIM_LIMIT)
    table = phase_table(N)
    grid = np.outer(np.arange(N), np.arange(N))
    forward = table[grid % N] / np.sqrt(N)
    backward = table[(-grid) % N] / np.sqrt(N)
    U = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    U[:N, :N] = backward
    U[N:, N:] = forward
    return U


# ---------------------------------------------------------------------------
# block labels and block-compressed k-copy states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockLabel:
    """Per-copy Fourier label x in Z_N^k."""

    x: tuple[int, ...]
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        xs = tuple(int(v) for v in self.x)
        if len(xs) < 1:
            raise ValueError("label needs k >= 1 entries")
        if any(v < 0 or v >= self.N for v in xs):
            raise ValueError("label entries must lie in [0, N)")
        object.__setattr__(self, "x", xs)

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def flat_index(self) -> int:
        """Lexicographic rank of x in Z_N^k (x_1 most significant)."""
        idx = 0
        for v in self.x:
            idx = idx * self.N + v
        return idx

    @classmethod
    def from_flat(cls, index: int, N: int, k: int) -> "BlockLabel":
        digits = []
        for _ in range(k):
            index, v = divmod(index, N)
            digits.append(v)
        return cls(tuple(reversed(digits)), N)

    @cached_property
    def bit_dots(self) -> np.ndarray:
        """bit_dot_table(self), built once per label and shared read-only."""
        sums = bit_dot_table(self)
        sums.flags.writeable = False
        return sums

    @cached_property
    def eta(self) -> np.ndarray:
        """Solution counts eta_r = #{b : b . x = r}, read from bit_dots."""
        counts = np.bincount(self.bit_dots, minlength=self.N)
        counts.flags.writeable = False
        return counts


def bit_dot_table(label: BlockLabel) -> np.ndarray:
    """(b . x) mod N for every bit string b, in little-endian order, as
    int64.

    The table is built by doubling, each new half reduced mod N with one
    conditional subtraction, so every entry stays below 2N <= 2^63 and
    equals the full-integer sum reduced mod N.  Guarded at 2^k <= 2^24
    entries and N < BIT_DOT_N_LIMIT.
    """
    _guard("enumeration guard: bit strings 2^k =", 2 ** label.k, ENUM_LIMIT)
    _guard("int64 bit-dot guard: N =", label.N, BIT_DOT_N_LIMIT - 1)
    return _bit_dots(np.array([label.x], dtype=np.int64), label.N)[0]


def _bit_dots(xs: np.ndarray, N: int) -> np.ndarray:
    """bit_dot_table's doubling on every row of an (R, k) int64 array of
    labels at once: the (R, 2^k) table of (b . x) mod N."""
    sums = np.zeros((xs.shape[0], 1), dtype=np.int64)
    for xj in xs.T:
        more = sums + xj[:, None]
        more[more >= N] -= N
        sums = np.concatenate([sums, more], axis=1)
    return sums


@dataclass(frozen=True)
class BlockState:
    """Conditional state within block x: pure for a shift d, a flat flag
    for the trivial subgroup (which carries no amplitudes)."""

    label: BlockLabel
    shift: object  # int mod N, or TRIVIAL
    amplitudes: np.ndarray | None

    @property
    def is_trivial(self) -> bool:
        return self.shift == TRIVIAL


def block_state(label: BlockLabel, shift) -> BlockState:
    """Block-compressed conditional state for hidden shift d (or TRIVIAL).

    For a shift d the amplitudes are omega^(d (b.x)) / 2^(k/2); in the
    subset-sum basis this is sum_p omega^(dp) sqrt(eta_p) |S_p> / 2^(k/2).
    """
    if shift == TRIVIAL:
        return BlockState(label, TRIVIAL, None)
    amps = _shift_amplitudes(label.N, shift, label.bit_dots, label.k)
    return BlockState(label, int(shift) % label.N, amps)


def _shift_amplitudes(N: int, shift, sums: np.ndarray, k: int) -> np.ndarray:
    """omega^(d s_b) / 2^(k/2) for shift d on (..., 2^k) bit-dot sums
    s_b = b.x: one block's amplitudes, or a stack of blocks'."""
    return phase_table(N)[(int(shift) * sums) % N] / np.sqrt(2.0 ** k)


# ---------------------------------------------------------------------------
# dense oracle-scale constructions
# ---------------------------------------------------------------------------

def _check_dense(N: int, k: int) -> int:
    return _guard("oracle scale guard: (2N)^k =", (2 * N) ** k,
                  DENSE_DIM_LIMIT)


def dense_state(shift, k: int, N: int) -> np.ndarray:
    """k-copy hidden subgroup state as a dense (2N)^k matrix (group basis)."""
    dim = _check_dense(N, k)
    if shift == TRIVIAL:
        return np.eye(dim, dtype=np.complex128) / dim
    single = hidden_subgroup_state(subgroup_elements("order2", N, d=int(shift)))
    return reduce(np.kron, [single] * k)


def block_basis_transform(N: int, k: int) -> np.ndarray:
    """Unitary from the k-copy group basis to the x-major block basis.

    Applies the conditional Fourier transform per copy, then reorders
    tensor factors so the row index is X * 2^k + B with X the flattened
    block label and B the little-endian bit integer.
    """
    _check_dense(N, k)
    U = tilde_basis_change(N)
    T = reduce(np.kron, [U] * k)
    # row J's base-2N digits i, copy 1 in the most significant digit (kron
    # order): X takes i mod N with copy 1 most significant, B takes i // N
    # with copy 1 in the least significant bit
    d = _block_labels(2 * N, k)
    rows = ((d % N) @ N ** np.arange(k - 1, -1, -1) * 2 ** k
            + ((d // N) << np.arange(k)).sum(1))
    W = np.empty_like(T)
    W[rows] = T
    return W


def _block_labels(N: int, k: int) -> np.ndarray:
    """(N^k, k) int64 array whose row X is block label X
    (BlockLabel.from_flat order).  Callers guard the size first
    (_check_dense)."""
    return np.indices((N,) * k, dtype=np.int64).reshape(k, -1).T


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Dense (..., dim, dim) matrices with blocks[X] on the diagonal at
    rows and columns X*b .. (X+1)*b, from an (X, ..., b, b) stack, in one
    indexed assignment."""
    count, lead, blk = blocks.shape[0], blocks.shape[1:-2], blocks.shape[-1]
    dim = count * blk
    out = np.zeros(lead + (dim, dim), dtype=blocks.dtype)
    X = np.arange(count)
    out.reshape(lead + (count, blk, count, blk))[..., X, :, X, :] = blocks
    return out


def assemble_block_density(shift, k: int, N: int) -> np.ndarray:
    """k-copy state assembled from block states, in the x-major block basis.

    Each block x carries weight N^-k; for the trivial subgroup the result
    is the maximally mixed state (identical in every basis).  All N^k
    blocks' amplitudes are formed at once by block_state's
    _shift_amplitudes on the bit-dot sums of every label.
    """
    dim = _check_dense(N, k)
    if shift == TRIVIAL:
        return np.eye(dim, dtype=np.complex128) / dim
    psi = _shift_amplitudes(N, shift, _bit_dots(_block_labels(N, k), N), k)
    return _block_diagonal(psi[:, :, None] * psi.conj()[:, None, :] / N ** k)
