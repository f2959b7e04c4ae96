"""Foundational types: integer/lattice sets, trigonometric polynomials, e(z).

Sets and polynomials are stored as numpy arrays: an ``IntegerSet`` as a
sorted int64 vector, a ``LatticeSet`` as an int64 ``(n, r)`` array of
lexicographically sorted rows, and a ``TrigPoly`` as sorted, distinct int64
frequency rows with nonzero, finite complex128 coefficients.  The arrays are
read-only and every operation is a pure function, so all types are
immutable and safe to share across threads.  Tuples and dicts appear only
as read-only views (``elements``, ``points``, ``terms``) and in the JSON
wire format.

Frequencies are 64-bit signed integers; anything that would leave that
range raises ``OverflowError`` instead of wrapping (from :func:`_check_i64`,
an error that is also a ``ValueError``, as any other bad value is).
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import struct
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _check_int(value: int, what: str) -> int:
    """``value`` as a Python int; an integral float such as 2.0 is accepted,
    anything int() would round (2.5) raises a ValueError naming it."""
    n = int(value)
    if n != value:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{what} {shown!r} is not an integer")
    return n


class _RangeError(OverflowError, ValueError):
    """An integer outside the signed 64-bit range: an overflow, and a bad value."""


def _check_i64(value: int, what: str) -> int:
    """:func:`_check_int`, and a :class:`_RangeError` outside the signed 64-bit range."""
    n = _check_int(value, what)
    if not _I64_MIN <= n <= _I64_MAX:
        raise _RangeError(f"{what} {n} outside the signed 64-bit range")
    return n


def _wrapped_i64(value: int) -> np.int64:
    # the int64 congruent to value mod 2^64: adding it with numpy's wrapping
    # arithmetic gives the exact sum whenever that sum fits in int64
    return np.int64((value - _I64_MIN) % 2 ** 64 + _I64_MIN)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _int64_rows(rows, rank: int, what: str, scalars: bool = False) -> np.ndarray:
    """The integer vectors ``rows`` as an int64 ``(n, rank)`` array.

    Bare Python ints pack through ``struct``, and other homogeneous
    integer input takes one numpy conversion; anything else (mixed scalar
    and tuple keys, values outside int64, floats) is coerced one value at a
    time, which also produces the error messages.  With ``scalars`` a
    rank-1 row may be given as a bare number.
    """
    rows = rows if isinstance(rows, (np.ndarray, list, tuple)) else list(rows)
    if scalars and rank == 1 and not isinstance(rows, np.ndarray):
        # Python ints pack in one C loop; a float, string or int beyond int64
        # raises, and the value then takes the checks below
        try:
            packed = struct.pack(f"{len(rows)}q", *rows)
        except struct.error:
            pass
        else:
            return np.frombuffer(packed, dtype=np.int64).reshape(-1, 1)
    try:
        arr = np.asarray(rows)
    except (ValueError, OverflowError):  # ragged rows or huge ints
        arr = None
    if arr is not None and arr.size and (arr.dtype.kind == "i" or (
            arr.dtype.kind == "u" and arr.max() <= _I64_MAX)):
        if scalars and rank == 1 and arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim == 2 and arr.shape[1] == rank:
            return arr.astype(np.int64, copy=False)
    out = []
    for p in rows:
        if scalars and np.ndim(p) == 0:
            p = (p,)
        p = tuple(_check_i64(c, what) for c in p)
        if len(p) != rank:
            raise ValueError(f"{what} {p} does not have rank {rank}")
        out.append(p)
    return np.array(out, dtype=np.int64).reshape(len(out), rank)


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable permutation sorting the rows of an (n, r) array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _run_starts(sorted_rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted array that differ from their predecessor."""
    first = np.ones(len(sorted_rows), dtype=bool)
    if sorted_rows.ndim == 1:
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=first[1:])
    else:
        np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=first[1:])
    return first


def char_e(z):
    """The character e(z) = exp(2*pi*i*z).  Accepts scalars or numpy arrays."""
    if isinstance(z, np.ndarray):
        return np.exp(2j * np.pi * z)
    return cmath.exp(2j * cmath.pi * z)


class _lazy:
    """A read-only attribute computed on first access and kept in the
    instance dict: ``functools.cached_property`` without the class-wide lock
    it takes on every first access before Python 3.12.  The values are pure
    functions of immutable arrays, so two threads that compute one at once
    store equal values."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class IntegerSet(_Frozen):
    """A finite set of distinct integers, stored as a sorted int64 array.

    The empty set is representable (residue filtering can produce it);
    operations that need a nonempty set say so and raise.  The constructor
    rejects duplicates; :meth:`from_iterable` removes them.
    """

    def __init__(self, elements: Iterable[int]):
        arr = np.sort(_int64_rows(elements, 1, "element", scalars=True)[:, 0])
        dup = ~_run_starts(arr)
        if dup.any():
            raise ValueError(f"duplicate element {int(arr[dup][0])}")
        object.__setattr__(self, "array", _readonly(arr))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "IntegerSet":
        # arr: a sorted, duplicate-free int64 vector this set may own
        out = object.__new__(cls)
        object.__setattr__(out, "array", _readonly(arr))
        return out

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "IntegerSet":
        arr = _int64_rows(it, 1, "element", scalars=True)[:, 0]
        # neighbours compared, not np.diff, which wraps at int64
        if not np.count_nonzero(arr[1:] <= arr[:-1]):
            # already sorted and distinct; a caller's array is copied, since
            # the set marks its array read-only and must not share it
            return cls._wrap(arr.copy() if isinstance(it, np.ndarray) else arr)
        arr = np.sort(arr)
        return cls._wrap(arr[_run_starts(arr)])

    @_lazy
    def elements(self) -> tuple[int, ...]:
        """The elements as a tuple of Python ints, ascending."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        try:
            n = int(x)
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            return False
        # a non-integral x (2.5) is no element, though int() rounds it to one
        if n != x:
            return False
        i = bisect.bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return f"IntegerSet(elements={self.elements!r})"

    @property
    def min(self) -> int:
        if not len(self):
            raise ValueError("empty set has no min")
        return int(self.array[0])

    @property
    def max(self) -> int:
        if not len(self):
            raise ValueError("empty set has no max")
        return int(self.array[-1])

    @property
    def diameter(self) -> int:
        return self.max - self.min if len(self) else 0

    def translate(self, shift: int) -> "IntegerSet":
        # an integer, which may lie outside int64 when the result does not
        shift = _check_int(shift, "shift")
        if not len(self):
            return self
        _check_i64(self.min + shift, "translated element")
        _check_i64(self.max + shift, "translated element")
        return IntegerSet._wrap(self.array + _wrapped_i64(shift))

    def to_json_dict(self) -> dict:
        return {"elements": self.array.tolist()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "IntegerSet":
        return cls(obj["elements"])


class LatticeSet(_Frozen):
    """A finite set of distinct points in Z^r, stored as an int64 (n, r)
    array with rows sorted lexicographically."""

    def __init__(self, rank: int, points: Iterable[Iterable[int]]):
        if rank < 1:
            raise ValueError("rank must be positive")
        pts = _int64_rows(points, rank, "point")
        pts = pts[_lex_order(pts)]
        dup = ~_run_starts(pts)
        if dup.any():
            raise ValueError(f"duplicate point {tuple(pts[dup][0].tolist())}")
        self._set(int(rank), pts)

    def _set(self, rank: int, pts: np.ndarray) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "array", _readonly(pts))

    @classmethod
    def from_iterable(cls, rank: int, it: Iterable[Iterable[int]]) -> "LatticeSet":
        if rank < 1:
            raise ValueError("rank must be positive")
        pts = _int64_rows(it, rank, "point")
        pts = pts[_lex_order(pts)]
        out = object.__new__(cls)
        out._set(int(rank), pts[_run_starts(pts)])
        return out

    @_lazy
    def points(self) -> tuple[tuple[int, ...], ...]:
        """The points as tuples of Python ints, in lexicographic order."""
        return tuple(map(tuple, self.array.tolist()))

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.points)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.rank, self.array.tobytes()))

    def __repr__(self):
        return f"LatticeSet(rank={self.rank!r}, points={self.points!r})"

    def coordinates(self, axis: int) -> tuple[int, ...]:
        """Sorted distinct values of the given 1-based coordinate."""
        if not 1 <= axis <= self.rank:
            raise ValueError(f"axis {axis} out of range for rank {self.rank}")
        return tuple(np.unique(self.array[:, axis - 1]).tolist())

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "points": self.array.tolist()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LatticeSet":
        return cls(_check_i64(obj["rank"], "rank"), obj["points"])


def _normalize_terms(freqs: np.ndarray,
                     coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort terms by frequency, sum duplicates, drop zeros, reject non-finite.

    The sort is stable and duplicates are summed in input order starting
    from 0, so every coefficient is exactly what the running sum
    ``0 + c_1 + c_2 + ...`` over its input terms gives.  Rank-1 frequencies
    that already increase strictly need neither: each coefficient is 0 + c.
    """
    if freqs.shape[1] == 1 and not np.count_nonzero(freqs[1:, 0] <= freqs[:-1, 0]):
        # 0 + c, not c: the sum turns a coefficient's -0.0 part into +0.0
        totals = coeffs + 0.0
    else:
        order = _lex_order(freqs)
        freqs, coeffs = freqs[order], coeffs[order]
        first = _run_starts(freqs)
        totals = np.zeros(np.count_nonzero(first), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            np.add.at(totals, np.cumsum(first) - 1, coeffs)
        freqs = freqs[first]
    bad = ~np.isfinite(totals)
    if bad.any():
        # a non-finite coefficient, or finite duplicates whose sum overflows
        i = int(np.argmax(bad))
        raise ValueError(f"coefficient {complex(totals[i])} at frequency "
                         f"{tuple(freqs[i].tolist())} is not finite")
    # boolean indexing copies, so a caller's frequency array is never kept
    keep = totals != 0
    return freqs[keep], totals[keep]


class TrigPoly(_Frozen):
    """Trigonometric polynomial sum_f c_f e(f . t), finite support in Z^r.

    ``terms`` is a mapping ``{frequency tuple: coefficient}`` or an iterable
    of such pairs; a rank-1 frequency may be a bare integer.  Terms at one
    frequency are summed and zero coefficients are never stored, so the
    zero polynomial has no terms.  The terms are held as ``freqs`` (int64
    ``(n, rank)``, lexicographically sorted, distinct) and ``coeffs``
    (complex128 ``(n,)``, nonzero and finite); ``terms`` is a read-only
    dict view of them in the same order.
    """

    __hash__ = None  # equality compares coefficients; not a dict key

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        if terms is None:
            terms = {}
        if isinstance(terms, Mapping):
            keys, values = list(terms.keys()), list(terms.values())
        else:
            pairs = list(terms)
            keys, values = [p[0] for p in pairs], [p[1] for p in pairs]
        freqs = _int64_rows(keys, rank, "frequency", scalars=True)
        coeffs = np.array(values, dtype=np.complex128).reshape(len(values))
        self._set(int(rank), *_normalize_terms(freqs, coeffs))

    def _set(self, rank: int, freqs: np.ndarray, coeffs: np.ndarray) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "freqs", _readonly(freqs))
        object.__setattr__(self, "coeffs", _readonly(coeffs))

    @classmethod
    def from_arrays(cls, rank: int, freqs, coeffs) -> "TrigPoly":
        """The polynomial with terms ``coeffs[i] e(freqs[i] . t)``, normalized
        like the constructor (any order, duplicates summed, zeros dropped)."""
        if rank < 1:
            raise ValueError("rank must be positive")
        freqs = np.asarray(freqs)
        # anything but a signed integer array goes through _int64_rows, which
        # checks it one value at a time unless it is unsigned within int64
        if freqs.dtype.kind != "i":
            freqs = _int64_rows(freqs, rank, "frequency", scalars=True)
        freqs = freqs.astype(np.int64, copy=False)
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if rank == 1 and freqs.ndim == 1:
            freqs = freqs.reshape(-1, 1)
        if freqs.shape != (len(coeffs), rank):
            raise ValueError(f"frequencies of shape {freqs.shape} for "
                             f"{len(coeffs)} rank-{rank} coefficients")
        out = object.__new__(cls)
        out._set(int(rank), *_normalize_terms(freqs, coeffs))
        return out

    @classmethod
    def _wrap(cls, rank: int, freqs: np.ndarray, coeffs: np.ndarray,
              box: tuple[tuple[int, int], ...] | None = None) -> "TrigPoly":
        # freqs/coeffs already normalized (sorted, distinct, nonzero, finite);
        # box, when known, is their support_box
        out = object.__new__(cls)
        out._set(rank, freqs, coeffs)
        if box is not None:
            object.__setattr__(out, "support_box", box)
        return out

    @_lazy
    def terms(self) -> Mapping[tuple[int, ...], complex]:
        """Read-only ``{frequency tuple: coefficient}`` in frequency order."""
        return MappingProxyType(dict(zip(map(tuple, self.freqs.tolist()),
                                         self.coeffs.tolist())))

    @_lazy
    def support_box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis (min, max) of the frequency support."""
        if self.is_zero:
            return ((0, 0),) * self.rank
        # the rows are sorted, so axis 0 runs from the first row to the last
        box = ((int(self.freqs[0, 0]), int(self.freqs[-1, 0])),)
        if self.rank == 1:
            return box
        rest = self.freqs[:, 1:]
        return box + tuple(zip(rest.min(axis=0).tolist(), rest.max(axis=0).tolist()))

    @_lazy
    def degree(self) -> tuple[int, ...]:
        """Per-axis max |frequency| (zero vector for the zero polynomial)."""
        # Python ints: abs(-2**63) does not fit in int64
        return tuple(max(-lo, hi) for lo, hi in self.support_box)

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rank == other.rank and np.array_equal(self.freqs, other.freqs)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"TrigPoly(rank={self.rank!r}, terms={dict(self.terms)!r})"

    def coefficient(self, freq) -> complex:
        if np.ndim(freq) == 0:
            freq = (freq,)
        key = tuple(int(f) for f in freq)
        # a non-integral frequency (2.5) has no term, though int() rounds it to one
        return self.terms.get(key, 0j) if key == tuple(freq) else 0j

    def ordered_items(self) -> list[tuple[tuple[int, ...], complex]]:
        return list(self.terms.items())

    def shifted(self, shift) -> "TrigPoly":
        """Translate the frequency support by ``shift`` (L1 norm is unchanged)."""
        if isinstance(shift, (int, float, np.generic)):
            shift = (shift,)
        shift = tuple(_check_int(s, "shift") for s in shift)
        if len(shift) != self.rank:
            raise ValueError("shift rank mismatch")
        if self.is_zero:
            return self
        # numpy wraps silently, so check the extremes in Python ints first
        box = tuple((_check_i64(lo + s, "shifted frequency"),
                     _check_i64(hi + s, "shifted frequency"))
                    for (lo, hi), s in zip(self.support_box, shift))
        step = np.array([_wrapped_i64(s) for s in shift], dtype=np.int64)
        return TrigPoly._wrap(self.rank, self.freqs + step, self.coeffs, box)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (terms, rank) int64 frequencies and complex128
        coefficients (read-only, rows sorted by frequency)."""
        return self.freqs, self.coeffs

    def eval_at(self, t) -> complex:
        """Evaluate at a single point (tuple for rank > 1).

        Each phase f . t is reduced mod 1 exactly: floats are dyadic
        rationals, so the reduction runs in Python integers and only the
        reduced phase is rounded.  The terms are summed with ``math.fsum``.
        """
        if isinstance(t, (int, float, np.floating)):
            t = (float(t),)
        t = tuple(float(x) for x in t)
        if len(t) != self.rank:
            raise ValueError("point rank mismatch")
        if self.is_zero:
            return 0j
        ratios = [x.as_integer_ratio() for x in t]
        den = max(q for _, q in ratios)  # every q is a power of two
        nums = [p * (den // q) for p, q in ratios]
        phases = np.array([sum(f * m for f, m in zip(row, nums)) % den / den
                           for row in self.freqs.tolist()])
        vals = self.coeffs * char_e(phases)
        return complex(math.fsum(vals.real), math.fsum(vals.imag))

    def to_json_dict(self) -> dict:
        return {"rank": self.rank,
                "terms": [[f, [c.real, c.imag]] for f, c in
                          zip(self.freqs.tolist(), self.coeffs.tolist())]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "TrigPoly":
        # pairs, not a dict: a frequency listed twice is summed, as the
        # constructor sums repeated terms
        terms = [(tuple(_check_i64(x, "frequency") for x in f), complex(re, im))
                 for f, (re, im) in obj["terms"]]
        return cls(_check_i64(obj["rank"], "rank"), terms)


def indicator_poly(A) -> TrigPoly:
    """The exponential-sum polynomial of a set: coefficient 1 at every element."""
    if isinstance(A, IntegerSet):
        freqs = A.array.reshape(-1, 1)
        rank = 1
    elif isinstance(A, LatticeSet):
        freqs, rank = A.array, A.rank
    else:
        raise TypeError(f"expected IntegerSet or LatticeSet, got {type(A).__name__}")
    if not len(freqs):
        raise ValueError("empty set")
    return TrigPoly._wrap(rank, freqs, np.ones(len(freqs), dtype=np.complex128))


def recentre(f: TrigPoly) -> tuple[TrigPoly, tuple[int, ...]]:
    """Translate the support so it is centred per axis; returns (g, shift).

    ``g = f.shifted(-shift)`` has per-axis degree ceil(diameter/2), the
    smallest possible, and the same L1 norm as ``f``.
    """
    if f.is_zero:
        return f, (0,) * f.rank
    # f.shifted(-shift) without its general argument handling, which costs
    # about half of this call; every certified_l1 call recentres once
    shift, box = [], []
    for lo, hi in f.support_box:
        mid = (lo + hi) // 2
        shift.append(mid)
        box.append((_check_i64(lo - mid, "shifted frequency"),
                     _check_i64(hi - mid, "shifted frequency")))
    # each mid lies in [lo, hi], so it fits in int64, and so does every
    # shifted frequency: no wrapped step is needed
    freqs = f.freqs - np.array(shift, dtype=np.int64)
    return TrigPoly._wrap(f.rank, freqs, f.coeffs, tuple(box)), tuple(shift)


def from_json_obj(obj: Mapping):
    """Decode a set or polynomial from its JSON dict (auto-detected by keys)."""
    if "terms" in obj:
        return TrigPoly.from_json_dict(obj)
    if "points" in obj:
        return LatticeSet.from_json_dict(obj)
    if "elements" in obj:
        return IntegerSet.from_json_dict(obj)
    raise ValueError("object has none of the keys 'terms', 'points', 'elements'")


def loads(text: str):
    return from_json_obj(json.loads(text))


def dumps(obj) -> str:
    return json.dumps(obj.to_json_dict(), sort_keys=True)
