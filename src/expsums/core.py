"""Foundational types: integer/lattice sets, trigonometric polynomials, e(z).

All types are immutable after construction and safe to share across threads;
every operation here is a pure function.  Frequencies are 64-bit signed
integers; anything that would leave that range raises ``OverflowError``
instead of wrapping.
"""

from __future__ import annotations

import bisect
import cmath
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _check_i64(value: int, what: str) -> int:
    value = int(value)
    if not _I64_MIN <= value <= _I64_MAX:
        raise OverflowError(f"{what} {value} outside the signed 64-bit range")
    return value


def char_e(z):
    """The character e(z) = exp(2*pi*i*z).  Accepts scalars or numpy arrays."""
    if isinstance(z, np.ndarray):
        return np.exp(2j * np.pi * z)
    return cmath.exp(2j * cmath.pi * z)


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of distinct integers, stored sorted ascending.

    The empty set is representable (residue filtering can produce it);
    operations that need a nonempty set say so and raise.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(_check_i64(e, "element") for e in self.elements))
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "IntegerSet":
        return cls(tuple(set(int(x) for x in it)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        x = int(x)
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    @property
    def min(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no min")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no max")
        return self.elements[-1]

    @property
    def diameter(self) -> int:
        return self.max - self.min if self.elements else 0

    def translate(self, shift: int) -> "IntegerSet":
        shift = int(shift)
        return IntegerSet(tuple(_check_i64(e + shift, "translated element")
                                for e in self.elements))

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements)}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "IntegerSet":
        return cls(tuple(int(x) for x in obj["elements"]))


@dataclass(frozen=True)
class LatticeSet:
    """A finite set of distinct points in Z^r, stored sorted lexicographically."""

    rank: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        pts = []
        for p in self.points:
            p = tuple(_check_i64(c, "coordinate") for c in p)
            if len(p) != self.rank:
                raise ValueError(f"point {p} does not have {self.rank} coordinates")
            pts.append(p)
        pts.sort()
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"duplicate point {a}")
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def from_iterable(cls, rank: int, it: Iterable[Iterable[int]]) -> "LatticeSet":
        return cls(rank, tuple(set(tuple(int(c) for c in p) for p in it)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.points)

    def coordinates(self, axis: int) -> tuple[int, ...]:
        """Sorted distinct values of the given 1-based coordinate."""
        if not 1 <= axis <= self.rank:
            raise ValueError(f"axis {axis} out of range for rank {self.rank}")
        return tuple(sorted({p[axis - 1] for p in self.points}))

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LatticeSet":
        return cls(int(obj["rank"]), tuple(tuple(int(c) for c in p)
                                           for p in obj["points"]))


def _normalize_terms(rank: int, terms) -> dict[tuple[int, ...], complex]:
    out: dict[tuple[int, ...], complex] = {}
    for freq, coeff in (terms.items() if isinstance(terms, Mapping) else terms):
        if isinstance(freq, (int, np.integer)):
            freq = (int(freq),)
        freq = tuple(_check_i64(f, "frequency") for f in freq)
        if len(freq) != rank:
            raise ValueError(f"frequency {freq} does not have rank {rank}")
        coeff = complex(coeff)
        if coeff == 0:
            continue
        total = out.get(freq, 0) + coeff
        if not cmath.isfinite(total):
            # also catches finite duplicates whose sum overflows
            raise ValueError(f"coefficient {total} at frequency {freq} is not finite")
        if total == 0:
            del out[freq]
        else:
            out[freq] = total
    return out


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial sum_f c_f e(f . t), finite support in Z^r.

    Zero coefficients are never stored; the zero polynomial has no terms.
    ``terms`` must not be mutated after construction.
    """

    rank: int
    terms: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "terms", _normalize_terms(self.rank, self.terms))

    @cached_property
    def degree(self) -> tuple[int, ...]:
        """Per-axis max |frequency| (zero vector for the zero polynomial)."""
        if not self.terms:
            return (0,) * self.rank
        return tuple(max(abs(f[i]) for f in self.terms) for i in range(self.rank))

    @cached_property
    def support_box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis (min, max) of the frequency support."""
        if not self.terms:
            return ((0, 0),) * self.rank
        return tuple((min(f[i] for f in self.terms), max(f[i] for f in self.terms))
                     for i in range(self.rank))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, freq) -> complex:
        if isinstance(freq, (int, np.integer)):
            freq = (int(freq),)
        return self.terms.get(tuple(int(f) for f in freq), 0j)

    def ordered_items(self) -> list[tuple[tuple[int, ...], complex]]:
        return sorted(self.terms.items())

    def shifted(self, shift) -> "TrigPoly":
        """Translate the frequency support by ``shift`` (L1 norm is unchanged)."""
        if isinstance(shift, (int, np.integer)):
            shift = (int(shift),)
        shift = tuple(int(s) for s in shift)
        if len(shift) != self.rank:
            raise ValueError("shift rank mismatch")
        return TrigPoly(self.rank,
                        {tuple(_check_i64(f + s, "shifted frequency")
                               for f, s in zip(freq, shift)): c
                         for freq, c in self.terms.items()})

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, rank) int64 frequency array and complex128 coefficients.

        Rows are sorted by frequency so downstream reductions are deterministic.
        """
        items = self.ordered_items()
        freqs = np.array([f for f, _ in items], dtype=np.int64).reshape(len(items), self.rank)
        coeffs = np.array([c for _, c in items], dtype=np.complex128)
        return freqs, coeffs

    def eval_at(self, t) -> complex:
        """Evaluate at a single point (tuple for rank > 1)."""
        from . import backend

        if isinstance(t, (int, float, np.floating)):
            t = (float(t),)
        pt = np.array([tuple(float(x) for x in t)])
        if pt.shape[1] != self.rank:
            raise ValueError("point rank mismatch")
        if self.is_zero:
            return 0j
        freqs, coeffs = self.arrays()
        return complex(backend.eval_poly_nd(freqs, coeffs, pt)[0])

    def to_json_dict(self) -> dict:
        return {"rank": self.rank,
                "terms": [[list(f), [c.real, c.imag]] for f, c in self.ordered_items()]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "TrigPoly":
        terms = {tuple(int(x) for x in f): complex(re, im)
                 for f, (re, im) in obj["terms"]}
        return cls(int(obj["rank"]), terms)


def indicator_poly(A) -> TrigPoly:
    """The exponential-sum polynomial of a set: coefficient 1 at every element."""
    if isinstance(A, IntegerSet):
        if not A.elements:
            raise ValueError("empty set")
        return TrigPoly(1, {(a,): 1.0 + 0j for a in A.elements})
    if isinstance(A, LatticeSet):
        if not A.points:
            raise ValueError("empty set")
        return TrigPoly(A.rank, {p: 1.0 + 0j for p in A.points})
    raise TypeError(f"expected IntegerSet or LatticeSet, got {type(A).__name__}")


def recentre(f: TrigPoly) -> tuple[TrigPoly, tuple[int, ...]]:
    """Translate the support so it is centred per axis; returns (g, shift).

    ``g = f.shifted(-shift)`` has per-axis degree ceil(diameter/2), the
    smallest possible, and the same L1 norm as ``f``.
    """
    if f.is_zero:
        return f, (0,) * f.rank
    shift = tuple((lo + hi) // 2 for lo, hi in f.support_box)
    return f.shifted(tuple(-s for s in shift)), shift


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
