"""Structured frequency sets: rank-2 progressions and strongly r-dimensional sets.

Two flavors of "strongly r-dimensional" exist and both are certified, never
recognized: a set is presented together with a :class:`DimCertificate` that
names the decomposition, and :func:`validate_certificate` replays every
condition of the definition against the actual set.

* lattice flavor: A in Z^r with |A_1| >= n_1 first coordinates, every fibre
  over a first coordinate again strongly (r-1)-dimensional;
* integer flavor: A = union over k in I of (A_k + k*d_2), index set of size
  at least n_1, blocks A_k inside {-d_1..d_1}, gap condition d_2 > (2+delta)*d_1,
  each block again strongly (r-1)-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import IntegerSet, LatticeSet, _check_i64, _check_real
from .errors import CollisionError, HypothesisCheck, HypothesisError

FLAVOR_BASE = "base"
FLAVOR_INTEGER = "integer"
FLAVOR_LATTICE = "lattice"


@dataclass(frozen=True)
class DimCertificate:
    """Witness that a set is strongly r-dimensional.

    rank 1 certificates (flavor "base") only claim a size.  For rank >= 2,
    ``children`` holds one entry per decomposition key: (k, A_k, child
    certificate) in the integer flavor, (a_1, None, child certificate) in
    the lattice flavor where the fibre is read off the set itself.
    Construction does not validate; see :func:`validate_certificate`.
    """

    rank: int
    n1: int
    flavor: str = FLAVOR_BASE
    d1: int | None = None
    d2: int | None = None
    delta: float | None = None
    children: tuple[tuple[int, IntegerSet | None, "DimCertificate"], ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.flavor not in (FLAVOR_BASE, FLAVOR_INTEGER, FLAVOR_LATTICE):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if (self.rank == 1) != (self.flavor == FLAVOR_BASE):
            raise ValueError("rank 1 certificates are exactly the base flavor")
        object.__setattr__(self, "children",
                           tuple(sorted(self.children, key=lambda e: e[0])))

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(k for k, _, _ in self.children)

    def sizes(self) -> tuple[int, ...]:
        """Claimed (n_1, ..., n_r), reading the first child chain."""
        if self.rank == 1:
            return (self.n1,)
        return (self.n1,) + self.children[0][2].sizes()

    def deltas(self) -> tuple[float, ...]:
        """Claimed (delta_1, ..., delta_{r-1}) down the first child chain."""
        if self.rank == 1:
            return ()
        if self.flavor == FLAVOR_LATTICE:
            return self.children[0][2].deltas()
        return (float(self.delta),) + self.children[0][2].deltas()

    def to_json_dict(self) -> dict:
        out: dict = {"rank": self.rank, "n1": self.n1, "flavor": self.flavor}
        if self.flavor == FLAVOR_INTEGER:
            out.update(d1=self.d1, d2=self.d2, delta=self.delta)
        if self.rank > 1:
            out["children"] = [
                [k, None if sub is None else sub.to_json_dict(), child.to_json_dict()]
                for k, sub, child in self.children]
        return out

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DimCertificate":
        children = tuple(
            (_check_i64(k, "child key"),
             None if sub is None else IntegerSet.from_json_dict(sub),
             cls.from_json_dict(child))
            for k, sub, child in obj.get("children", []))
        return cls(rank=_check_i64(obj["rank"], "rank"),
                   n1=_check_i64(obj["n1"], "n1"),
                   flavor=obj.get("flavor", FLAVOR_BASE),
                   d1=None if obj.get("d1") is None else _check_i64(obj["d1"], "d1"),
                   d2=None if obj.get("d2") is None else _check_i64(obj["d2"], "d2"),
                   delta=None if obj.get("delta") is None else _check_real(obj["delta"], "delta"),
                   children=children)


def gap_rank2(a: int, b: int, m: int, n: int, force: bool = False) -> IntegerSet:
    """The rank-2 progression {a*i + b*j : 1 <= i <= m, 1 <= j <= n}.

    The sufficient distinctness condition a*m < b is enforced unless
    ``force`` is set.  Collisions (possible when forced, or with negative
    generators) raise :class:`CollisionError` listing the colliding (i, j)
    pairs, so the result always has exactly m*n elements.
    """
    # 1.5 raises instead of truncating to 1
    a, b, m, n = (_check_i64(v, what) for v, what in
                  ((a, "generator a"), (b, "generator b"), (m, "side M"), (n, "side N")))
    if a == 0 or b == 0:
        raise ValueError("generators a, b must be nonzero")
    if m < 1 or n < 1:
        raise ValueError("side lengths must be positive")
    if not force and not a * m < b:
        raise HypothesisError("a*m < b", f"a*m = {a * m} >= b = {b}")
    hits: dict[int, list[tuple[int, int]]] = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            hits.setdefault(a * i + b * j, []).append((i, j))
    collisions = sorted((v, pairs) for v, pairs in hits.items() if len(pairs) > 1)
    if collisions:
        raise CollisionError(collisions)
    return IntegerSet.from_iterable(hits)


def _spawn(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def _child_seeds(seed, count: int) -> list:
    if seed is None:
        return [None] * count
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return list(ss.spawn(count))


def _random_distinct(rng: np.random.Generator, count: int, span: int) -> list[int]:
    # count distinct integers in [0, span); span >= count
    return sorted(int(x) for x in rng.choice(span, size=count, replace=False))


def build_strong_lattice(sizes, mode: str = "box",
                         seed=None) -> tuple[LatticeSet, DimCertificate]:
    """A strongly r-dimensional lattice set with its certificate.

    Box mode returns {1..n_1} x ... x {1..n_r}.  Random mode draws each
    coordinate level from a span of 4*n_i so fibres genuinely differ, with
    per-fibre substreams split off the seed.
    """
    sizes = tuple(_check_i64(n, "size") for n in sizes)
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be a nonempty tuple of positive integers")
    if mode not in ("box", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    r = len(sizes)
    n1 = sizes[0]
    if mode == "box":
        firsts = list(range(1, n1 + 1))
    else:
        firsts = _random_distinct(_spawn(seed), n1, 4 * n1)
    if r == 1:
        pts = tuple((a,) for a in firsts)
        return LatticeSet(1, pts), DimCertificate(1, n1)
    points: list[tuple[int, ...]] = []
    children = []
    for a1, sub_seed in zip(firsts, _child_seeds(seed, n1)):
        fibre, child = build_strong_lattice(sizes[1:], mode, sub_seed)
        points.extend((a1,) + p for p in fibre)
        children.append((a1, None, child))
    return (LatticeSet(r, tuple(points)),
            DimCertificate(r, n1, FLAVOR_LATTICE, children=tuple(children)))


def _centre_child(A: IntegerSet, cert: DimCertificate) -> tuple[IntegerSet, DimCertificate]:
    """Translate a built block near 0 without invalidating its certificate.

    Base blocks translate freely.  Integer-flavor blocks may only shift by
    multiples of their own d_2 (which re-keys the index set and leaves each
    sub-block untouched), so the residual offset is below d_2/2 plus the
    sub-block radius.
    """
    mid = (A.min + A.max) // 2
    if cert.rank == 1:
        return A.translate(-mid), cert
    step = cert.d2
    u = round(mid / step)
    if u == 0:
        return A, cert
    rekeyed = tuple((k - u, sub, child) for k, sub, child in cert.children)
    recert = DimCertificate(cert.rank, cert.n1, cert.flavor, cert.d1, cert.d2,
                            cert.delta, rekeyed)
    return A.translate(-u * step), recert


def build_strong_integer(deltas, sizes, shape: str = "box", seed=None,
                         stretch: float = 1.0) -> tuple[IntegerSet, DimCertificate]:
    """A (delta; n)-strongly r-dimensional subset of Z with its certificate.

    r = len(sizes) and len(deltas) = r - 1.  d_1 is the radius of the built
    blocks, d_2 defaults to the minimum legal gap floor((2+delta_1)*d_1) + 1;
    ``stretch`` >= 1 scales it up.  Box shape uses I = {0..n_1-1} and
    identical blocks; random shape draws a sparse index set and independent
    blocks from seed substreams.
    """
    sizes = tuple(_check_i64(n, "size") for n in sizes)
    deltas = tuple(_check_real(d, "delta") for d in deltas)
    stretch = _check_real(stretch, "stretch")
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be a nonempty tuple of positive integers")
    if len(deltas) != len(sizes) - 1:
        raise ValueError("need exactly len(sizes) - 1 deltas")
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    if shape not in ("box", "random"):
        raise ValueError(f"unknown shape {shape!r}")
    if stretch < 1:
        raise ValueError("stretch must be >= 1")
    r = len(sizes)
    n1 = sizes[0]
    if r == 1:
        if shape == "box":
            elements = range(n1)
        else:
            elements = _random_distinct(_spawn(seed), n1, 4 * n1)
        return IntegerSet.from_iterable(elements), DimCertificate(1, n1)

    seeds = _child_seeds(seed, n1 + 1)
    if shape == "box":
        index = list(range(n1))
        built = [build_strong_integer(deltas[1:], sizes[1:], shape, None)] * n1
    else:
        index = _random_distinct(_spawn(seeds[0]), n1, 4 * n1)
        built = [build_strong_integer(deltas[1:], sizes[1:], shape, s)
                 for s in seeds[1:]]
    blocks = [_centre_child(A_k, cert_k) for A_k, cert_k in built]
    d1 = max(max(abs(A_k.min), abs(A_k.max)) for A_k, _ in blocks)
    d2 = int((2 + deltas[0]) * d1) + 1
    d2 = max(d2, math.ceil(stretch * d2))
    elements = []
    children = []
    for k, (A_k, cert_k) in zip(index, blocks):
        elements.extend(a + k * d2 for a in A_k)
        children.append((k, A_k, cert_k))
    return (IntegerSet.from_iterable(elements),
            DimCertificate(r, n1, FLAVOR_INTEGER, d1, d2, deltas[0],
                           tuple(children)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of replaying a certificate against a set."""

    ok: bool
    checks: tuple[HypothesisCheck, ...] = field(default=())

    @property
    def first_failure(self) -> str | None:
        return next((c.condition for c in self.checks if not c.passed), None)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok,
                "first_failure": self.first_failure,
                "checks": [c.to_json_dict() for c in self.checks]}


def _check(rows: list[HypothesisCheck], name: str, passed, detail: str = "") -> bool:
    rows.append(HypothesisCheck(name, bool(passed), detail))
    return bool(passed)


def _validate_into(A, cert: DimCertificate, rows: list[HypothesisCheck],
                   path: str) -> None:
    pre = f"{path}." if path else ""
    if cert.rank == 1:
        if isinstance(A, LatticeSet):
            _check(rows, f"{pre}rank", A.rank == 1,
                   f"lattice rank {A.rank} vs certificate rank 1")
        _check(rows, f"{pre}size >= n1", len(A) >= cert.n1,
               f"|A| = {len(A)}, n1 = {cert.n1}")
        return

    if cert.flavor == FLAVOR_LATTICE:
        if not _check(rows, f"{pre}set kind", isinstance(A, LatticeSet),
                      f"lattice certificate against {type(A).__name__}"):
            return
        if not _check(rows, f"{pre}rank", A.rank == cert.rank,
                      f"lattice rank {A.rank} vs certificate rank {cert.rank}"):
            return
        first, fibres = project_and_fibre(A, 1)
        _check(rows, f"{pre}|A1| >= n1", len(first) >= cert.n1,
               f"|A1| = {len(first)}, n1 = {cert.n1}")
        _check(rows, f"{pre}children cover A1", cert.keys == first.elements,
               f"keys {cert.keys}, A1 {first.elements}")
        claims = {child.sizes() for _, _, child in cert.children}
        _check(rows, f"{pre}children claim equal sizes", len(claims) <= 1, str(claims))
        for a1, _, child in cert.children:
            if a1 in fibres:
                _validate_into(fibres[a1], child, rows, f"{pre}fibre[{a1}]")
        return

    if not _check(rows, f"{pre}set kind", isinstance(A, IntegerSet),
                  f"integer certificate against {type(A).__name__}"):
        return
    d1, d2, delta = cert.d1, cert.d2, cert.delta
    if not _check(rows, f"{pre}parameters present",
                  d1 is not None and d2 is not None and delta is not None,
                  f"d1={d1} d2={d2} delta={delta}"):
        return
    _check(rows, f"{pre}delta > 0", delta > 0, f"delta = {delta}")
    _check(rows, f"{pre}d2 > (2+delta)*d1", d2 > (2 + delta) * d1,
           f"d2 = {d2}, (2+delta)*d1 = {(2 + delta) * d1}")
    _check(rows, f"{pre}|I| >= n1", len(cert.children) >= cert.n1,
           f"|I| = {len(cert.children)}, n1 = {cert.n1}")
    claims = {child.sizes() for _, _, child in cert.children}
    _check(rows, f"{pre}children claim equal sizes", len(claims) <= 1, str(claims))
    union: list[int] = []
    total = 0
    for k, sub, child in cert.children:
        kp = f"{pre}block[{k}]"
        if not _check(rows, f"{kp} present", sub is not None,
                      "integer flavor requires the block subset"):
            continue
        if not _check(rows, f"{kp} nonempty", len(sub) > 0, "empty block"):
            continue
        _check(rows, f"{kp} inside [-d1, d1]",
               -d1 <= sub.min and sub.max <= d1,
               f"range [{sub.min}, {sub.max}], d1 = {d1}")
        union.extend(a + k * d2 for a in sub)
        total += len(sub)
        _validate_into(sub, child, rows, kp)
    _check(rows, f"{pre}blocks pairwise disjoint", len(set(union)) == total,
           f"{total} block elements, {len(set(union))} distinct")
    _check(rows, f"{pre}decomposition reproduces A", set(union) == set(A.elements),
           f"union size {len(set(union))}, |A| = {len(A)}")


def validate_certificate(A, cert: DimCertificate) -> ValidationReport:
    """Replay every condition of the strongly r-dimensional definition.

    Failures are report rows, never exceptions; ``ok`` is the conjunction
    and ``first_failure`` names the first violated condition.
    """
    rows: list[HypothesisCheck] = []
    _validate_into(A, cert, rows, "")
    return ValidationReport(all(c.passed for c in rows), tuple(rows))


def project_and_fibre(A: LatticeSet,
                      axis: int) -> tuple[IntegerSet, dict[int, LatticeSet]]:
    """Distinct values of a 1-based coordinate, and the fibre over each.

    Fibres have rank r - 1 and their sizes sum to |A|.  Rank-1 input has no
    fibres and is rejected.
    """
    if not 1 <= axis <= A.rank:
        raise ValueError(f"axis {axis} out of range for rank {A.rank}")
    if A.rank == 1:
        raise ValueError("rank-1 set has no fibres")
    i = axis - 1
    order = np.argsort(A.array[:, i], kind="stable")
    pts = A.array[order]
    keys, starts = np.unique(pts[:, i], return_index=True)
    rest = np.split(np.delete(pts, i, axis=1), starts[1:])
    fibres = {a: LatticeSet(A.rank - 1, r) for a, r in zip(keys.tolist(), rest)}
    return IntegerSet.from_iterable(keys), fibres
