"""Seeded draws and kernel values, pinned bit for bit.

Random sets, random test polynomials and the Dirichlet and Fejer kernels
are each made by one shared implementation; these digests hold what they
give, so that no rewrite of them moves a single draw or value.  Floats are
compared by ``float.hex``.
"""

import hashlib
import json

import numpy as np

from expsums import acceptance
from expsums.bounds import family_random_sets
from expsums.cli import parse_set_spec
from expsums.kernels import dirichlet, fejer


def _digest(values) -> str:
    text = json.dumps([v.hex() if isinstance(v, float) else v for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _poly_values(f) -> list:
    return f.freqs.ravel().tolist() + f.coeffs.real.tolist() + f.coeffs.imag.tolist()


def _observed() -> dict:
    out = {}
    for seed in (0, 5, 2 ** 40):
        A, cert = parse_set_spec("random:64,40000", seed)
        assert cert is None
        out[f"random:64,40000 seed {seed}"] = _digest(list(A.elements))
        fam = family_random_sets(3, 64, 10 ** 5, seed=seed)
        out[f"family_random_sets seed {seed}"] = _digest(
            [label for label, _ in fam] + [x for _, A in fam for x in A.elements])
    rng = acceptance._rng(acceptance.DEFAULT_SEED, 5)
    out["_random_poly"] = _digest([x for _ in range(5)
                                   for x in _poly_values(acceptance._random_poly(rng))])
    configs = []
    for blocks, d1, d2, delta, q, s in acceptance.thinning_configs(acceptance.DEFAULT_SEED, 3):
        configs += [d1, d2, delta, q, s]
        configs += [x for k, f in blocks.items() for x in [k] + _poly_values(f)]
    out["thinning_configs"] = _digest(configs)
    # integers (the removable singularity), points next to them, and an
    # order whose (n + 1)^2 does not round back to n + 1 when divided by it
    ts = np.array([-2.0, -0.5, 0.0, 1e-13, 0.1, 1 / 3, 0.5, 0.999, 1.0, 1.0 + 1e-13, 3.0, 7.25])
    for n in (0, 1, 6, 40, 10 ** 8):
        out[f"dirichlet {n}"] = _digest(dirichlet(n, ts).tolist() + [dirichlet(n, 1.0)])
        out[f"fejer {n}"] = _digest(fejer(n, ts).tolist() + [fejer(n, 1.0)])
    return out


EXPECTED = {
    "random:64,40000 seed 0": "3fd74f3fe3014b87",
    "family_random_sets seed 0": "369b4ea9266d4bc5",
    "random:64,40000 seed 5": "eb1f494d730fe728",
    "family_random_sets seed 5": "104bad2163995dd3",
    "random:64,40000 seed 1099511627776": "5dd05869b0c21a17",
    "family_random_sets seed 1099511627776": "3a3c8861a87915a9",
    "_random_poly": "72e29ec9610b0f4a",
    "thinning_configs": "17154de9f75d6861",
    "dirichlet 0": "d0d110e7423dbb53",
    "fejer 0": "d0d110e7423dbb53",
    "dirichlet 1": "2e15d80076b8e446",
    "fejer 1": "d87e4f09c355be26",
    "dirichlet 6": "9635dd0ba67aeda7",
    "fejer 6": "3167e67979bd7b73",
    "dirichlet 40": "f25d643431719486",
    "fejer 40": "82ccf029a8e45fd0",
    "dirichlet 100000000": "fffb82e4343f6905",
    "fejer 100000000": "a2e8d896bac8f67f",
}


def test_seeded_draws_and_kernel_values_are_pinned():
    assert fejer(10 ** 8, 1.0) == 10 ** 8 + 1
    assert dirichlet(6, 2.0).hex() == (13.0).hex()
    assert _observed() == EXPECTED
