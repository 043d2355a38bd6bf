"""Byte-identical basis polynomials and norms over small labels.

Each digest is the sha256 of one line per pattern, `rows|poly|norm_sq`,
for every pattern of every U(n) label with entries in 0..h1max, labels in
descending lexicographic order and patterns in enumeration order.  The
digests were taken before the branching kernels were split by parameter
monomial; any change to a polynomial, a norm or an order shows.
"""

import hashlib
import itertools

import pytest

from gtboson.basisgen import basis_from_branching
from gtboson.gelfand import enumerate_patterns

BASIS_SHA256 = {
    # (n, h1max): (pattern count, digest)
    (3, 4): (294,
             "5623e4c162789d1fed5a62a13a020cad8bd3cc48dea5444aa0844a0e380df475"),
    (4, 3): (672,
             "0b6734eaaf4d9493558cd03d9f5fe1ba973ca5d5ad0de168b105aa77ed4fef35"),
}


@pytest.mark.parametrize("n, h1max", list(BASIS_SHA256))
def test_basis_digest(n, h1max):
    digest = hashlib.sha256()
    count = 0
    for label in itertools.combinations_with_replacement(
            range(h1max, -1, -1), n):
        for p in enumerate_patterns(label):
            b = basis_from_branching(p)
            digest.update(f"{p.rows}|{b.poly.text()}|{b.norm_sq}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == BASIS_SHA256[n, h1max]
