"""tau_reduction at every rigid subpair, pinned to recorded sha1 digests.

A reduction digest covers dim End(M), the dimension of the ideal
generated by e_U, and the quotient B/<e_U>: its names, Peirce pairs,
structure constants, vertex labels and the module map that realizes each
basis element.  Changing how the reduction reads B or its quotient must
leave every byte of these the same; run this file as a script to print
the digests of the current tree.
"""

import hashlib

import pytest

from tautilt import explorer as ex
from tautilt.linalg import QQ, Field

from conftest import cycle, linear, preprojective_algebra


ALGEBRAS = {
    "A3": lambda: linear(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "PiA3": lambda: preprojective_algebra(3),
    "cyc4/F3": lambda: cycle(4, Field(3)),
}

REDUCTIONS = {
    "A3": "a8816ce9b8fe720afaf4d93637a29c3186143fa6",
    "cyc4": "a442e606f250786b0a7a68a4d43273a17feb7b0e",
    "PiA3": "bc7e86a10b9499cd56f67a9bab7c4ed8aa3ef135",
    "cyc4/F3": "a442e606f250786b0a7a68a4d43273a17feb7b0e",
}


def _mult(alg):
    return sorted((key, tuple((k, str(c)) for k, c in v)) for key, v in alg.mult.items())


def reduction_digest(alg):
    """sha1 over the reductions at every rigid subpair of the exchange
    graph, in rigid_subpairs order, with the count of subpairs."""
    graph = ex.build_exchange_graph(alg)
    subs = ex.rigid_subpairs(graph, alg.n)
    h = hashlib.sha1(f"{len(subs)}\n".encode())
    for u in subs:
        rd = ex.tau_reduction(u)
        q = rd.quotient
        maps = [
            (i, j, [[[str(c) for c in row] for row in m] for m in f.mats])
            for i, j, f in rd.quotient_maps
        ]
        fields = (rd.endo.dim, rd.ideal_dim, q.names, q.peirce, _mult(q), q.vertex_labels, maps)
        h.update(repr(fields).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_reductions_are_pinned(name):
    assert reduction_digest(ALGEBRAS[name]()) == REDUCTIONS[name]


if __name__ == "__main__":
    for name in ALGEBRAS:
        print(f"{name!r}: {reduction_digest(ALGEBRAS[name]())!r},")
