"""Relabelling invariance: the radicals and the predicate verdicts depend on
the ring, not on the order in which its elements are numbered.

Each distinct default-corpus table but the order-1024 L(Z4) is relabelled by
two seeded permutations p (element x becomes p[x]).  J, Soc and delta of the
copy must be the images of R's masks under p, and every registered predicate
must give the copy the same verdict (or raise the same error) as R.
"""
import numpy as np

from ringlab.core import RinglabError, bool_from_mask, mask_from_bool
from ringlab.ideals import jacobson_radical_mask, socle_mask, zhou_radical_mask
from ringlab.predicates import PREDICATES, evaluate_predicate

from test_isomorphism import permutation, relabelled


def image(m, p):
    """The mask of {p[x] : x in m}."""
    out = np.zeros(len(p), dtype=bool)
    out[p] = bool_from_mask(m, len(p))
    return mask_from_bool(out)


def verdict(R, name):
    try:
        return evaluate_predicate(R, name).verdict
    except RinglabError as exc:
        return type(exc).__name__


def test_radicals_and_verdicts_are_invariant_under_relabelling(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members if m.ring.order < 1024}
    assert len(tables) == 77
    assert len(PREDICATES) == 15
    for R in tables.values():
        for seed in (1, 2):
            p, S = permutation(R, seed), relabelled(R, seed)
            for radical in (jacobson_radical_mask, socle_mask, zhou_radical_mask):
                assert radical(S) == image(radical(R), p), (R.name, seed, radical.__name__)
            for name in PREDICATES:
                assert verdict(S, name) == verdict(R, name), (R.name, seed, name)
