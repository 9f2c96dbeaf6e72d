"""Structural keys and hash-consing (repro.cache.intern)."""

from repro.cache.intern import (
    conjunct_key,
    constraint_key,
    intern_conjunct,
    linexpr_key,
    presburger_key,
)
from repro.cache.manager import caches
from repro.isets import parse_map, parse_set
from repro.isets.conjunct import Conjunct
from repro.isets.linexpr import LinExpr


def _stride_conjunct() -> Conjunct:
    [conjunct] = parse_set(
        "{[i] : 1 <= i <= 20 and exists(a : i = 3a)}"
    ).conjuncts
    assert conjunct.wildcards
    return conjunct


def test_linexpr_key_structural():
    a = LinExpr({"i": 2, "j": -1}, 5)
    b = LinExpr({"j": -1, "i": 2}, 5)
    assert linexpr_key(a) == linexpr_key(b)
    assert linexpr_key(a) != linexpr_key(LinExpr({"i": 2, "j": -1}, 6))


def test_constraint_and_conjunct_keys_structural():
    [base] = parse_set("{[i] : 1 <= i <= 8}").conjuncts
    # Fresh, structurally identical copies (parse_set itself already
    # returns interned conjuncts, so copy explicitly).
    c1 = Conjunct(base.constraints, base.wildcards)
    c2 = Conjunct(base.constraints, base.wildcards)
    assert c1 is not c2
    assert conjunct_key(c1) == conjunct_key(c2)
    assert constraint_key(c1.constraints[0]) == constraint_key(
        c2.constraints[0]
    )
    assert intern_conjunct(c1) is intern_conjunct(c2)


def test_exact_key_distinguishes_alpha_variants():
    conjunct = _stride_conjunct()
    renamed = conjunct.rename(
        {w: w + "_alpha" for w in conjunct.wildcards}
    )
    # Alpha-canonical key (used only for name-insensitive values) matches…
    assert conjunct.key() == renamed.key()
    # …but the exact memoization/interning key does not: a cached
    # transformation result must mention the caller's wildcard names.
    assert conjunct_key(conjunct) != conjunct_key(renamed)
    assert intern_conjunct(conjunct) is not intern_conjunct(renamed)


def test_exact_key_distinguishes_constraint_order():
    [conjunct] = parse_set("{[i] : 1 <= i <= 8}").conjuncts
    reordered = Conjunct(
        tuple(reversed(conjunct.constraints)), conjunct.wildcards
    )
    assert conjunct_key(conjunct) != conjunct_key(reordered)


def test_presburger_key_covers_space_and_class():
    s1 = parse_set("{[i] : 1 <= i <= 8}")
    s2 = parse_set("{[i] : 1 <= i <= 8}")
    s3 = parse_set("{[j] : 1 <= j <= 8}")
    assert presburger_key(s1) == presburger_key(s2)
    assert presburger_key(s1) != presburger_key(s3)  # dimension name
    m = parse_map("{[i] -> [j] : j = i}")
    assert presburger_key(m)[0] == "IntegerMap"
    assert presburger_key(s1)[0] == "IntegerSet"


def test_interning_disabled_returns_argument():
    conjunct = _stride_conjunct()
    canonical = intern_conjunct(conjunct)
    with caches.disabled():
        fresh = Conjunct(conjunct.constraints, conjunct.wildcards)
        assert intern_conjunct(fresh) is fresh
    assert intern_conjunct(conjunct) is canonical


def test_conjunct_key_survives_pickle_without_cached_state():
    import pickle

    conjunct = _stride_conjunct()
    key_before = conjunct.key()  # populate the lazy _key slot
    clone = pickle.loads(pickle.dumps(conjunct))
    assert clone.constraints == conjunct.constraints
    assert clone.wildcards == conjunct.wildcards
    assert clone.key() == key_before
