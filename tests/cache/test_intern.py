"""Structural keys and hash-consing (Conjunct.exact_key, isets.ops)."""

from repro.isets import parse_map, parse_set
from repro.isets.conjunct import Conjunct
from repro.isets.ops import intern_conjunct, presburger_key
from repro.isets.profile import reference_arm


def _stride_conjunct() -> Conjunct:
    [conjunct] = parse_set(
        "{[i] : 1 <= i <= 20 and exists(a : i = 3a)}"
    ).conjuncts
    assert conjunct.wildcards
    return conjunct


def test_constraint_and_conjunct_keys_structural():
    [base] = parse_set("{[i] : 1 <= i <= 8}").conjuncts
    # Fresh, structurally identical copies (parse_set itself already
    # returns interned conjuncts, so copy explicitly).
    c1 = Conjunct(base.constraints, base.wildcards)
    c2 = Conjunct(base.constraints, base.wildcards)
    assert c1 is not c2
    assert c1.exact_key() == c2.exact_key()
    assert hash(c1.exact_key()) == hash(c2.exact_key())
    assert c1.exact_key() is c1.exact_key()  # built and hashed once
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
    assert conjunct.exact_key() != renamed.exact_key()
    assert intern_conjunct(conjunct) is not intern_conjunct(renamed)


def test_exact_key_distinguishes_constraint_order():
    [conjunct] = parse_set("{[i] : 1 <= i <= 8}").conjuncts
    reordered = Conjunct(
        tuple(reversed(conjunct.constraints)), conjunct.wildcards
    )
    assert conjunct.exact_key() != reordered.exact_key()


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
    with reference_arm(memo_off=True):
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
