"""The exact arithmetic that GradedElement, AffineElement and ModuleVector
share through `basis.Combination`, at random keys and rationals."""

from hypothesis import given, settings, strategies as st

from knwznw import Rat
from knwznw._kernel import RAT0
from knwznw.affine import AffineElement
from knwznw.basis import GradedElement
from knwznw.modules import ModuleVector, PBWMonomial

rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))
graded_keys = st.tuples(st.integers(-3, 3), st.integers(1, 3))
loop_keys = st.tuples(st.integers(0, 2), st.integers(-3, 3),
                      st.integers(1, 3))
monomials = st.builds(
    lambda entries, vac: PBWMonomial(tuple(sorted(entries)), vac),
    st.lists(st.tuples(st.integers(-3, 0), st.integers(1, 2),
                       st.integers(0, 2)), max_size=3),
    st.integers(0, 1))
terms = {"graded": st.dictionaries(graded_keys, rationals, max_size=5),
         "affine": st.dictionaries(loop_keys, rationals, max_size=5),
         "module": st.dictionaries(monomials, rationals, max_size=5)}


def draw(data, kind, lam=0):
    t = data.draw(terms[kind])
    if kind == "graded":
        return GradedElement(lam, t)
    if kind == "affine":
        return AffineElement(t, data.draw(rationals))
    return ModuleVector(t)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(terms)),
       lam=st.integers(-1, 2))
def test_sums_cancel_and_equal_elements_hash_equal(data, kind, lam):
    a, b = draw(data, kind, lam), draw(data, kind, lam)
    twin = (a + b) - b
    assert twin == a and hash(twin) == hash(a)
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(Rat(3)) == a + a + a
    assert all(c.num != 0 for c in (a + b).terms.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_equality_never_crosses_types_or_weights(data):
    t = data.draw(st.dictionaries(graded_keys, rationals, max_size=5))
    ge = GradedElement(0, t)
    assert ge != ModuleVector(t) and ModuleVector(t) != ge
    assert ge != GradedElement(1, t)
    assert GradedElement(0, {}) != GradedElement(1, {})
    assert GradedElement(0, {}) != ModuleVector({}) != AffineElement()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(c=rationals.filter(lambda c: c.num != 0), data=st.data())
def test_a_central_term_is_held_apart_from_the_loop(c, data):
    t = AffineElement.center(c)
    assert not t.is_zero() and t.central == c
    assert t.loop == {} and t.items() == [] and t.degrees() == []
    a = draw(data, "affine")
    assert (a + t).central == a.central + c and (a + t).loop == a.loop
    assert (a + t).items() == a.items() and (a + t).degrees() == a.degrees()
    assert t.scale(0) == AffineElement() and t.scale(0).central == RAT0
