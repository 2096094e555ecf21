"""Property tests: :func:`merge_payloads` is completion-order invariant.

The pool collects worker payloads with ``as_completed`` — an order the
OS scheduler picks.  Determinism of the whole sweep therefore rests on
the merge being a pure function of the *point grid*, not of the payload
arrival order.  Hypothesis drives arbitrary permutations (and grid
sizes) through the merge and asserts identical rows and identical
store-counter side effects every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import make_point, merge_payloads
from repro.memsim.store import TraceStore


def _grid(size):
    return [make_point("prop", i, "fig6sim.point", n=i) for i in range(size)]


def _payloads(size):
    return [
        {
            "index": i,
            "row": {"point": i, "value": i * i},
            "store_counters": {"profile_hits": i, "profile_misses": 1},
            "store_touched": {f"profile:key{i}": "hit" if i % 2 else "miss"},
        }
        for i in range(size)
    ]


@st.composite
def permuted_sweep(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(size)))
    return size, [_payloads(size)[i] for i in order]


@given(permuted_sweep())
@settings(max_examples=60, deadline=None)
def test_rows_invariant_under_completion_order(case):
    size, shuffled = case
    assert merge_payloads(_grid(size), shuffled) == [
        p["row"] for p in _payloads(size)
    ]


@given(permuted_sweep())
@settings(max_examples=60, deadline=None)
def test_store_side_effects_invariant_under_completion_order(
    tmp_path_factory, case
):
    size, shuffled = case
    # Give the merge a private store so the property is observable in
    # isolation (merge_payloads folds counters into the default store;
    # it never touches the store's root).  Swapped by hand: hypothesis
    # forbids the function-scoped monkeypatch and tmp_path fixtures
    # inside @given.
    import repro.memsim.store as store_mod

    store = TraceStore(root=tmp_path_factory.getbasetemp() / "prop-store")
    saved = store_mod._DEFAULT
    store_mod._DEFAULT = store
    try:
        merge_payloads(_grid(size), shuffled)
    finally:
        store_mod._DEFAULT = saved
    assert store.profile_hits == sum(range(size))
    assert store.profile_misses == size
    # Touched keys land in point order regardless of arrival order.
    assert list(store.touched_map()) == [f"profile:key{i}" for i in range(size)]


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_duplicate_index_always_rejected(size, data):
    import pytest

    payloads = _payloads(size)
    dup_of = data.draw(st.integers(min_value=0, max_value=size - 1))
    payloads.append(dict(payloads[dup_of]))
    with pytest.raises(RuntimeError, match="duplicate"):
        merge_payloads(_grid(size), payloads)


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_missing_index_always_rejected(size, data):
    import pytest

    payloads = _payloads(size)
    drop = data.draw(st.integers(min_value=0, max_value=size - 1))
    del payloads[drop]
    with pytest.raises(RuntimeError, match=f"never completed: \\[{drop}\\]"):
        merge_payloads(_grid(size), payloads)
