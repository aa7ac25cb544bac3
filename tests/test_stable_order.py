"""The intake sort kernel against NumPy's own stable sorts.

``stable_order`` is ``np.argsort(keys, kind="stable")`` for
non-negative integer keys below a bound, computed as 16-bit radix
passes; ``_unique`` is ``np.unique(..., return_index=True,
return_inverse=True)`` built on it.  Both are checked on seeded keys at
every bound where the pass count changes, and on empty, single, equal,
presorted and reversed keys.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.graphs.compiled import _unique, stable_order  # noqa: E402

#: Bounds where the pass count changes, and one near int64's top.
BOUNDS = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 10**18)

#: Key dtypes the intake and warm paths sort.
DTYPES = ("int32", "int64", "intp", "uint16")


def keys_of(shape: str, bound: int, dtype: str, seed: int):
    """Seeded keys below ``bound`` of one ``shape``."""
    rng = np.random.default_rng(seed)
    top = min(bound, int(np.iinfo(dtype).max) + 1)
    if shape == "empty":
        return np.empty(0, dtype=dtype)
    if shape == "one":
        return np.array([top - 1], dtype=dtype)
    if shape == "equal":
        return np.full(500, top // 2, dtype=dtype)
    keys = rng.integers(0, top, size=3000, dtype=np.int64, endpoint=False)
    keys[:2] = (0, top - 1)  # both ends of the range
    keys[2:40] = keys[40:78]  # ties
    keys = keys.astype(dtype)
    if shape == "presorted":
        keys.sort()
    elif shape == "reversed":
        keys = np.sort(keys)[::-1].copy()
    return keys


SHAPES = ("empty", "one", "equal", "random", "presorted", "reversed")


def cases(bound: int, dtypes):
    for dtype in dtypes:
        for shape in SHAPES:
            for seed in range(3):
                yield (shape, dtype, seed), keys_of(shape, bound, dtype, seed)


@pytest.mark.parametrize("bound", BOUNDS)
def test_stable_order_matches_stable_argsort(bound):
    for case, keys in cases(bound, DTYPES):
        got = stable_order(keys, bound)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist(), case


@pytest.mark.parametrize("bound", BOUNDS)
def test_unique_matches_np_unique(bound):
    for case, keys in cases(bound, ("int32", "int64")):
        ids, first, inverse = _unique(keys, bound)
        want_ids, want_first, want_inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        assert ids.dtype == keys.dtype, case
        assert ids.tolist() == want_ids.tolist(), case
        assert first.tolist() == want_first.tolist(), case
        assert inverse.dtype == np.int32, case
        assert inverse.tolist() == want_inverse.ravel().tolist(), case


def test_pass_count_follows_the_bound(monkeypatch):
    """One 16-bit pass per 16 bits of the bound, never more than the
    key width holds."""
    calls = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        calls.append(a.dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    keys64 = np.arange(10, dtype=np.int64)
    keys32 = np.arange(10, dtype=np.int32)
    for keys, bound, passes in (
        (keys64, 1, 1),
        (keys64, 2**16, 1),
        (keys64, 2**16 + 1, 2),
        (keys64, 2**32, 2),
        (keys64, 2**32 + 1, 3),
        (keys64, 10**18, 4),
        (keys32, 2**40, 2),
    ):
        calls.clear()
        stable_order(keys, bound)
        assert calls == [np.dtype(np.uint16)] * passes, (bound, calls)
