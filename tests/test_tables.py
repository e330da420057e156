"""The label tables of a level: canonical_weights, canonical_arrays,
sector_arrays and enumerate_sectors are built once for the level in use
and shared, read-only, by every builder."""

import contextlib
import io

import numpy as np
import pytest

from parafermions import cli
from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import smatrix as sm
from parafermions.errors import InvalidRankError

TABLES = (sm.canonical_weights, sm.canonical_arrays, fc.sector_arrays,
          fc.enumerate_sectors)


@pytest.fixture
def cleared():
    for table in TABLES:
        table.cache_clear()


def arrays(k):
    """Every cached integer array of level k, rows included."""
    return [sm.canonical_arrays(k), *sm.canonical_arrays(k),
            *fc.sector_arrays(k)]


@pytest.mark.usefixtures("cleared")
def test_verify_builds_each_table_once():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "--k", "6", "--all"]) == 3
    assert [t.cache_info().misses for t in TABLES] == [1, 1, 1, 1]


@pytest.mark.parametrize("k", [2, 3, 6, 9])
def test_builders_share_the_labels(k):
    weights, sectors = sm.canonical_weights(k), fc.enumerate_sectors(k)
    assert co.coset_s_compact(k).s.labels is weights
    for build in (sm.s_suk2_weylkac, sm.s_suk2_compact,
                  co.coset_s_phase_form, co.coset_s_via_su2k_u1):
        assert build(k).labels is weights
    assert fc.full_s_product(k).labels is fc.enumerate_sectors(k)
    assert fc.full_s_compact(k).labels is sectors
    assert list(fc.full_dims(k)) == list(sectors)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_tables_equal_a_fresh_enumeration(k):
    fresh = sm.weight_arrays(sm.canonical_weights.__wrapped__(k))
    assert np.array_equal(sm.canonical_arrays(k), fresh)
    assert sm.canonical_weights(k) == sm.canonical_weights.__wrapped__(k)
    for cached, built in zip(fc.sector_arrays(k),
                             fc.sector_arrays.__wrapped__(k)):
        assert np.array_equal(cached, built) and cached.dtype == built.dtype
    assert fc.enumerate_sectors(k) == fc.enumerate_sectors.__wrapped__(k)


@pytest.mark.parametrize("k", [2, 4])
def test_cached_arrays_are_read_only(k):
    for a in arrays(k):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            a += 0


@pytest.mark.usefixtures("cleared")
def test_one_level_is_kept():
    for k in (3, 4):
        co.coset_s_compact(k), fc.full_s_product(k), fc.full_dims(k)
    assert [t.cache_info().currsize for t in TABLES] == [1, 1, 1, 1]
    hits = [t.cache_info().hits for t in TABLES]
    for table in TABLES:
        table(4)
    assert [t.cache_info().hits for t in TABLES] == [h + 1 for h in hits]


@pytest.mark.usefixtures("cleared")
def test_invalid_level_raises_every_time():
    fc.sector_arrays(3)
    for _ in range(2):
        with pytest.raises(InvalidRankError, match="need k >= 1"):
            fc.sector_arrays(0)
        with pytest.raises(InvalidRankError, match="need k >= 1"):
            fc.enumerate_sectors(0)
    assert fc.sector_arrays.cache_info().currsize == 1
    assert fc.sector_arrays.cache_info().misses == 5


@pytest.mark.usefixtures("cleared")
@pytest.mark.parametrize("k", [0, -2])
def test_canonical_tables_refuse_an_invalid_level(k):
    sm.canonical_arrays(3)
    for _ in range(2):
        for table in (sm.canonical_weights, sm.canonical_arrays):
            with pytest.raises(InvalidRankError, match=f"got {k}"):
                table(k)
    # the failures are not cached, and level 3 is still the one kept
    assert [t.cache_info().currsize for t in TABLES[:2]] == [1, 1]
    assert sm.canonical_weights(3) is sm.canonical_weights(3)
    assert [t.cache_info().misses for t in TABLES[:2]] == [5, 3]
