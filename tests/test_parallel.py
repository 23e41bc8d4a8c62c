import pytest

from convexlab.errors import DomainError
from convexlab.parallel import map_units
from convexlab.rng import RngStream


def _unit(rng, index, scale, offset):
    """A unit that draws from its own stream and echoes its inputs."""
    draw = float(rng.child(index).generator().random())
    return index, scale * index + offset, draw


@pytest.mark.parametrize("workers", ["1", "2"])
def test_units_in_order_with_their_args(monkeypatch, workers):
    monkeypatch.setenv("CONVEXLAB_WORKERS", workers)
    rng = RngStream(31)
    results = map_units(_unit, 11, rng, 3, 5)
    assert [r[0] for r in results] == list(range(11))
    assert [r[1] for r in results] == [3 * i + 5 for i in range(11)]
    assert [r[2] for r in results] == [_unit(rng, i, 3, 5)[2] for i in range(11)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_no_units(monkeypatch, workers):
    monkeypatch.setenv("CONVEXLAB_WORKERS", workers)
    assert map_units(_unit, 0, RngStream(1), 1, 0) == []


@pytest.mark.parametrize("raw", ["0", "two", " 2", "+2", "1_0", "\u0662"])
def test_bad_worker_count_raises(monkeypatch, raw):
    monkeypatch.setenv("CONVEXLAB_WORKERS", raw)
    for n_units in (0, 3):
        with pytest.raises(DomainError, match="CONVEXLAB_WORKERS"):
            map_units(_unit, n_units, RngStream(1), 1, 0)
