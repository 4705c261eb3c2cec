import pytest

from lrcommute import commutor, insertion
from lrcommute.tableaux import SkewTableau, yamanouchi_tableau
from probe import counting


def test_a_block_that_raises_leaves_every_target_restored():
    admissible, append = commutor._admissible, insertion._append_inplace
    with pytest.raises(KeyError):
        with counting("commutor._admissible", "insertion._append_inplace"):
            assert commutor._admissible is not admissible
            raise KeyError
    assert commutor._admissible is admissible
    assert insertion._append_inplace is append


@pytest.mark.parametrize("target, error", [
    ("commutor._no_such_kernel", AttributeError),
    ("no_such_module._admissible", ModuleNotFoundError),
])
def test_an_unknown_target_raises_before_any_is_rebound(target, error):
    admissible = commutor._admissible
    with pytest.raises(error):
        with counting("commutor._admissible", target):
            pytest.fail("the block ran")
    assert commutor._admissible is admissible


def test_nested_probes_on_one_target_both_count():
    u, v = yamanouchi_tableau((1,)), SkewTableau((2,), (1,), [(1,)])
    with counting("commutor._admissible") as outer:
        commutor.switching(u, v)
        with counting("commutor._admissible") as inner:
            commutor.switching(u, v)
    assert outer == {"commutor._admissible": 2}
    assert inner == {"commutor._admissible": 1}
