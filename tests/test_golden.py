import json
from importlib import resources

from lrcommute import commutor, golden
from lrcommute.golden import RUNNERS, run_golden


def _fixture(name):
    ref = resources.files("lrcommute.fixtures").joinpath(name)
    return json.loads(ref.read_text())


def test_each_example_individually():
    for name in RUNNERS:
        res = run_golden([name])[0]
        assert res.passed, (name, res.messages)


def test_corruption_is_detected_with_diff(monkeypatch):
    data = _fixture("insertion_words.json")
    data["result"]["rows"][1] = [2]
    monkeypatch.setattr(golden, "_load", lambda name: data)
    res = run_golden(["insertion-words"])[0]
    assert not res.passed
    assert any("expected" in m and "actual" in m for m in res.messages)


def test_admitting_every_switch_fails_the_switching_examples(monkeypatch):
    # the searches stop at their cap of states instead of exhausting boards
    # that every switch now reaches; the four examples that switch fail
    monkeypatch.setattr(commutor, "_admissible", lambda *args: True)
    failed = [res.name for res in run_golden() if not res.passed]
    assert failed == ["switch-sequence", "staged-switching", "row-recursion",
                      "factored-commutor"]
