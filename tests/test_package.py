"""What the package exports, and what each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrcommute
from lrcommute import cli, golden, verify

SRC = str(Path(__file__).resolve().parent.parent / "src")

NAMES = [
    "CHECKS", "EMPTY", "GluedPair", "InsertionTrace", "NotBallotPair",
    "RowStep", "RskPair", "SkewShape", "SkewTableau", "StagedDecomposition",
    "SwitchSite", "TwoColorTableau", "VerifyReport", "apply_order_word",
    "apply_switch", "as_partition", "chi_append", "commutor", "companion_word",
    "content", "elementary_moves", "empty_of_shape", "enumerate_ballot",
    "enumerate_ssyt", "extended_insert", "from_json", "from_json_dict",
    "from_text", "glue", "glued_pair", "golden", "gt_order_word",
    "inner_corners", "insertion", "internal_insert", "is_ballot",
    "is_ballot_tableau", "is_lr_pair", "knuth", "knuth_class",
    "knuth_equivalent", "lr_coefficient", "lr_violation", "nu_hat",
    "order_word_steps", "partitions_of", "reading_word", "restrict_rows",
    "rho1_internal", "rho1_scratch", "rho1_switching", "row_program", "rsk",
    "run_checks", "run_golden", "run_row_program", "schensted_insert", "schur",
    "schur_polynomial", "schur_product", "skew_rsk_forward",
    "skew_rsk_inverse", "skew_shape", "staged_decomposition", "standardize",
    "subpartitions", "switch_sites", "switching", "tableau_content",
    "tableaux", "to_json", "to_json_dict", "to_text", "verify",
    "yamanouchi_tableau",
]


def test_the_package_exports_the_same_names():
    assert sorted(lrcommute.__all__) == NAMES and len(NAMES) == 75
    namespace = {}
    exec("from lrcommute import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_a_lazy_name_is_its_submodule_object():
    for name, modname in lrcommute._LAZY.items():
        module = importlib.import_module(f"lrcommute.{modname}")
        expected = module if name == modname else getattr(module, name)
        assert getattr(lrcommute, name) is expected, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lrcommute.no_such_name


def test_help_lists_every_check_and_example(capsys):
    # the parser reads cli's copies, so that building it loads neither module
    assert list(cli.CHECK_NAMES) == sorted(verify.CHECKS)
    assert list(cli.EXAMPLE_IDS) == list(golden.RUNNERS)
    for command, names in (("verify", cli.CHECK_NAMES),
                           ("golden", cli.EXAMPLE_IDS)):
        assert cli.main([command, "--help"]) == 0
        shown = "".join(capsys.readouterr().out.split())  # as wrapped
        assert "from:" + ",".join(names) in shown


def _loaded(setup: str, code: str, stdin: str = "") -> set:
    """The modules ``code`` adds to ``sys.modules`` after ``setup``, in a
    fresh ``python -S``, so that no site ``.pth`` file preloads any."""
    script = (f"import json, sys\n{setup}\nbefore = set(sys.modules)\n{code}\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", script], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _ours(modules: set) -> set:
    return {m for m in modules if m.split(".")[0] == "lrcommute"}


def test_importing_the_cli_loads_only_what_commute_runs():
    loaded = _loaded("", "import lrcommute.cli")
    assert _ours(loaded) == {"lrcommute", "lrcommute.cli", "lrcommute.commutor",
                             "lrcommute.insertion", "lrcommute.tableaux"}
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, stdin, modules", [
    (["commute", "-"], ". . 1 1\n. 1 2\n2 3", set()),
    (["lr-coeff", "2,1", "1", "1"], "", {"lrcommute.schur"}),
], ids=["commute", "lr-coeff"])
def test_a_command_loads_only_the_modules_it_runs(argv, stdin, modules):
    loaded = _loaded("from lrcommute import cli", f"cli.main({argv!r})", stdin)
    assert _ours(loaded) == modules


def test_verify_and_golden_load_no_dataclasses_or_resources():
    loaded = _loaded("", "from lrcommute import golden, verify")
    assert not loaded & {"dataclasses", "inspect", "importlib.resources"}
