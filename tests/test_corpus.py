"""The quick groups of the same-bits corpus against their recorded digests.

``tests/corpus.py`` enumerates the groups and ``tests/golden/corpus.sha256``
pins each by one sha256; ``python tests/corpus.py --check`` runs all of them
(about 11 s) and names the first output of a moved group. The groups here
take about 3 s together.
"""

import pytest

import corpus

QUICK = ("chart-beta", "manifold", "expectations", "volumes", "raw")


def test_digest_file_pins_every_group():
    assert list(corpus.recorded()) == list(corpus.groups())


@pytest.mark.parametrize("group", QUICK)
def test_group_matches_its_digest(group):
    assert corpus.digest(corpus.lines(group)) == corpus.recorded()[group], (
        f"'{group}' moved; python tests/corpus.py --check {group} names its first moved output")


def test_first_difference_names_the_output():
    want = ["a QuadratureResult(value=1.0)", "b QuadratureResult(value=2.0)"]
    assert corpus.first_difference(want, want) is None
    got = [want[0], "b QuadratureResult(value=2.5)"]
    assert corpus.first_difference(got, want) == f"- {want[1]}\n+ {got[1]}"
    assert corpus.first_difference(want[:1], want) == "1 outputs, 2 at the reference"
