"""Outputs pinned byte for byte: the algorithms' outputs and traces on the
``digest.py`` corpus, and ``sbspan check``'s stdout on the families that
``families.py`` writes.  A change that moves an output on purpose updates
the pin and says why."""

import pytest

from sbspan import serialize
from sbspan.cli import main
from digest import corpus_digest
from families import family

CORPUS_DIGEST = "5d6c2ebb670b4add8f9f0f7b880feac56330b49c8a83f98ff81dcb47ae7e8b44"

NA = "n/a (requires strongly connected, n >= 3)"
# (kind, n, drop) -> header, the four verdicts, then the strong and the
# b-articulation points, as `check` prints them
CHECK_PINS = {
    ("prism", 8, None): ("n=8 m=24", "true true true true", "none", "none"),
    ("prism", 8, "three"): ("n=8 m=23", "true true true true", "none", "none"),
    ("prism", 8, "into0"): ("n=8 m=21", "false false false false", NA,
                            "1 2 3 4 5 6 7"),
    ("moebius", 8, None): ("n=8 m=24", "true true true true", "none", "none"),
    ("moebius", 8, "three"): ("n=8 m=22", "true true false false", "4", "4"),
    ("moebius", 8, "into0"): ("n=8 m=21", "false false false false", NA,
                              "1 2 3 4 5 6 7"),
    ("squared", 8, None): ("n=8 m=32", "true true true true", "none", "none"),
    ("squared", 8, "three"): ("n=8 m=29", "true true false false", "6", "6"),
    ("squared", 8, "into0"): ("n=8 m=28", "false false false false", NA,
                              "1 2 3 4 5 6 7"),
    ("gates", 3, None): ("n=10 m=24", "true true false false", "4 7", "4 7"),
}
LABELS = ("strongly_connected", "strongly_biconnected", "2vertex_connected",
          "2v_strongly_biconnected", "strong_articulation_points",
          "b_articulation_points")


def test_corpus_digest_pinned():
    assert corpus_digest() == CORPUS_DIGEST


@pytest.mark.parametrize("family_args", list(CHECK_PINS))
def test_check_stdout_pinned(family_args, tmp_path, capsys):
    header, verdicts, saps, baps = CHECK_PINS[family_args]
    path = tmp_path / "g.txt"
    path.write_text(serialize(family(*family_args)))
    assert main(["check", "--in", str(path)]) == 0
    values = [*verdicts.split(), saps, baps]
    assert capsys.readouterr().out == "".join(
        [header + "\n"] + [f"{a}: {b}\n" for a, b in zip(LABELS, values)])
