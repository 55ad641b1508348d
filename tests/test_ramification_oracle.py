"""``hh``'s printed ``Phi`` against the ramification-polygon oracle.

``ramification_oracle`` derives every layer's transition function from the
polynomial alone, for a uniformizer base.  Each box below is a grid of such
documents; every certified document's ``hh`` ``Phi`` must equal the
oracle's, vertex for vertex.  The documents where the certificate does not
imply the tower (the silent kind, whose ``hh`` draws too few vertices, and
the ``level-convexity`` kind, whose ``hh`` exits 1) are named in ``KNOWN``
with their kind; each is a strict xfail until the certificate checks the
tower at every level.

Tier-1 runs boxes A and B.  ``python tests/test_ramification_oracle.py C``
runs box C (``e_ke`` and ``v_p`` up to 3), as CI does: it exits 1 when a
document's outcome is not the one ``KNOWN`` names for it.
"""

import ast
import contextlib
import io
import itertools
import json
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ramstab.cli import main

import ramification_oracle

# box name -> the (p, r) grid, coefficient valuations, (e_ke, v_p) pairs,
# whether two-index supports are drawn for q <= 9, and the depth compared
BOXES = {
    "A": ([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)], (1, 2, 3), [(1, 1)], True, 5),
    "B": ([(5, 2), (2, 4), (3, 3), (11, 1)], (1, 2, 3), [(1, 1)], False, 3),
    "C": (
        [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)],
        (1, 2),
        list(itertools.product((1, 2, 3), repeat=2)),
        True,
        3,
    ),
}

# the documents whose certified tower is not the field's, by name, with
# their kind: "silent" (hh exits 0 with too few vertices at level 1, so
# every later Phi differs) or the invariant hh exits 1 on
KNOWN = {
    "A": {
        "p2r3-2:1-3:1": "silent",
        "p2r3-2:1-5:1": "silent",
        "p2r3-2:1-7:1": "silent",
        "p3r2-3:1-5:1": "silent",
        "p3r2-3:1-7:1": "silent",
        "p3r2-3:1-8:1": "silent",
    },
    # p5r2-1:2 is the p = 5 strict xfail of test_certificates
    "B": {
        "p5r2-1:2": "level-convexity",
        "p5r2-2:2": "level-convexity",
        "p5r2-3:2": "level-convexity",
        "p5r2-4:2": "level-convexity",
        "p3r3-1:2": "level-convexity",
        "p3r3-2:2": "level-convexity",
        "p3r3-4:2": "level-convexity",
        "p3r3-5:2": "level-convexity",
        "p3r3-7:2": "level-convexity",
        "p3r3-8:2": "level-convexity",
        "p3r3-10:2": "level-convexity",
        "p3r3-11:2": "level-convexity",
    },
    "C": {
        "p3r2-3:1-5:1": "silent",
        "p3r2-3:1-7:1": "silent",
        "p3r2-3:1-8:1": "silent",
        "p3r2e1v2-3:1-5:1": "silent",
        "p3r2e1v2-3:1-7:1": "silent",
        "p3r2e1v2-3:1-8:1": "silent",
        "p3r2e1v2-3:2-8:2": "silent",
        "p3r2e1v3-3:1-5:1": "silent",
        "p3r2e1v3-3:1-7:1": "silent",
        "p3r2e1v3-3:1-8:1": "silent",
        "p3r2e1v3-3:2-8:2": "silent",
        "p3r2e2v1-3:1-8:1": "silent",
        "p3r2e2v2-3:1-8:1": "silent",
        "p3r2e2v3-3:1-8:1": "silent",
    },
}


def box(name: str) -> list:
    """The box's documents: (label, document, coefficient valuations by index)."""
    grid, valuations, units, pairs, _depth = BOXES[name]
    docs = []
    for (e_ke, v_p), (p, r) in itertools.product(units, grid):
        q = p**r
        supports = [(j,) for j in range(1, q)]
        if pairs and q <= 9:
            supports += itertools.combinations(range(1, q), 2)
        for support in supports:
            for vals in itertools.product(valuations, repeat=len(support)):
                coeffs = {**dict(zip(support, vals)), q: 0}
                label = f"p{p}r{r}" + (f"e{e_ke}v{v_p}" if (e_ke, v_p) != (1, 1) else "")
                label += "-" + "-".join(f"{j}:{v}" for j, v in coeffs.items() if j != q)
                base = str(Fraction(1, e_ke))
                doc = {
                    "p": p, "r": r, "v_p": v_p, "e_ke": e_ke,
                    "coeff_valuations": {str(j): str(v) for j, v in coeffs.items()},
                    "base_valuation": base, "branch_valuations": [base],
                }
                docs.append((label, doc, coeffs))
    return docs


def _hh(path: Path, depth: int) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["hh", "--depth", str(depth), str(path)])
    return code, out.getvalue(), err.getvalue()


def outcome(doc: dict, coeffs: dict, depth: int, path: Path) -> str:
    """``"match"``, ``"NotCertified"``, ``"silent"`` (hh's ``Phi`` is not the
    oracle's) or the invariant ``hh`` exits 1 on."""
    path.write_text(json.dumps(doc))
    code, out, err = _hh(path, depth)
    if code == 1 and not out:
        return json.loads(err)["invariant"]
    report = json.loads(out)
    if code == 1:
        assert report["certificate"]["kind"] == "NotCertified"
        return "NotCertified"
    assert code == 0, err
    printed = [
        [(Fraction(x), Fraction(y)) for x, y in level["vertices"]] for level in report["Phi"]
    ]
    expected = ramification_oracle.tower(
        doc["p"], doc["v_p"], doc["e_ke"], doc["p"] ** doc["r"], coeffs, depth, report["reindex"]
    )
    return "match" if printed == expected else "silent"


def run_box(name: str, directory: Path) -> tuple:
    """Every document of the box that is neither a match nor NotCertified,
    by name, with its outcome, and the count of each outcome."""
    depth, faults, counts = BOXES[name][-1], {}, Counter()
    for label, doc, coeffs in box(name):
        kind = outcome(doc, coeffs, depth, directory / "doc.json")
        counts[kind] += 1
        if kind not in ("match", "NotCertified"):
            faults[label] = kind
    return faults, counts


def test_the_oracle_imports_only_the_standard_library():
    tree = ast.parse(Path(ramification_oracle.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules == {"__future__", "fractions", "math"}


def test_the_oracle_draws_the_uniformizer_fixture():
    # level n's break is (3^n + 1)/2 at altitude n + 1
    levels = ramification_oracle.tower(3, 1, 1, 3, {1: 2, 2: 1, 3: 0}, 5, 0)
    assert levels[-1] == [((3**n + 1) // 2, n + 1) for n in range(1, 6)]
    assert ramification_oracle.layer_distances(3, 1, 1, 3, {1: 2, 2: 1, 3: 0}, 2) == [(5, 2)]


@pytest.mark.parametrize("name, certified", [("A", 759), ("B", 225)])
def test_box_towers_are_the_oracles(name, certified, tmp_path):
    faults, counts = run_box(name, tmp_path)
    assert counts["NotCertified"] == len(box(name)) - certified
    assert {label: kind for label, kind in faults.items() if label not in KNOWN[name]} == {}


@pytest.mark.parametrize(
    "name, label",
    [
        pytest.param(
            name,
            label,
            id=f"{name}-{kind}-{label}",
            marks=pytest.mark.xfail(
                strict=True, reason=f"{kind}: the certificate does not imply the tower (ROADMAP item 1)"
            ),
        )
        for name in ("A", "B")
        for label, kind in KNOWN[name].items()
    ],
)
def test_known_faults(name, label, tmp_path):
    (doc, coeffs), = [(doc, coeffs) for each, doc, coeffs in box(name) if each == label]
    assert outcome(doc, coeffs, BOXES[name][-1], tmp_path / "doc.json") == "match"


if __name__ == "__main__":
    name = sys.argv[1]
    with tempfile.TemporaryDirectory() as directory:
        faults, counts = run_box(name, Path(directory))
    print(f"box {name}: {len(box(name))} documents, {dict(counts)}")
    known = KNOWN[name]
    labels = sorted(faults.keys() | known.keys())
    wrong = [label for label in labels if faults.get(label) != known.get(label)]
    for label in labels:
        note = f" (KNOWN says {known.get(label)})" if label in wrong else ""
        print(f"{label}: {faults.get(label, 'match or NotCertified')}{note}")
    sys.exit(1 if wrong else 0)
