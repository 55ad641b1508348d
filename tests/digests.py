"""Output digests: one short SHA-256 per (document, command).

Runs ``limit-data``, ``branch``, ``certify``, ``breaks --depth 6``,
``hh --depth 6`` and ``plot --depth 3`` in process on a fixed document
list: the 586 ``bench/gen.py`` documents (certify-corpus seeds 1-3 and
wide-degree seeds 1-2, blocks 0-3 each, and tower-depth seeds 1-5), both
bundled fixtures and the documents named below.  Each digest covers the
exit code, stdout, stderr and the SVG that ``plot`` writes, with the
scratch directory's path replaced by a fixed token.  ``bench/gen.py`` is
loaded read-only: its documents depend on nothing under ``src``.

    python tests/digests.py           list the pairs that differ from the file
    python tests/digests.py --write   regenerate tests/data/digests.json

``tests/test_digests.py`` runs the comparison in tier-1.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "digests.json"
DATA = ROOT / "src" / "ramstab" / "data"
DIGEST_CHARS = 16
DIGIT_LIMIT = 4300  # the interpreter's default limit on the digits of an int

COMMANDS = {
    "limit-data": ["limit-data"],
    "branch": ["branch"],
    "certify": ["certify"],
    "breaks": ["breaks", "--depth", "6"],
    "hh": ["hh", "--depth", "6"],
    "plot": ["plot", "--depth", "3"],
}

# documents a fault was first seen on: a uniformizer base certified TRS
# whose level-1 polygon is not strictly convex, and an estimated d = -11
# that puts phi_1's first vertex at x < 0
NAMED = {
    "found/uniformizer-base-p5": {
        "p": 5, "r": 2, "v_p": 1, "coeff_valuations": {"1": "2", "25": "0"},
        "base_valuation": "1", "branch_valuations": ["1"],
    },
    "found/negative-d": {
        "p": 2, "r": 1, "v_p": 1, "coeff_valuations": {"2": "0"},
        "base_valuation": "-11", "branch_valuations": ["-11"],
    },
}


def _load_gen():
    """``bench/gen.py`` as a module, loaded without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def documents() -> dict:
    """The fixed document list: name -> document object."""
    gen = _load_gen()
    docs = {}
    for seed in (1, 2, 3):
        for block in range(4):
            for doc in gen.certify_corpus(seed, block):
                docs[f"certify-corpus/s{seed}/{doc.name}"] = doc.obj
    for seed in (1, 2):
        for block in range(4):
            for doc in gen.wide_degree(seed, block):
                docs[f"wide-degree/s{seed}/{doc.name}"] = doc.obj
    for seed in range(1, 6):
        for doc in gen.tower_docs(seed):
            docs[f"tower-depth/s{seed}/{doc.name}"] = doc.obj
    for name in ("sample", "uniformizer"):
        docs[f"fixture/{name}"] = json.loads((DATA / f"{name}.json").read_text())
    docs.update(NAMED)
    return docs


def _run(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is an output too
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def compute() -> dict:
    """``"<document> <command>"`` -> digest, for every listed pair."""
    from ramstab import cli

    digests = {}
    saved_env = os.environ.pop("RAMSTAB_LOG", None)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    saved_limit = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            svg = os.path.join(tmp, "plot.svg")
            for name, obj in documents().items():
                path = os.path.join(tmp, name.replace("/", "-") + ".json")
                with open(path, "w") as fh:
                    json.dump(obj, fh, indent=1)
                for command, args in COMMANDS.items():
                    argv = [*args, path] + (["--out", svg] if command == "plot" else [])
                    code, stdout, stderr = _run(cli, argv)
                    drawn = ""
                    if os.path.exists(svg):
                        with open(svg) as fh:
                            drawn = fh.read()
                        os.remove(svg)
                    text = json.dumps([code, stdout, stderr, drawn]).replace(tmp, "<dir>")
                    digest = hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]
                    digests[f"{name} {command}"] = digest
    finally:
        if saved_env is not None:
            os.environ["RAMSTAB_LOG"] = saved_env
        if get_limit:
            sys.set_int_max_str_digits(saved_limit)
    return digests


def load() -> dict:
    return json.loads(DIGESTS.read_text())


def changed_pairs(actual: dict, expected: dict) -> list:
    """Every pair whose digest differs, or that one side lacks."""
    lines = []
    for key in sorted(expected.keys() | actual.keys()):
        if key not in actual:
            lines.append(f"{key}: no longer run")
        elif key not in expected:
            lines.append(f"{key}: not in {DIGESTS.name}")
        elif actual[key] != expected[key]:
            lines.append(f"{key}: {expected[key]} -> {actual[key]}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    actual = compute()
    if "--write" in argv:
        previous = load() if DIGESTS.exists() else {}
        for line in changed_pairs(actual, previous):
            print(line)
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(actual, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    lines = changed_pairs(actual, load())
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(actual)} outputs differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
