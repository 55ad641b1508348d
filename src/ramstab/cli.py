"""Command-line interface.

Commands: limit-data, branch, certify, hh, breaks, plot, selftest.
Exit codes: 0 success, 1 not-certified, tower invariant abort or a
closed stdout, 2 malformed or unreadable input, a bad command line, or a
--depth too deep to print or plot.  Logging verbosity
comes from the RAMSTAB_LOG environment variable (error/warn/info/debug);
there are no logging flags.  The package emits only info and debug
records, so ``logging`` is imported, and configured, only when RAMSTAB_LOG
is info or debug.

A command imports only the stages it runs: the tower module for hh,
breaks and plot, the SVG writer for plot, and the bundled-data reader for
selftest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .branches import BranchDataError, estimate_d, find_stable_index
from .certificates import certify, pcb_normal_form, pcb_sufficient
from .inputdoc import InputError, check_r_digits, load_document
from .limitdata import (
    complete_record,
    compute_C,
    level_polygon,
    limiting_data_for_branch,
    reindexed_record,
)
from .valuations import Prefix, TowerInvariantError, digit_limit, format_rational, logger

REPORT_NOTES = [
    "d estimates assume minimal ramification at each level and are advisory",
]


def _configure_logging():
    level = os.environ.get("RAMSTAB_LOG", "warn").upper()
    if level in ("INFO", "DEBUG"):
        import logging

        logging.basicConfig(level=level)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


class _Report(list):
    """The chunks of one report, and ``shared``: by id and indent, the text
    of each list that a ``Prefix`` was cut from, and each item's end in it."""

    __slots__ = ("shared",)


def _json_chunks(value, chunks: _Report, newline: str = "\n") -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``chunks``.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool
    and None; anything else, a float or a non-str key included, raises
    TypeError.  ``newline`` is the line break and indent of this depth.
    A non-empty ``Prefix`` is a cut of its list's text, rendered once
    per report and indent.
    """
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # raises TypeError on a key that is not a str
            chunks.append(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, chunks, inner)
            sep = "," + inner
        chunks.append(newline + "}" if value else "{}")
    elif type(value) is Prefix and value:
        key, inner = (id(value.whole), newline), newline + "  "
        if key not in chunks.shared:
            pieces = []  # each item of the whole list after its separator
            for i, item in enumerate(value.whole):
                mark = len(chunks)
                chunks.append(("," if i else "[") + inner)
                _json_chunks(item, chunks, inner)
                pieces.append("".join(chunks[mark:]))
                del chunks[mark:]
            chunks.shared[key] = "".join(pieces), list(accumulate(map(len, pieces)))
        text, ends = chunks.shared[key]
        chunks.append(text[: ends[len(value) - 1]])
        chunks.append(newline + "]")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _json_chunks(item, chunks, inner)
            sep = "," + inner
        chunks.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def _render(payload: dict) -> str:
    """The report as printed: ``json.dumps(payload, indent=2)`` and a newline."""
    chunks = _Report()
    chunks.shared = {}
    _json_chunks(payload, chunks)
    chunks.append("\n")
    return "".join(chunks)


def _emit(payload: dict, out: str | None) -> None:
    text = _render(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(exc: Exception) -> dict:
    return {"error": str(exc), "field": exc.field if isinstance(exc, InputError) else None}


def _from_branch(stage, doc):
    """``stage(profile, record)`` on a document, ``complete_record`` or
    ``limiting_data_for_branch``: a record with no forced level is an
    input error on its branch valuations."""
    try:
        return stage(doc.profile, doc.record)
    except BranchDataError as exc:
        raise InputError("branch_valuations", str(exc)) from exc


def _check_threshold(profile) -> None:
    """Reject an ``r`` whose q^2 has more digits than the limit: the
    stability screen prints its threshold 1/q^2 at every level it checks."""
    why = "the stability screen cannot print its threshold 1/q^2"
    check_r_digits(profile.p, 2 * profile.r, "q^2", why)


def _limit_data_payload(path) -> dict:
    doc = load_document(path)
    data, _record, level_for_C = _from_branch(limiting_data_for_branch, doc)
    payload = data.to_json()
    payload["N"] = level_for_C
    payload["notes"] = REPORT_NOTES
    return payload


def _cmd_limit_data(args) -> int:
    _emit(_limit_data_payload(args.input), args.out)
    return 0


def _branch_payload(path) -> dict:
    doc = load_document(path)
    profile = doc.profile
    _check_threshold(profile)
    record, level_for_C = _from_branch(complete_record, doc)
    d_est, trusted = estimate_d(profile, record)
    return {
        "valuations": [format_rational(v) for v in record.valuations],
        "d_estimates": list(record.d_estimates),
        "stable_index": find_stable_index(profile, record),
        "C": format_rational(compute_C(profile, record, level_for_C)),
        "sign": record.sign,
        "N": level_for_C,
        "d": doc.d,
        "d_heuristic": d_est,
        "d_trusted": True if doc.d is not None else trusted,
        "notes": REPORT_NOTES,
    }


def _cmd_branch(args) -> int:
    _emit(_branch_payload(args.input), args.out)
    return 0


def _certify_payload(path) -> tuple[dict, int]:
    doc = load_document(path)
    profile = doc.profile
    _check_threshold(profile)
    data, record, _n = _from_branch(limiting_data_for_branch, doc)
    cert = certify(profile, record, data, doc.d)
    normal_form, witness = pcb_normal_form(profile)
    base = record.first_finite()
    payload = cert.to_json()
    payload["diagnostics"] = {
        "bounded_critical_orbits_normal_form": normal_form,
        "normal_form_witness": witness,
        "small_base_valuation": None
        if base is None
        else pcb_sufficient(profile.p, profile.v_p, base),
    }
    return payload, 0 if cert.certified else 1


def _certify_one(path: str) -> tuple[str, int, dict]:
    try:
        payload, code = _certify_payload(path)
    except (InputError, BranchDataError) as exc:
        payload, code = _error_payload(exc), 2
    return path, code, payload


def _cmd_certify(args) -> int:
    if len(args.inputs) == 1 and args.jobs == 1:
        payload, code = _certify_payload(args.inputs[0])
        _emit(payload, args.out)
        return code
    if args.jobs > 1:
        # imported here: the pool machinery is slow to import, and only a
        # parallel batch needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_certify_one, args.inputs))
    else:
        results = [_certify_one(path) for path in args.inputs]
    _emit({path: payload for path, _code, payload in results}, args.out)
    return max(code for _path, code, _payload in results)


def _certified_tower(doc, depth: int):
    """Certify a document and build its tower on the working base.

    Returns the certificate, the working record, its limiting data and the
    tower; all but the certificate are None when it does not certify.
    """
    from .hasseherbrand import build_tower, depth_past_limit, level_model

    profile = doc.profile
    _check_threshold(profile)
    data, record, _n = _from_branch(limiting_data_for_branch, doc)
    cert = certify(profile, record, data, doc.d)
    if not cert.certified:
        return cert, None, None, None
    working = reindexed_record(record, cert.reindex)
    working_data = data._replace(C=data.C / profile.q**cert.reindex)
    model = level_model(profile, working_data, cert.d_used, working.first_finite())
    limit = depth_past_limit(model, depth)
    if limit is not None:
        raise InputError(
            "depth",
            f"{depth} is past {limit}, the deepest tower of this document whose "
            f"numbers print within {digit_limit()} digits",
        )
    tower = build_tower(model, depth)
    return cert, working, working_data, tower


def _breaks_payload(cert, tower) -> dict:
    """What ``breaks`` and ``hh`` both print: depth, reindex, breaks and subfields."""
    from .hasseherbrand import breaks_and_subfields

    return {
        "depth": tower.depth,
        "reindex": cert.reindex,
        **breaks_and_subfields(tower, reindex=cert.reindex),
    }


def _hh_payload(path, depth: int) -> tuple[dict, int]:
    cert, working, working_data, tower = _certified_tower(load_document(path), depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    from .hasseherbrand import tower_json

    shared = _breaks_payload(cert, tower)
    payload = {
        "depth": shared.pop("depth"),
        "reindex": shared.pop("reindex"),
        "d": cert.d_used,
        "d_trusted": cert.d_trusted,
        "conditional_on_d": cert.conditional_on_d,
        "base_valuation": format_rational(working.first_finite()),
        "C": format_rational(working_data.C),
        **tower_json(tower, shared["breaks"]),
        **shared,
        "notes": REPORT_NOTES,
    }
    return payload, 0


def _cmd_hh(args) -> int:
    payload, code = _hh_payload(args.input, args.depth)
    _emit(payload, args.out)
    return code


def _cmd_breaks(args) -> int:
    cert, _working, _data, tower = _certified_tower(load_document(args.input), args.depth)
    if tower is None:
        _emit({"certificate": cert.to_json()}, args.out)
        return 1
    _emit(_breaks_payload(cert, tower), args.out)
    return 0


def _cmd_plot(args) -> int:
    from .polygons import copolygon
    from .svgplot import render_level_report

    doc = load_document(args.input)
    cert, _working, working_data, tower = _certified_tower(doc, args.depth)
    if tower is None:
        _emit({"certificate": cert.to_json()}, None)
        return 1
    polygon = level_polygon(doc.profile, working_data, args.depth)
    q, D, size = tower.q, tower.D, tower.size
    E = D * q ** (args.depth - 1)
    xs = [Fraction(x, D) for x in tower.xs]
    phi = list(zip(xs[-size:], (Fraction(y, D) for y in tower.phi_ys[-size:])))
    top = list(zip(xs, (Fraction(y, E) for y in tower.ys)))
    try:
        svg = render_level_report(
            polygon,
            copolygon(polygon),
            (phi, Fraction(1, q)),
            (top, Fraction(1, q**args.depth)),
            args.depth,
        )
    except OverflowError as exc:
        raise InputError(
            "depth", f"{args.depth} is too deep to plot: the tower's coordinates overflow a float"
        ) from exc
    with open(args.out, "w") as fh:
        fh.write(svg)
    log = logger(__name__, "INFO")
    if log:
        log.info("wrote %s", args.out)
    return 0


def _bundled(name: str):
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("ramstab").joinpath("data", name)))


def _cmd_selftest(args) -> int:
    failures = 0
    cases = [
        ("sample.branch", _branch_payload, "sample.json"),
        ("sample.limit-data", _limit_data_payload, "sample.json"),
        ("sample.certify", lambda p: _certify_payload(p)[0], "sample.json"),
        ("sample.hh3", lambda p: _hh_payload(p, 3)[0], "sample.json"),
        ("uniformizer.branch", _branch_payload, "uniformizer.json"),
        ("uniformizer.limit-data", _limit_data_payload, "uniformizer.json"),
        ("uniformizer.certify", lambda p: _certify_payload(p)[0], "uniformizer.json"),
        ("uniformizer.hh5", lambda p: _hh_payload(p, 5)[0], "uniformizer.json"),
    ]
    for name, run, fixture in cases:
        golden_path = _bundled(os.path.join("golden", name + ".json"))
        expected = golden_path.read_bytes()
        actual = _render(run(_bundled(fixture)))
        if actual.encode() == expected:
            print(f"selftest {name}: OK")
        else:
            failures += 1
            print(f"selftest {name}: MISMATCH")
            from difflib import unified_diff  # only a mismatch needs it

            sys.stdout.writelines(
                unified_diff(
                    expected.decode(errors="replace").splitlines(keepends=True),
                    actual.splitlines(keepends=True),
                    f"golden/{name}.json",
                    f"{name} (this build)",
                )
            )
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="ramstab",
        description="Exact ramification data, stability certificates and "
        "transition functions for branch extensions of local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit-data", help="limiting vertex data and error coefficient")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_limit_data)

    p = sub.add_parser("branch", help="validated and extended branch record")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("certify", help="stability certificate (exit 1 if not certified)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("hh", help="transition functions and tower to a depth")
    p.add_argument("input")
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hh)

    p = sub.add_parser("breaks", help="ramification breaks and subfield table")
    p.add_argument("input")
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_breaks)

    p = sub.add_parser("plot", help="render polygon, dual and transition functions as SVG")
    p.add_argument("input")
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("selftest", help="run the bundled fixtures against golden reports")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit does not fail again, and exit as Python does
        # on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, BranchDataError) as exc:
        print(json.dumps(_error_payload(exc)), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except TowerInvariantError as exc:
        print(json.dumps({"error": str(exc), "invariant": exc.prop}), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
