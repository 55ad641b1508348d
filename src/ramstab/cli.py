"""Command-line interface.

Commands: limit-data, branch, certify, hh, breaks, plot, selftest.
The command table ``COMMANDS`` lists the six per-document commands once,
each a function ``(doc, args) -> (payload or None, exit code)`` with its
help text and whether it takes --depth; the parser, batch ``certify`` and
``selftest`` read it.  One runner, ``main``, loads the document, calls the
command and writes its payload, and ``_failure`` maps any failure to its
error record and exit code: ``main`` prints it to stderr, and a batch
stores it under the file's path.
Exit codes: 0 success, 1 not-certified, tower invariant abort or a
closed stdout, 2 malformed, undecodable or unreadable input, a bad
command line, or a --depth too deep to print or plot.  Logging verbosity
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
from .inputdoc import InputError, check_printable, check_r_digits, denominator_field, load_document
from .limitdata import (
    complete_record,
    compute_C,
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
    per report and indent.  A list whose first item is a flat dict (str
    keys; str, int, bool and None values) builds one ``%`` template for
    that key shape, and each item of that shape fills it.
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
        first = value[0] if value else None
        keys = tuple(first) if type(first) is dict else ()
        template = _template(keys, inner) if _flat_texts(first, keys) else None
        for item in value:
            chunks.append(sep)
            texts = template and _flat_texts(item, keys)
            if texts:
                chunks.append(template % texts)
            else:
                _json_chunks(item, chunks, inner)
            sep = "," + inner
        chunks.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def _flat_texts(item, keys: tuple):
    """The printed values of ``item`` if it is a dict with exactly the keys
    ``keys``, in that order, and only values of type str, int, bool or
    None (not subclasses); else None."""
    if type(item) is not dict or not keys or tuple(item) != keys:
        return None
    texts = []
    for value in item.values():
        kind = type(value)
        if kind is str:
            texts.append(encode_basestring_ascii(value))
        elif kind is int:
            texts.append(int.__repr__(value))
        elif value is None or kind is bool:
            texts.append("null" if value is None else "true" if value else "false")
        else:
            return None
    return tuple(texts)


def _template(keys: tuple, newline: str) -> str:
    """The text of a dict with the str keys ``keys`` at ``newline``, with a
    ``%s`` for each value; raises TypeError on a key that is not a str."""
    sep = "," + newline + "  "
    fields = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + sep[1:] + sep.join(fields) + newline + "}"


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


def _failure(exc: Exception) -> tuple[dict, int]:
    """The error record of a failed command and its exit code: 2 with the
    ``field`` at fault for bad input, 2 for a missing file, 1 with the
    ``invariant`` for a tower abort, and 1 for any other ValueError."""
    if isinstance(exc, (InputError, BranchDataError)):
        return {"error": str(exc), "field": getattr(exc, "field", None)}, 2
    if isinstance(exc, TowerInvariantError):
        return {"error": str(exc), "invariant": exc.prop}, 1
    return {"error": str(exc)}, 2 if isinstance(exc, FileNotFoundError) else 1


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


def _certified(doc):
    """The certify stage: the q^2 screen, the limiting data and the
    certificate.  Returns the certificate, the record and its limiting data."""
    _check_threshold(doc.profile)
    data, record, _n = _from_branch(limiting_data_for_branch, doc)
    return certify(doc.profile, record, data, doc.d), record, data


def _limit_data(doc, args):
    data, _record, level_for_C = _from_branch(limiting_data_for_branch, doc)
    check_printable(data.C.numerator, "the numerator of C", "limit-data cannot print C")
    payload = data.to_json()
    payload["N"] = level_for_C
    payload["notes"] = REPORT_NOTES
    return payload, 0


def _branch(doc, args):
    profile = doc.profile
    _check_threshold(profile)
    record, level_for_C = _from_branch(complete_record, doc)
    # the completed record ends a level past |v| <= 1/q^2: its last denominator is >= q^3
    last, C = record.valuations[-1], compute_C(profile, record, level_for_C)
    name, why = "the last valuation's denominator", "branch cannot print it"
    check_printable(last.denominator, name, why, denominator_field(profile.q))
    check_printable(C.numerator, "the numerator of C", "branch cannot print C")
    d_est, trusted = estimate_d(profile, record)
    return {
        "valuations": [format_rational(v) for v in record.valuations],
        "d_estimates": list(record.d_estimates),
        "stable_index": find_stable_index(profile, record),
        "C": format_rational(C),
        "sign": record.sign,
        "N": level_for_C,
        "d": doc.d,
        "d_heuristic": d_est,
        "d_trusted": True if doc.d is not None else trusted,
        "notes": REPORT_NOTES,
    }, 0


def _certify(doc, args):
    cert, record, _data = _certified(doc)
    profile = doc.profile
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


def _certified_tower(doc, depth: int):
    """Certify a document and build its tower on the working base.

    Returns the certificate, the working record, its limiting data, its
    level model and the tower; all but the certificate are None when it
    does not certify.
    """
    from .hasseherbrand import build_tower, depth_past_limit, level_model

    cert, record, data = _certified(doc)
    if not cert.certified:
        return cert, None, None, None, None
    working = reindexed_record(record, cert.reindex)
    working_data = data._replace(C=data.C / doc.profile.q**cert.reindex)
    model = level_model(doc.profile, working_data, cert.d_used, working.first_finite())
    limit = depth_past_limit(model, depth)
    if limit is not None:
        raise InputError(
            "depth",
            f"{depth} is past {limit}, the deepest tower of this document whose "
            f"numbers print within {digit_limit()} digits",
        )
    tower = build_tower(model, depth)
    return cert, working, working_data, model, tower


def _hh(doc, args):
    cert, working, working_data, _model, tower = _certified_tower(doc, args.depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    from .hasseherbrand import breaks_and_subfields, tower_json

    table = breaks_and_subfields(tower, reindex=cert.reindex)
    return {
        "depth": tower.depth,
        "reindex": cert.reindex,
        "d": cert.d_used,
        "d_trusted": cert.d_trusted,
        "conditional_on_d": cert.conditional_on_d,
        "base_valuation": format_rational(working.first_finite()),
        "C": format_rational(working_data.C),
        **tower_json(tower, table["breaks"]),
        **table,
        "notes": REPORT_NOTES,
    }, 0


def _breaks(doc, args):
    cert, _working, _data, _model, tower = _certified_tower(doc, args.depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    from .hasseherbrand import breaks_and_subfields

    table = breaks_and_subfields(tower, reindex=cert.reindex)
    return {"depth": tower.depth, "reindex": cert.reindex, **table}, 0


def _plot(doc, args):
    """Write the SVG to ``--out``; print nothing but the certificate of a
    document that does not certify."""
    cert, _working, data, model, tower = _certified_tower(doc, args.depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    from .svgplot import render_level_report

    depth, p, e_ke = args.depth, doc.profile.p, doc.profile.e_ke
    q, D, size = tower.q, tower.D, tower.size
    Q = q ** (depth - 1)
    error = data.C / (q * Q)
    polygon = [(p**r_i, m_i + e_i * error) for r_i, m_i, e_i in zip(data.R, data.M, data.E)]
    xs = [Fraction(x, D) for x in tower.xs]
    phi = list(zip(xs[-size:], (Fraction(y, D) for y in tower.phi_ys[-size:])))
    top = list(zip(xs, (Fraction(y, D * Q) for y in tower.ys)))
    # phi_n is the polygon's dual with x scaled by e_ke q^n, y by e_ke q^(n-1),
    # and both shifted; the dual's final slope is the first vertex's x, p^0
    shift = model.shift
    dual = [((x - shift) / (e_ke * q * Q), (y - shift) / (e_ke * Q)) for x, y in phi]
    try:
        svg = render_level_report(
            polygon,
            (dual, Fraction(1)),
            (phi, Fraction(1, q)),
            (top, Fraction(1, q * Q)),
            depth,
        )
    except OverflowError as exc:
        raise InputError(
            "depth", f"{depth} is too deep to plot: the tower's coordinates overflow a float"
        ) from exc
    with open(args.out, "w") as fh:
        fh.write(svg)
    log = logger(__name__, "INFO")
    if log:
        log.info("wrote %s", args.out)
    return None, 0


# The per-document commands, in help order: name -> (run, help text, whether
# it takes --depth).  ``run(doc, args)`` returns the payload to print, or
# None, and the exit code.
COMMANDS = {
    "limit-data": (_limit_data, "limiting vertex data and error coefficient", False),
    "branch": (_branch, "validated and extended branch record", False),
    "certify": (_certify, "stability certificate (exit 1 if not certified)", False),
    "hh": (_hh, "transition functions and tower to a depth", True),
    "breaks": (_breaks, "ramification breaks and subfield table", True),
    "plot": (_plot, "render polygon, dual and transition functions as SVG", True),
}


def _certify_one(path: str) -> tuple[dict, int]:
    """One file of a batch: its certificate or its error record, and the
    exit code."""
    try:
        return COMMANDS["certify"][0](load_document(path), None)
    except (ValueError, FileNotFoundError) as exc:
        return _failure(exc)


def _certify_batch(paths: list, jobs: int) -> list:
    if jobs > 1:
        # imported here: the pool machinery is slow to import, and only a
        # parallel batch needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = max(1, len(paths) // (4 * jobs))
            return list(pool.map(_certify_one, paths, chunksize=chunks))
    return [_certify_one(path) for path in paths]


def _bundled(name: str):
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("ramstab").joinpath("data", name)))


def _selftest() -> int:
    failures = 0
    for fixture, depth in (("sample", 3), ("uniformizer", 5)):
        doc = load_document(_bundled(fixture + ".json"))
        for command in ("branch", "limit-data", "certify", "hh"):
            name = f"{fixture}.{command}" + (str(depth) if command == "hh" else "")
            expected = _bundled(os.path.join("golden", name + ".json")).read_bytes()
            payload, _code = COMMANDS[command][0](doc, argparse.Namespace(depth=depth))
            actual = _render(payload)
            if actual.encode() == expected:
                print(f"selftest {name}: OK")
                continue
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
    for name, (_run, text, takes_depth) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == "certify":
            p.add_argument("inputs", nargs="+")
            p.add_argument("--jobs", type=_positive_int, default=1)
        else:
            p.add_argument("input")
        if takes_depth:
            p.add_argument("--depth", type=_positive_int, required=True)
        p.add_argument("--out", required=name == "plot")
    sub.add_parser("selftest", help="run the bundled fixtures against golden reports")
    return parser


def main(argv=None) -> int:
    """Run one command: load its document, call its ``COMMANDS`` entry and
    write the payload, or print the failure's record to stderr."""
    _configure_logging()
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "selftest":
            return _selftest()
        if command == "certify" and (len(args.inputs) > 1 or args.jobs > 1):
            results = _certify_batch(args.inputs, args.jobs)
            _emit({path: payload for path, (payload, _code) in zip(args.inputs, results)}, args.out)
            return max(code for _payload, code in results)
        path = args.inputs[0] if command == "certify" else args.input
        payload, code = COMMANDS[command][0](load_document(path), args)
        if payload is not None:
            # plot's --out is its SVG: a report it prints goes to stdout
            _emit(payload, None if command == "plot" else args.out)
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit does not fail again, and exit as Python does
        # on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        record, code = _failure(exc)
        print(json.dumps(record), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
