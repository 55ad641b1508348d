"""Command-line interface.

Commands: limit-data, branch, certify, hh, breaks, plot, selftest.
The command table ``COMMANDS`` lists the six per-document commands once,
each a function ``(doc, args) -> (payload or None, exit code)`` with its
help text and whether it takes --depth; the parser, batch ``certify`` and
``selftest`` read it.  One runner, ``main``, parses argv (``_parse_args``
hands a command's words straight to its subparser), loads the document,
calls the command and writes its payload through ``_write``, the one
write path for stdout and every --out (each command's report, a batch's
and plot's SVG), which rewrites an --out target in place and cuts a
regular file to the text's length; ``_failure`` maps any
failure to its error record and exit code: ``main`` prints it to stderr,
and a batch stores it under the file's path.  Each stage raises its own
input errors: every one is an ``InputError`` naming its field, and a bad
branch, from validation or from record completion, is a
``BranchDataError`` on ``branch_valuations``; the CLI converts nothing.
Exit codes: 0 success, 1 not-certified, tower invariant abort or a
closed stdout, 2 malformed, undecodable or unreadable input, an --out
that cannot be written, a bad command line, a --depth too deep to print
or plot, or an r whose q = p^r is too large to plot.  Logging verbosity
comes from the RAMSTAB_LOG environment variable (error/warn/info/debug);
there are no logging flags.  The package emits only info and debug
records, so ``logging`` is imported, and configured, only when RAMSTAB_LOG
is info or debug.

A command imports only the stages it runs: the tower module for hh,
breaks and plot, the SVG writer for plot, and the bundled-data reader for
selftest.  Reports print exactly as ``json.dumps(indent=2)``: ``_render``
writes them as chunks of text, ``_checks_text`` a certificate's checks
straight from its rows, each row in one fill of its fields and
``rendered``, ``_table`` the breaks and subfield table, each break quoted
once, and ``_tower_text`` hh's ``phi`` and ``Phi`` from the tower's
numerators, each level of ``Phi`` a cut of the deepest level's text;
``breaks`` builds the tower's x alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .branches import estimate_d, find_stable_index
from .certificates import CertificateCheck, certify, pcb_normal_form, pcb_sufficient
from .inputdoc import load_document
from .limitdata import complete_record, limiting_data_for_branch
from .valuations import (
    InputError,
    TowerInvariantError,
    check_printable,
    check_r_digits,
    denominator_field,
    format_ratio,
    format_rational,
    logger,
)

REPORT_NOTES = [
    "d estimates assume minimal ramification at each level and are advisory",
]


def _configure_logging():
    level = os.environ.get("RAMSTAB_LOG", "warn").upper()
    if level in ("INFO", "DEBUG"):
        import logging

        logging.basicConfig(level=level)


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


class _Text(list):
    """Chunks of report text at the indent of a top-level key, written as they are."""

    __slots__ = ()


def _json_chunks(value, chunks: list, newline: str = "\n") -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``chunks``.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool
    and None; anything else, a float or a non-str key included, raises
    TypeError.  ``newline`` is the line break and indent of this depth.
    A ``_Text`` is extended as it is, and a tuple of ``CertificateCheck``
    rows, a certificate's ``checks``, is written by ``_checks_text``.
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
    elif type(value) is _Text:
        chunks.extend(value)
    elif type(value) is tuple and value and type(value[0]) is CertificateCheck:
        chunks.append(_checks_text(value, newline))
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


def _template(keys: tuple, newline: str) -> str:
    """The text of a dict with the str keys ``keys`` at ``newline``, with a
    ``%s`` for each value; raises TypeError on a key that is not a str."""
    sep = "," + newline + "  "
    fields = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + sep[1:] + sep.join(fields) + newline + "}"


@functools.cache
def _check_row(newline: str) -> list:
    """The texts around a certificate check's values at ``newline``: its template cut at ``%s``."""
    return _template((*CertificateCheck._fields, "rendered"), newline).split("%s")


def _checks_text(checks: tuple, newline: str) -> str:
    """The text of a certificate's ``checks`` at ``newline``, the indent of
    its key, as ``json.dumps`` prints each row's dict: each row written in
    one fill of its fields, the text fields and ``rendered`` quoted."""
    item, quote, rows = newline + "  ", encode_basestring_ascii, []
    k_name, k_level, k_lhs, k_op, k_rhs, k_passed, k_rendered, end = _check_row(item)
    for check in checks:
        name, level, lhs, op, rhs, passed = check
        rows.append(
            f"{k_name}{quote(name)}{k_level}{'null' if level is None else level}{k_lhs}"
            f"{quote(lhs)}{k_op}{quote(op)}{k_rhs}{quote(rhs)}{k_passed}"
            f"{'true' if passed else 'false'}{k_rendered}{quote(check.rendered)}{end}"
        )
    return "[" + item + ("," + item).join(rows) + newline + "]"


def _table(tower, reindex: int) -> tuple:
    """The deepest level's breaks, each quoted once, and the entries of the
    subfield table as ``_Text``: the level-k subfield is the elementary
    subfield ``size``*(k - reindex) + 1 of the working base, or its ground
    field below 1, and the one past the depth has no computed break."""
    size, item = tower.size, "\n    "
    breaks = [encode_basestring_ascii(format_ratio(x, tower.D)) for x in tower.xs]
    row = _template(("level", "elementary_index", "field", "break"), item)
    rows = [row % (k, size * (k - reindex) + 1, '"ground"', "null") for k in range(reindex)]
    elementary = row % ("%s", "%s", '"elementary[%s]"', "%s")
    for i, text in enumerate([*breaks[::size], "null"]):
        rows.append(elementary % (reindex + i, size * i + 1, size * i + 1, text))
    sep = "," + item
    return breaks, {
        "breaks": _Text(("[" + item + sep.join(breaks) + "\n  ]",)),
        "subfields": _Text(("[" + item + sep.join(rows) + "\n  ]",)),
        "break_scale": "base-subfield-normalized (v maps the base subfield onto the integers)",
    }


def _tower_text(tower, breaks: list) -> tuple:
    """The ``phi`` and ``Phi`` values of ``hh``, as ``_Text`` at the indent
    of a top-level key; ``breaks`` is ``_table``'s quoted break list.

    Each number is formatted and quoted once.  Level n of ``Phi`` is the
    first ``size``*n vertices of the deepest level: its breaks and vertices
    are prefixes of the deepest level's two lists, each joined once, and
    each prefix is a chunk of its own, copied only by the final join (the
    printed bytes are quadratic in the depth).  phi_n has the x of level
    n's last ``size`` vertices, its own y and final slope 1/q.
    """
    q, D, size = tower.q, tower.D, tower.size
    E = D * q ** (tower.depth - 1)
    quote, xs = encode_basestring_ascii, breaks
    ys = [quote(format_ratio(y, E)) for y in tower.ys]
    phi_ys = [quote(format_ratio(y, D)) for y in tower.phi_ys]
    top, level, key, item, entry = ("\n" + "  " * k for k in range(1, 6))  # each one deeper
    pair = item + "[" + entry + "%s," + entry + "%s" + item + "]"
    # the deepest level's lists, open, and the end of each level's prefix
    # of each: an item's text is its separator, "[" or ",", then its own
    texts, ends = [], []
    for items in ([item + x for x in xs], [pair % xy for xy in zip(xs, ys)]):
        texts.append("[" + ",".join(items))
        ends.append(list(accumulate(len(text) + 1 for text in items))[size - 1 :: size])
    breaks_text, vertices_text = texts
    # a level of Phi: head, its breaks, middle, its vertices and tail
    keys = ("level", "breaks", "altitude", "initial_slope", "vertices", "final_slope")
    cut = "\0" + key + "]"
    fill = ("%s", cut, "%s", '"1"', cut, '"1/%s"')
    head, middle, tail = (_template(keys, level) % fill).split("\0")
    keys = ("level", "initial_slope", "vertices", "final_slope")
    phi_level = _template(keys, level) % ("%s", '"1"', "[%s" + key + "]", quote(f"1/{q}"))
    phi_vertices = [pair % xy for xy in zip(xs, phi_ys)]
    phis, levels, sep, q_n = [], _Text(), "[" + level, q
    for n, (breaks_end, vertices_end) in enumerate(zip(*ends), start=1):
        phis.append(phi_level % (n, ",".join(phi_vertices[size * (n - 1) : size * n])))
        levels += (
            sep + head % n,
            breaks_text[:breaks_end],
            middle % ys[size * n - 1],
            vertices_text[:vertices_end],
            tail % q_n,
        )
        sep, q_n = "," + level, q_n * q
    levels.append(top + "]")
    return _Text(("[" + level + ("," + level).join(phis) + top + "]",)), levels


def _render(payload: dict) -> str:
    """The report as printed: ``json.dumps(payload, indent=2)`` and a newline."""
    chunks = []
    _json_chunks(payload, chunks)
    chunks.append("\n")
    return "".join(chunks)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, the command's --out, or to stdout
    without one; a file that cannot be written is an input error on "out".

    ``out`` is opened as ``open(out, "w")`` opens it, but without
    ``O_TRUNC``: the text is written over the old bytes, and a regular file
    is then cut to its length.  Truncating a non-empty file to zero first
    costs more than writing a small report (see README).
    """
    if not out:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):  # ftruncate fails on a device or FIFO
                fh.truncate()
    except OSError as exc:
        raise InputError("out", f"cannot write the file: {exc}") from exc


def _failure(exc: Exception) -> tuple[dict, int]:
    """The error record of a failed command and its exit code: 2 with the
    ``field`` at fault for bad input (a bad branch is a ``BranchDataError``,
    the ``InputError`` on ``branch_valuations``) or an --out that cannot be
    written, 1 with the ``invariant`` for a tower abort, and 1 for any other
    ValueError."""
    if isinstance(exc, InputError):
        return {"error": str(exc), "field": exc.field}, 2
    if isinstance(exc, TowerInvariantError):
        return {"error": str(exc), "invariant": exc.prop}, 1
    return {"error": str(exc)}, 1


def _check_threshold(profile) -> None:
    """Reject an ``r`` whose q^2 has more digits than the limit: the
    stability screen prints its threshold 1/q^2 at every level it checks."""
    why = "the stability screen cannot print its threshold 1/q^2"
    check_r_digits(profile.p, 2 * profile.r, "q^2", why)


def _certified(doc):
    """The certify stage: the q^2 screen, the limiting data and the
    certificate.  Returns the certificate, the record and its limiting data."""
    _check_threshold(doc.profile)
    data, record, _n = limiting_data_for_branch(doc.profile, doc.record)
    return certify(doc.profile, record, data, doc.d), record, data


def _limit_data(doc, args):
    data, _record, level_for_C = limiting_data_for_branch(doc.profile, doc.record)
    check_printable(data.C.numerator, "the numerator of C", "limit-data cannot print C")
    payload = data.to_json()
    payload["N"] = level_for_C
    payload["notes"] = REPORT_NOTES
    return payload, 0


def _branch(doc, args):
    profile = doc.profile
    _check_threshold(profile)
    record, level_for_C, C = complete_record(profile, doc.record)
    # the completed record ends a level past |v| <= 1/q^2: its last denominator is >= q^3
    last = record.valuations[-1]
    name, why = "the last valuation's denominator", "branch cannot print it"
    check_printable(last.denominator, name, why, denominator_field(profile.q))
    check_printable(C.numerator, "the numerator of C", "branch cannot print C")
    d_est, trusted = estimate_d(profile, record)  # 1 or the last finite d-estimate
    largest = max(abs(d_n) for d_n in record.d_estimates if d_n is not None)
    why = "branch cannot print the d-estimates"
    check_printable(largest, "the largest d-estimate", why, "base_valuation")
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


def _certified_tower(doc, depth: int, heights: bool = True):
    """Certify a document and build its tower on the working base.

    Returns the certificate, the working base's valuation, its limiting
    data, its level model and the tower; all but the certificate are None
    when it does not certify.  The base valuation is finite: certify
    passes only finite levels.
    """
    from .hasseherbrand import build_tower, level_model

    cert, record, data = _certified(doc)
    if not cert.certified:
        return cert, None, None, None, None
    v_base = record.valuations[cert.reindex]
    working_data = data._replace(C=data.C / doc.profile.q**cert.reindex)
    model = level_model(doc.profile, working_data, cert.d_used, v_base)
    tower = build_tower(model, depth, heights)
    return cert, v_base, working_data, model, tower


def _hh(doc, args):
    cert, v_base, working_data, _model, tower = _certified_tower(doc, args.depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    breaks, table = _table(tower, cert.reindex)
    phi, Phi = _tower_text(tower, breaks)
    return {
        "depth": tower.depth,
        "reindex": cert.reindex,
        "d": cert.d_used,
        "d_trusted": cert.d_trusted,
        "conditional_on_d": cert.conditional_on_d,
        "base_valuation": format_rational(v_base),
        "C": format_rational(working_data.C),
        "phi": phi,
        "Phi": Phi,
        **table,
        "notes": REPORT_NOTES,
    }, 0


def _breaks(doc, args):
    cert, _v_base, _data, _model, tower = _certified_tower(doc, args.depth, heights=False)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    return {"depth": tower.depth, "reindex": cert.reindex, **_table(tower, cert.reindex)[1]}, 0


def _plot(doc, args):
    """Write the SVG to ``--out``; print nothing but the certificate of a
    document that does not certify."""
    cert, _v_base, data, model, tower = _certified_tower(doc, args.depth)
    if tower is None:
        return {"certificate": cert.to_json()}, 1
    from .svgplot import render_level_report

    depth, p, e_ke = args.depth, doc.profile.p, doc.profile.e_ke
    q, D, size = tower.q, tower.D, tower.size
    Q = q ** (depth - 1)
    error = data.C / (q * Q)
    polygon = [(p**r_i, m_i + e_i * error) for r_i, m_i, e_i in zip(data.R, data.M, data.E)]
    xs, phi_ys = tower.xs[-size:], tower.phi_ys[-size:]
    # phi_n is the polygon's dual with x scaled by e_ke q^n, y by e_ke q^(n-1),
    # and both shifted; the dual's final slope is the first vertex's x, p^0.
    # with shift = r/s, a coordinate c/D less the shift is (c s - r D)/(D s)
    r, s = model.shift.numerator, model.shift.denominator
    dual_xs, dual_ys = ([c * s - r * D for c in cs] for cs in (xs, phi_ys))
    try:
        svg = render_level_report(
            polygon,
            (dual_xs, D * s * e_ke * q * Q, dual_ys, D * s * e_ke * Q, (1, 1)),
            (xs, D, phi_ys, D, (1, q)),
            (tower.xs, D, tower.ys, D * Q, (1, q * Q)),
            depth,
        )
    except OverflowError as exc:
        # the polygon's last x is q itself: then no depth can be plotted
        field, why = "depth", f"{depth} is too deep to plot: the tower's coordinates overflow"
        try:
            float(q)
        except OverflowError:
            field, why = "r", f"{doc.profile.r} is too large to plot: q = p^r overflows"
        raise InputError(field, why + " a float") from exc
    _write(svg, args.out)
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
    except ValueError as exc:
        return _failure(exc)


def _certify_batch(paths: list, jobs: int) -> list:
    if jobs > 1:
        # imported here: the pool machinery is slow to import, and only a
        # parallel batch needs it
        from concurrent.futures import ProcessPoolExecutor

        # a pool starts all its workers at once: no more than there are files
        with ProcessPoolExecutor(max_workers=min(jobs, len(paths))) as pool:
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
    parser.commands = sub.choices  # each command's own subparser, by name
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` with each word parsed once: a
    command's words go straight to its subparser, and any it leaves over
    are the top-level parser's error, as in ``parse_args``.  Any other argv
    (none, -h, an unknown command, a leading --) goes to ``parse_args``."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    """Run one command: parse argv with ``_parse_args``, load its document,
    call its ``COMMANDS`` entry and write the payload, or print the
    failure's record to stderr."""
    _configure_logging()
    args = _parse_args(argv)
    command = args.command
    try:
        if command == "selftest":
            return _selftest()
        if command == "certify" and (len(args.inputs) > 1 or args.jobs > 1):
            results = _certify_batch(args.inputs, args.jobs)
            report = {path: payload for path, (payload, _code) in zip(args.inputs, results)}
            _write(_render(report), args.out)
            return max(code for _payload, code in results)
        path = args.inputs[0] if command == "certify" else args.input
        payload, code = COMMANDS[command][0](load_document(path), args)
        if payload is not None:
            # plot's --out is its SVG: a report it prints goes to stdout
            _write(_render(payload), None if command == "plot" else args.out)
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit does not fail again, and exit as Python does
        # on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        record, code = _failure(exc)
        print(json.dumps(record), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
