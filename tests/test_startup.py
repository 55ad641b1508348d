"""Cold start: a command imports only the stages it runs, every name of the
lazy export table resolves, and logging loads only when RAMSTAB_LOG asks
for info or debug records."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ramstab"
SAMPLE = str(PACKAGE / "data" / "sample.json")

# what no certify or limit-data command needs
HEAVY = (
    "dataclasses",
    "inspect",
    "logging",
    "importlib.resources",
    "ramstab.hasseherbrand",
    "ramstab.svgplot",
)

CHILD = """
import contextlib, io, json, sys
heavy = {heavy!r}
loaded = lambda: [name for name in heavy if name in sys.modules]
import ramstab.cli
seen = {{"import": loaded()}}
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ramstab.cli.main(argv)
    seen[argv[0]] = loaded() if code == 0 else "exit %d" % code
print(json.dumps(seen))
"""


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in ("RAMSTAB_LOG", "PYTHONPATH")}
    return {**env, "PYTHONPATH": str(REPO / "src"), **extra}


@pytest.fixture(scope="module")
def loaded_after():
    """The HEAVY modules loaded in a fresh ``python -S`` after importing
    the CLI and after each command, in turn."""
    commands = [["certify", SAMPLE], ["limit-data", SAMPLE], ["breaks", "--depth", "2", SAMPLE]]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(heavy=HEAVY, commands=commands)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", ["import", "certify", "limit-data"])
def test_certify_loads_no_tower_plot_or_logging(loaded_after, step):
    assert loaded_after[step] == []


def test_breaks_loads_the_tower_but_not_the_plot(loaded_after):
    assert loaded_after["breaks"] == ["ramstab.hasseherbrand"]


def test_no_module_uses_dataclasses():
    assert [p.name for p in sorted(PACKAGE.rglob("*.py")) if "dataclass" in p.read_text()] == []


def test_every_exported_name_resolves():
    import ramstab

    # each name of the package resolves through the PEP 562 hook to its module's own
    for name in ramstab.__all__:
        module = importlib.import_module(f"ramstab.{ramstab._MODULE_OF[name]}")
        assert ramstab.__getattr__(name) is getattr(module, name)
    # and each stage module defines every name it lists
    missing = []
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            module = vars(importlib.import_module(f"ramstab.{path.stem}"))
            missing += [f"{path.stem}.{n}" for n in module.get("__all__", ()) if n not in module]
    assert missing == []


def run_cli(*argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "ramstab.cli", *argv],
        capture_output=True, text=True, env=child_env(**env), timeout=120,
    )


EXTENDED = "INFO:ramstab.limitdata:extended branch record by 2 forced steps to length 5"


def test_debug_logs_the_completion_and_each_tower_level():
    proc = run_cli("breaks", "--depth", "2", SAMPLE, RAMSTAB_LOG="debug")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        EXTENDED,
        "DEBUG:ramstab.hasseherbrand:tower level 1: 2 breaks, altitude 569/162",
        "DEBUG:ramstab.hasseherbrand:tower level 2: 4 breaks, altitude 28481/4374",
    ]


@pytest.mark.parametrize("fixture", ["sample", "uniformizer"])
def test_debug_logs_of_the_tower_commands_are_pinned(fixture):
    # each line's altitude needs the tower's heights, which breaks builds
    # only for this log; both commands print the lines hh always printed
    expected = (REPO / "tests" / "data" / "debug" / f"{fixture}.depth5.txt").read_text()
    for command in ("breaks", "hh"):
        proc = run_cli(command, "--depth", "5", str(PACKAGE / "data" / f"{fixture}.json"), RAMSTAB_LOG="debug")
        assert proc.returncode == 0
        assert proc.stderr == expected


def test_info_logs_the_written_plot(tmp_path):
    out = str(tmp_path / "sample.svg")
    proc = run_cli("plot", "--depth", "2", "--out", out, SAMPLE, RAMSTAB_LOG="info")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [EXTENDED, f"INFO:__main__:wrote {out}"]


@pytest.mark.parametrize("level", [None, "warn", "error"])
def test_quiet_levels_print_nothing(tmp_path, level):
    env = {} if level is None else {"RAMSTAB_LOG": level}
    for argv in (["breaks", "--depth", "2"], ["plot", "--depth", "2", "--out", str(tmp_path / "s.svg")]):
        proc = run_cli(*argv, SAMPLE, **env)
        assert proc.returncode == 0 and proc.stderr == ""
