"""Span tracing of ramstab from outside the package.

Every public function of every ramstab module (the names in its __all__,
plus cli.main and PLFunction.slopes) is replaced, at every ramstab module
binding that holds it, by a wrapper that records a span: name, start, end,
parent span and command id.  Calls, total and self time are accumulated as
spans close, so the counts are complete even when the stored span list is
capped.  Nothing under src/ changes; restore() puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

EXTRA = {"ramstab.cli": ["main"], "ramstab.plf": ["PLFunction.slopes"]}
MAX_SPANS = 200_000  # stored spans; counts and times are kept for every call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        # stored spans, one entry per array
        self.s_name, self.s_start, self.s_end = array("l"), array("q"), array("q")
        self.s_parent, self.s_cmd = array("l"), array("l")
        self.storing = True
        self.stack: list[list] = []  # [span index or -1, start, child ns]
        self.cmd = -1
        self.commands: list[dict] = []
        self.support: frozenset = frozenset()
        self.binom_calls = 0
        self.binom_useful = 0
        self._patched: list[tuple] = []

    # --- commands ---------------------------------------------------------

    def begin_command(self, argv, support=frozenset()):
        self.cmd = len(self.commands)
        self.commands.append({"id": self.cmd, "argv": list(argv)})
        self.support = support
        # only whole commands are stored: stop at the first command that
        # starts after the cap is reached
        self.storing = len(self.s_name) < MAX_SPANS

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        stack = self.stack
        is_binom = name == "valuations.binom_valuation"

        def wrapper(*args, **kwargs):
            if is_binom:
                self.binom_calls += 1
                if args[0] in self.support:
                    self.binom_useful += 1
            idx = -1
            if self.storing:
                idx = len(self.s_name)
                self.s_name.append(nid)
                self.s_parent.append(stack[-1][0] if stack else -1)
                self.s_cmd.append(self.cmd)
                self.s_start.append(0)
                self.s_end.append(0)
            frame = [idx, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    self.s_start[idx] = frame[1]
                    self.s_end[idx] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of every loaded ramstab module."""
        modules = {n: m for n, m in sys.modules.items() if n == "ramstab" or n.startswith("ramstab.")}
        targets = {}  # id(original) -> (original, span name)
        for mod_name, mod in modules.items():
            if mod_name == "ramstab":
                continue
            short = mod_name[len("ramstab."):]
            for attr in list(getattr(mod, "__all__", [])) + EXTRA.get(mod_name, []):
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = self._wrap(f"{short}.{attr}", orig)
                    setattr(cls, meth, wrapped)
                    self._patched.append((cls, meth, orig))
                    continue
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == mod_name:
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # --- results ----------------------------------------------------------

    def counts(self, name: str) -> int:
        nid = self.name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_ms(self, name: str) -> float:
        nid = self.name_ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e6

    def per_command_counts(self) -> dict[int, dict[str, int]]:
        """Calls per function name for each command, from the stored spans."""
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for nid, cmd in zip(self.s_name, self.s_cmd):
            out[cmd][self.names[nid]] += 1
        return out

    def dump(self, path) -> None:
        """Write one header line, then one JSON line per stored span."""
        stored_cmds = sorted(set(self.s_cmd))
        header = {
            "format": "ramstab-bench-spans/1",
            "clock": "perf_counter_ns",
            "names": self.names,
            "commands": [self.commands[c] for c in stored_cmds],
            "stored_spans": len(self.s_name),
            "commands_not_stored": len(self.commands) - len(stored_cmds),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.s_name)):
                fh.write(
                    json.dumps(
                        [i, self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                         self.s_parent[i], self.s_cmd[i]]
                    )
                    + "\n"
                )
