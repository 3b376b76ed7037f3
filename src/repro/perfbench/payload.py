"""One payload path for the tracked ``BENCH_*.json`` files.

Every tracked benchmark file has the same shape::

    {"format": 1, "config": {...}, "machine": {...},
     <extra sections, e.g. "tolerance">, "benchmarks": {scenario: {...}}}

and goes through the same three steps: :meth:`BenchPayload.write` stamps
the header on a suite's results and writes the file,
:meth:`BenchPayload.validate` lists what is wrong with a payload, and
:meth:`BenchPayload.summarize` renders it.  What differs between files
is data, not code: each suite module declares one :class:`BenchPayload`
with its format version, the fields its scenarios must carry and the
fields its summary shows.

The validation rules are the same for every file:

* the format version matches and every header section is present;
* ``benchmarks`` is a non-empty object and, where the schema names its
  scenarios, holds no other;
* every scenario present carries its required fields, with the declared
  type or inside the declared open range.  The fields of an absent
  scenario are not required;
* every ``bit_identical`` and ``passed`` flag anywhere in the payload is
  true.  Those flags record correctness contracts (a parallel or cached
  result equals the plain one; float32 stays within tolerance).
  Timing budgets are recorded but never gated here, so validating a
  smoke run is deterministic.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["BenchPayload", "effective_cpu_count", "machine_info"]

#: Flags that must be true wherever they appear in a payload.
GATED_FLAGS = ("bit_identical", "passed")

_MISSING = object()


def effective_cpu_count() -> int | None:
    """CPUs this process may actually run on, not just what exists.

    ``os.cpu_count()`` reports the machine; CI runners and containers
    usually pin processes to a subset via the scheduler affinity mask, so
    parallel speedups must be read against ``len(os.sched_getaffinity(0))``.
    Falls back to ``os.cpu_count()`` where affinity is unsupported.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count()


def machine_info() -> dict:
    """The hardware/software context a timing is only comparable within."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class BenchPayload:
    """The schema of one tracked ``BENCH_*.json`` file.

    Attributes:
        format: Format version written to and required of the payload.
        fields: Dotted field path -> requirement.  The first segment is a
            scenario (or an extra section); ``*`` matches every key at its
            level, and a leading ``*`` every scenario.  The requirement is
            a type (``float`` accepts any number) or an open ``(lo, hi)``
            numeric range.
        show: Field names the summary prints, in order, for every object
            in the payload that carries any of them.
        sections: Extra top-level sections besides ``benchmarks``.
    """

    format: int
    fields: dict = field(default_factory=dict)
    show: tuple[str, ...] = ()
    sections: tuple[str, ...] = ()

    def write(self, path: str | pathlib.Path, results: dict, config,
              **sections) -> dict:
        """Stamp ``results`` with the header, write it and return it.

        The returned payload is the one on disk, read back (tuples in the
        config become lists), so it validates exactly as the file does.

        Args:
            path: Output JSON path.
            results: Scenario id -> result entry, as the suite returns it.
            config: The suite's configuration dataclass; recorded whole.
            **sections: The schema's extra top-level sections.
        """
        payload = {
            "format": self.format,
            "config": asdict(config),
            "machine": machine_info(),
            **sections,
            "benchmarks": results,
        }
        text = json.dumps(payload, indent=2) + "\n"
        pathlib.Path(path).write_text(text)
        return json.loads(text)

    def validate(self, payload: object) -> list[str]:
        """Human-readable problems with ``payload``; empty means valid."""
        if not isinstance(payload, dict):
            return ["payload is not a JSON object"]
        problems = [f"missing top-level key {key!r}"
                    for key in ("format", "config", "machine", "benchmarks",
                                *self.sections)
                    if key not in payload]
        if "format" in payload and payload["format"] != self.format:
            problems.append(f"format is {payload['format']!r}, "
                            f"expected {self.format}")
        benchmarks = payload.get("benchmarks")
        if not isinstance(benchmarks, dict) or not benchmarks:
            return problems + ["benchmarks section missing or empty"]

        named = {pattern.split(".")[0] for pattern in self.fields}
        if "*" not in named:
            unknown = set(benchmarks) - named
            if unknown:
                problems.append(f"unknown scenarios: {sorted(unknown)}")
        roots = {**benchmarks,
                 **{s: payload[s] for s in self.sections if s in payload}}
        for pattern, requirement in self.fields.items():
            scenario, *rest = pattern.split(".")
            names = (list(benchmarks) if scenario == "*"
                     else [scenario] if scenario in roots else [])
            for name in names:
                for path, value in _lookup(roots[name], rest, name):
                    problem = _check(value, requirement)
                    if problem:
                        problems.append(f"{path}: {problem}")
        for path, row in self._objects(payload):
            problems.extend(f"{path}.{flag} is not true"
                            for flag in GATED_FLAGS
                            if flag in row and row[flag] is not True)
        return problems

    def summarize(self, payload: dict) -> str:
        """One line per object carrying a :attr:`show` field."""
        lines = []
        for path, row in self._objects(payload):
            cells = [f"{name}={_format(row[name])}"
                     for name in self.show if name in row]
            if cells:
                lines.append(f"{path:<24s} " + "  ".join(cells))
        return "\n".join(lines)

    def _objects(self, payload: dict):
        """``(path, object)`` for every object under the result sections;
        paths inside ``benchmarks`` start at the scenario."""
        for root in ("", *self.sections):
            yield from _walk(payload.get(root or "benchmarks"), root)


def _lookup(node, segments: list[str], path: str):
    """Yield ``(path, value)`` for every match of ``segments`` in ``node``.

    A segment that matches nothing yields its path with ``_MISSING``.
    """
    if not segments:
        yield path, node
        return
    head, *rest = segments
    keys = [head]
    if head == "*" and isinstance(node, dict) and node:
        keys = list(node)
    for key in keys:
        child = node.get(key, _MISSING) if isinstance(node, dict) else _MISSING
        if child is _MISSING:
            yield ".".join([path, key, *rest]), _MISSING
        else:
            yield from _lookup(child, rest, f"{path}.{key}")


def _walk(node, path: str):
    """Yield ``(path, object)`` for ``node`` and every object nested in it."""
    if isinstance(node, dict):
        yield path, node
        for key, child in node.items():
            yield from _walk(child, f"{path}.{key}".lstrip("."))


def _check(value, requirement) -> str | None:
    """Why ``value`` fails ``requirement``, or ``None`` if it passes."""
    if value is _MISSING:
        return "missing"
    numeric = (isinstance(value, (int, float))
               and not isinstance(value, bool))
    if isinstance(requirement, tuple):
        low, high = requirement
        if not (numeric and low < value < high):
            return f"{value!r} outside ({low}, {high})"
    elif requirement is float:
        if not numeric:
            return f"{value!r} is not a number"
    elif requirement is int and isinstance(value, bool):
        return f"{value!r} is not int"
    elif not isinstance(value, requirement):
        return f"{value!r} is not {requirement.__name__}"
    return None


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"
    return str(value)
