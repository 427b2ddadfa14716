"""Prometheus text-format exposition and a minimal parser.

``to_prometheus_text`` renders one or more registries in the classic
``text/plain; version=0.0.4`` format: ``# HELP`` / ``# TYPE`` headers per
family, one sample per labeled child, histogram children expanded into
``_bucket{le=...}`` / ``_sum`` / ``_count`` series.  Families registered
via :meth:`MetricsRegistry.describe` but never sampled still emit their
headers, so a scrape of a fresh process already advertises the full
metric surface.

``parse_prometheus_text`` is the inverse for the subset this repo emits —
enough for tests and the benchmark acceptance check, not a general
scraper.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from repro.obs.registry import Histogram, MetricFamily, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    """Integers render bare; floats via repr (full precision)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_text(labels: Iterable[tuple[str, str]],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(value)}"'
                     for key, value in pairs)
    return "{" + inner + "}"


def _render_family(lines: list[str], family: MetricFamily,
                   seen_headers: set[str]) -> None:
    if family.name not in seen_headers:
        seen_headers.add(family.name)
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
    for labels, child in family.children.items():
        if family.kind == "histogram":
            assert isinstance(child, Histogram)
            for bound, cumulative in child.cumulative_counts():
                le = "+Inf" if bound == math.inf else format_value(bound)
                lines.append(
                    f"{family.name}_bucket"
                    f"{_label_text(labels, (('le', le),))}"
                    f" {cumulative}")
            lines.append(f"{family.name}_sum{_label_text(labels)} "
                         f"{format_value(child.sum)}")
            lines.append(f"{family.name}_count{_label_text(labels)} "
                         f"{child.count}")
        else:
            value = child.value  # type: ignore[union-attr]
            if value is None:
                continue  # callback gauge with no current sample
            lines.append(f"{family.name}{_label_text(labels)} "
                         f"{format_value(value)}")


def to_prometheus_text(*registries: MetricsRegistry) -> str:
    """Render registries as Prometheus text exposition (duplicates are
    rendered once; same-named families from distinct registries
    concatenate their samples under one header)."""
    unique: list[MetricsRegistry] = []
    for registry in registries:
        if not any(registry is seen for seen in unique):
            unique.append(registry)
    by_name: dict[str, list[MetricFamily]] = {}
    for registry in unique:
        for family in registry.collect():
            by_name.setdefault(family.name, []).append(family)
    lines: list[str] = []
    seen_headers: set[str] = set()
    for name in sorted(by_name):
        for family in by_name[name]:
            _render_family(lines, family, seen_headers)
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: str, *registries: MetricsRegistry,
                     overwrite: bool = False) -> None:
    """Write the exposition text to ``path``.

    A metrics dump is a point-in-time snapshot — appending would corrupt
    it — so an existing file is an error unless ``overwrite=True`` (the
    CLIs map ``--overwrite`` onto it).  Never silently clobbers."""
    mode = "w" if overwrite else "x"
    try:
        with open(path, mode) as handle:
            handle.write(to_prometheus_text(*registries))
    except FileExistsError:
        raise FileExistsError(
            f"{path} already exists; pass overwrite=True (CLI: "
            f"--overwrite) to replace it") from None


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"\s*$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (value.replace(r"\"", '"').replace(r"\n", "\n")
            .replace(r"\\", "\\"))


def parse_prometheus_text(text: str) -> dict:
    """Parse exposition text into::

        {"families": {name: kind}, "samples":
            {series_name: {label_tuple: value}}}

    Histogram series keep their expanded ``_bucket``/``_sum``/``_count``
    names.  Raises ``ValueError`` on malformed sample lines, which is
    what makes it usable as a "the dump is parseable" check.
    """
    families: dict[str, str] = {}
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        raw_labels = match.group("labels")
        labels: tuple[tuple[str, str], ...] = ()
        if raw_labels:
            labels = tuple(sorted(
                (key, _unescape(value))
                for key, value in _LABEL_PAIR_RE.findall(raw_labels)))
        raw_value = match.group("value")
        value = (math.inf if raw_value == "+Inf"
                 else -math.inf if raw_value == "-Inf"
                 else float(raw_value))
        name = match.group("name")
        samples.setdefault(name, {})[labels] = value
    return {"families": families, "samples": samples}
