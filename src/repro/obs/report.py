"""Rendering run logs: step-timing tables, convergence curves, run diffs.

The read side of the observability layer.  Everything here works from a
validated :class:`~repro.obs.runlog.RunLog` alone — no re-training, no
live objects — which is the point: a traced ``repro train`` leaves behind
enough to reconstruct the paper's Table III per-step timings and the
Fig 8-style convergence curves offline (``repro obs report run.jsonl``).

When one log contains several fits (``repro verify --trace``, experiment
sweeps), step spans are attributed to their owning trainer by walking the
span parent chain to the nearest enclosing ``fit`` or ``pipeline.fit``
span.  :class:`TimingTable` is the one Table III column type: built from
a log by :func:`timing_tables` or from a live
:class:`~repro.timing.StepTimer` by :meth:`TimingTable.from_timer`, and
rendered by :func:`format_timing_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.reports import format_table
from repro.obs.runlog import (
    ALERT_EVENT,
    HEALTH_TRANSITION_EVENT,
    TUNE_CACHE_EVENT,
    TUNE_ENCODE_SPAN,
    RunLog,
    RunLogReader,
)
from repro.timing import STEP_NAMES, StepTimer

__all__ = [
    "TimingTable",
    "Layer",
    "load_run",
    "timing_tables",
    "format_timing_table",
    "layers",
    "health_lines",
    "tune_cache_lines",
    "format_report",
    "format_summary",
    "format_diff",
]

#: Label used when a record cannot be attributed to a specific fit.
_UNATTRIBUTED = "(run)"

#: Spans that own the step spans beneath them (their ``trainer`` field
#: labels the Table III column).
_FIT_SPANS = frozenset({"fit", "pipeline.fit"})


def load_run(path) -> RunLog:
    """Read + validate a run log (thin alias of :meth:`RunLogReader.read`)."""
    return RunLogReader.read(path)


@dataclass(frozen=True)
class TimingTable:
    """Per-step timing of one trainer's fit — one Table III column.

    Attributes:
        label: Trainer name (or :data:`_UNATTRIBUTED`).
        n_epochs: Epochs the per-step totals are divided by.
        mean_step_seconds: Mean per-epoch seconds per canonical step.
        mean_epoch_seconds: Mean whole-epoch wall time.
    """

    label: str
    n_epochs: int
    mean_step_seconds: dict[str, float]
    mean_epoch_seconds: float

    @classmethod
    def from_timer(cls, label: str, timer: StepTimer,
                   n_epochs: int) -> "TimingTable":
        """The column a run log of the same fit yields, from its timer.

        Step totals are divided exactly as :func:`timing_tables` divides
        the log's step spans, so a traced fit gives equal columns.
        """
        return cls(
            label=label,
            n_epochs=n_epochs,
            mean_step_seconds={
                step: timer.total_step_seconds(step) / (n_epochs or 1)
                for step in STEP_NAMES
            },
            mean_epoch_seconds=timer.mean_epoch_seconds,
        )

    def step(self, name: str) -> float:
        """Mean per-epoch seconds of one step (0 if never timed)."""
        return self.mean_step_seconds.get(name, 0.0)


def _span_index(run: RunLog) -> dict[int, dict]:
    return {record["id"]: record for record in run.spans()}


def _owning_fit_label(span_id, index: dict[int, dict]) -> str:
    """Trainer of the nearest enclosing fit span, else unattributed."""
    seen = set()
    while span_id is not None and span_id not in seen:
        seen.add(span_id)
        record = index.get(span_id)
        if record is None:
            break
        if record["name"] in _FIT_SPANS:
            return str(record["fields"].get("trainer", _UNATTRIBUTED))
        span_id = record["parent"]
    return _UNATTRIBUTED


def timing_tables(run: RunLog) -> list[TimingTable]:
    """Reconstruct per-trainer Table III step timings from the log.

    Per-step means divide the accumulated ``step:<name>`` span durations
    by the number of ``epoch`` events of the same fit; whole-epoch times
    average the ``epoch_time`` events.  Fits appear in first-seen order.
    """
    index = _span_index(run)

    step_totals: dict[str, dict[str, float]] = {}
    order: list[str] = []

    def bucket(label: str) -> dict[str, float]:
        if label not in step_totals:
            step_totals[label] = {}
            order.append(label)
        return step_totals[label]

    for span in run.spans():
        if not span["name"].startswith("step:"):
            continue
        label = _owning_fit_label(span["parent"], index)
        totals = bucket(label)
        step = span["name"][len("step:"):]
        totals[step] = totals.get(step, 0.0) + span["dur_s"]

    epochs: dict[str, int] = {}
    for event in run.events("epoch"):
        label = str(event["fields"].get("trainer", _UNATTRIBUTED))
        bucket(label)
        epochs[label] = epochs.get(label, 0) + 1

    epoch_times: dict[str, list[float]] = {}
    for event in run.events("epoch_time"):
        label = _owning_fit_label(event["span"], index)
        epoch_times.setdefault(label, []).append(
            float(event["fields"]["seconds"])
        )

    tables = []
    for label in order:
        n_epochs = epochs.get(label, 0)
        totals = step_totals[label]
        mean_steps = {
            step: totals.get(step, 0.0) / (n_epochs or 1)
            for step in STEP_NAMES
        }
        times = epoch_times.get(label, [])
        tables.append(
            TimingTable(
                label=label,
                n_epochs=n_epochs,
                mean_step_seconds=mean_steps,
                mean_epoch_seconds=(sum(times) / len(times)) if times else 0.0,
            )
        )
    return tables


def format_timing_table(tables: list[TimingTable]) -> str:
    """Render Table III: one row per step, one column per table."""
    rows = []
    for step in STEP_NAMES:
        row: dict[str, object] = {"step": step}
        for table in tables:
            row[table.label] = table.step(step)
        rows.append(row)
    epoch_row: dict[str, object] = {"step": "the whole epoch"}
    for table in tables:
        epoch_row[table.label] = table.mean_epoch_seconds
    rows.append(epoch_row)
    return format_table(
        rows,
        columns=("step",) + tuple(t.label for t in tables),
        title="Table III: per-epoch time cost of operation steps (seconds)",
        float_format="{:.4f}",
    )


@dataclass(frozen=True)
class Layer:
    """Every span of one name in a run log, aggregated.

    Attributes:
        name: Span name.
        calls: Spans of that name.
        total_seconds: Sum of their durations.
        self_seconds: Sum of their self times: each span's duration minus
            the union of its direct children's intervals (clipped to the
            span), so overlapping children are not counted twice.
    """

    name: str
    calls: int
    total_seconds: float
    self_seconds: float


def layers(run: RunLog) -> list[Layer]:
    """Calls, total and self seconds of every non-step span name.

    ``step:*`` spans are Table III's (see :func:`timing_tables`); they
    still count as children when their parents' self time is taken.
    Names appear in order of their first span's start.
    """
    spans = sorted(run.spans(), key=lambda span: span["start_s"])
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals: dict[str, list] = {}
    for span in spans:
        if span["name"].startswith("step:"):
            continue
        start, duration = span["start_s"], span["dur_s"]
        end = start + duration
        # Sweep the children in start order; ``reach`` is the end of the
        # covered prefix, so overlaps are counted once.
        covered, reach = 0.0, start
        for child in children.get(span["id"], ()):
            lo = max(child["start_s"], reach)
            hi = min(child["start_s"] + child["dur_s"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += max(0.0, duration - covered)
    return [Layer(name, *entry) for name, entry in totals.items()]


def _format_layers(run: RunLog) -> str | None:
    rows = [
        {"layer": layer.name, "calls": layer.calls,
         "total_s": layer.total_seconds, "self_s": layer.self_seconds}
        for layer in layers(run)
    ]
    if not rows:
        return None
    return format_table(
        rows,
        columns=("layer", "calls", "total_s", "self_s"),
        title="Layers (seconds; self excludes direct child spans)",
        float_format="{:.4f}",
    )


def _downsample(points: list[tuple[int, float]],
                max_rows: int) -> list[tuple[int, float]]:
    """Evenly thin a curve to at most ``max_rows`` points (endpoints kept)."""
    if max_rows <= 0 or len(points) <= max_rows:
        return points
    stride = (len(points) - 1) / (max_rows - 1)
    picked = {round(i * stride) for i in range(max_rows)}
    return [p for i, p in enumerate(points) if i in picked]


#: Epoch-event fields rendered as convergence curves, in column order.
_CURVE_FIELDS = ("objective", "penalty", "meta_loss_total", "grad_norm",
                 "tracked")


def _trainer_curves(run: RunLog, trainer: str) -> dict[str, dict[int, float]]:
    curves: dict[str, dict[int, float]] = {}
    for event in run.events("epoch"):
        fields = event["fields"]
        if str(fields.get("trainer", _UNATTRIBUTED)) != trainer:
            continue
        if "epoch" not in fields:
            continue
        epoch = int(fields["epoch"])
        for name in _CURVE_FIELDS:
            if name in fields and isinstance(fields[name], (int, float)):
                curves.setdefault(name, {})[epoch] = float(fields[name])
    return curves


def _format_curves(run: RunLog, trainer: str, max_rows: int) -> str | None:
    curves = _trainer_curves(run, trainer)
    if not curves:
        return None
    columns = [name for name in _CURVE_FIELDS if name in curves]
    epochs = sorted({e for curve in curves.values() for e in curve})
    points = _downsample([(e, 0.0) for e in epochs], max_rows)
    rows = []
    for epoch, _ in points:
        row: dict[str, object] = {"epoch": epoch}
        for name in columns:
            value = curves[name].get(epoch)
            row[name] = value if value is not None else float("nan")
        rows.append(row)
    return format_table(
        rows,
        columns=("epoch",) + tuple(columns),
        title=f"Convergence of {trainer} "
              f"({len(epochs)} epochs, {len(rows)} shown)",
        float_format="{:.6f}",
    )


def _manifest_lines(run: RunLog) -> list[str]:
    manifest = run.manifest
    if manifest is None:
        return ["(no manifest record)"]
    lines = [f"run {manifest['run_id']} (schema v{manifest['schema']})"]
    fields = manifest["fields"]
    for key in ("command", "method", "seed", "git", "data"):
        if key in fields and fields[key] is not None:
            lines.append(f"  {key:8s} {fields[key]}")
    dataset = fields.get("dataset")
    if isinstance(dataset, dict):
        lines.append(
            f"  dataset  {dataset.get('n_samples')} rows x "
            f"{dataset.get('n_features')} features "
            f"(sha256 {dataset.get('sha256')})"
        )
    return lines


def _format_unix(unix: float) -> str:
    import datetime

    return datetime.datetime.fromtimestamp(
        unix, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%SZ")


def health_lines(run: RunLog) -> list[str]:
    """Summarize ``alert``/``health_transition`` events from a serving run.

    Empty when the log holds neither (training logs stay unchanged);
    otherwise counts per monitor/severity, the first/last alert
    timestamps, a per-province breakdown where alerts carried one, and
    the health-state transition path.
    """
    alerts = run.events(ALERT_EVENT)
    transitions = run.events(HEALTH_TRANSITION_EVENT)
    if not alerts and not transitions:
        return []
    lines = [f"health: {len(alerts)} alerts, "
             f"{len(transitions)} state transitions"]
    if alerts:
        stamps = [float(e["fields"]["unix"]) for e in alerts]
        lines.append(f"  first alert  {_format_unix(min(stamps))}   "
                     f"last {_format_unix(max(stamps))}")
        by_monitor: dict[tuple[str, str], int] = {}
        by_province: dict[str, int] = {}
        for event in alerts:
            fields = event["fields"]
            key = (str(fields["monitor"]), str(fields["severity"]))
            by_monitor[key] = by_monitor.get(key, 0) + 1
            if fields.get("province") is not None:
                province = str(fields["province"])
                by_province[province] = by_province.get(province, 0) + 1
        for (monitor, severity), count in sorted(by_monitor.items()):
            worst = max(
                float(e["fields"]["value"]) for e in alerts
                if e["fields"]["monitor"] == monitor
                and e["fields"]["severity"] == severity
            )
            lines.append(f"  {monitor:14s} {severity:8s} x{count}  "
                         f"worst value {worst:.4f}")
        if by_province:
            rendered = "  ".join(
                f"{name}={count}"
                for name, count in sorted(by_province.items(),
                                          key=lambda kv: -kv[1])
            )
            lines.append(f"  provinces: {rendered}")
    if transitions:
        path = [str(transitions[0]["fields"]["from_state"])]
        path += [str(e["fields"]["to_state"]) for e in transitions]
        lines.append(f"  states: {' -> '.join(path)}")
    return lines


def tune_cache_lines(run: RunLog) -> list[str]:
    """Summarize a joint search's extractor-encoding cache from its log.

    Empty when the log holds no ``tune_cache`` events (head-only and
    non-tuning logs stay unchanged); otherwise hit/miss counts, pack
    bytes published, and the encode seconds spent vs saved
    — reconstructed purely from the event stream, mirroring how the
    cache itself accounts (each hit saves one encode of its
    fingerprint's measured cost).
    """
    events = run.events(TUNE_CACHE_EVENT)
    if not events:
        return []
    counts: dict[str, int] = {}
    encode_cost: dict[str, float] = {}
    published_bytes = 0
    for event in events:
        fields = event["fields"]
        action = str(fields["action"])
        counts[action] = counts.get(action, 0) + 1
        if action == "publish":
            published_bytes += int(fields.get("nbytes", 0))
            encode_cost[str(fields["fingerprint"])] = float(
                fields.get("encode_seconds", 0.0)
            )
    hits = counts.get("hit", 0)
    misses = counts.get("miss", 0)
    lookups = hits + misses
    saved = sum(
        encode_cost.get(str(e["fields"]["fingerprint"]), 0.0)
        for e in events
        if e["fields"]["action"] == "hit"
    )
    spent = sum(encode_cost.values())
    lines = [
        f"tune cache: {hits} hits, {misses} misses"
        + (f" (hit rate {hits / lookups:.0%})" if lookups else "")
    ]
    lines.append(
        f"  encodings published {counts.get('publish', 0)} "
        f"({published_bytes / 1e6:.1f} MB)"
    )
    lines.append(
        f"  encode seconds spent {spent:.2f}, saved by reuse {saved:.2f}"
    )
    encode_spans = run.spans(TUNE_ENCODE_SPAN)
    if encode_spans:
        wall = sum(float(s["dur_s"]) for s in encode_spans)
        lines.append(
            f"  encode batches {len(encode_spans)} "
            f"({wall:.2f}s wall over the engine)"
        )
    return lines


def format_report(run: RunLog, max_curve_rows: int = 20) -> str:
    """Full rendering: manifest, Table III timings, convergence curves."""
    sections = ["\n".join(_manifest_lines(run))]
    tables = timing_tables(run)
    if tables:
        sections.append(format_timing_table(tables))
        for table in tables:
            curves = _format_curves(run, table.label, max_curve_rows)
            if curves is not None:
                sections.append(curves)
    else:
        sections.append("(no training events in this log)")
    layer_table = _format_layers(run)
    if layer_table is not None:
        sections.append(layer_table)
    cache = tune_cache_lines(run)
    if cache:
        sections.append("\n".join(cache))
    health = health_lines(run)
    if health:
        sections.append("\n".join(health))
    return "\n\n".join(sections)


def format_summary(run: RunLog) -> str:
    """Headline numbers of one run, a few lines per fit."""
    lines = _manifest_lines(run)
    lines.append(f"records  {len(run)} "
                 f"({len(run.spans())} spans, {len(run.events())} events)")
    for table in timing_tables(run):
        dominant = max(
            table.mean_step_seconds,
            key=lambda s: table.mean_step_seconds[s],
            default=None,
        )
        objective = [
            float(e["fields"]["objective"])
            for e in run.events("epoch")
            if str(e["fields"].get("trainer")) == table.label
            and "objective" in e["fields"]
        ]
        parts = [f"{table.label}: {table.n_epochs} epochs"]
        if table.mean_epoch_seconds:
            parts.append(f"{table.mean_epoch_seconds * 1e3:.2f} ms/epoch")
        if dominant and table.mean_step_seconds[dominant] > 0:
            parts.append(f"dominant step {dominant}")
        if objective:
            parts.append(
                f"objective {objective[0]:.4f} -> {objective[-1]:.4f}"
            )
        lines.append("  ".join(parts))
    lines.extend(tune_cache_lines(run))
    lines.extend(health_lines(run))
    return "\n".join(lines)


def format_diff(run_a: RunLog, run_b: RunLog,
                label_a: str = "A", label_b: str = "B") -> str:
    """Compare two runs: per-step timing ratios and final objectives.

    Fits are matched by trainer label; steps present in only one run show
    the other side as zero.
    """
    tables_a = {t.label: t for t in timing_tables(run_a)}
    tables_b = {t.label: t for t in timing_tables(run_b)}
    shared = [label for label in tables_a if label in tables_b]
    only_a = [label for label in tables_a if label not in tables_b]
    only_b = [label for label in tables_b if label not in tables_a]

    sections = []
    for label in shared:
        a, b = tables_a[label], tables_b[label]
        rows = []
        for step in STEP_NAMES + ("the whole epoch",):
            if step == "the whole epoch":
                va, vb = a.mean_epoch_seconds, b.mean_epoch_seconds
            else:
                va = a.mean_step_seconds.get(step, 0.0)
                vb = b.mean_step_seconds.get(step, 0.0)
            rows.append({
                "step": step,
                label_a: va,
                label_b: vb,
                "B/A": vb / va if va else float("inf") if vb else 1.0,
            })
        sections.append(format_table(
            rows,
            columns=("step", label_a, label_b, "B/A"),
            title=f"{label}: per-epoch step seconds ({label_a} vs {label_b})",
            float_format="{:.4f}",
        ))

        final = []
        for side, run in ((label_a, run_a), (label_b, run_b)):
            objective = [
                float(e["fields"]["objective"])
                for e in run.events("epoch")
                if str(e["fields"].get("trainer")) == label
                and "objective" in e["fields"]
            ]
            if objective:
                final.append(f"{side} final objective {objective[-1]:.6f}")
        if final:
            sections.append("  ".join(final))

    if only_a:
        sections.append(f"only in {label_a}: {', '.join(only_a)}")
    if only_b:
        sections.append(f"only in {label_b}: {', '.join(only_b)}")
    if not sections:
        sections.append("(no fits found in either run)")
    return "\n\n".join(sections)
