"""Self-contained HTML dashboard rendered from a trace JSONL.

``render_dashboard`` turns a recorded event stream (the experiments
CLI's ``--trace`` output, or any :func:`repro.obs.write_jsonl` file)
into one static HTML page with zero external dependencies — no CDN, no
JavaScript framework; interactivity is native ``<details>`` drill-down
and SVG/``title`` hover tooltips, so the file works offline and inside
CI artifact viewers.

Sections (each degrades to an empty-state note when its events are
absent from the trace):

* headline stat tiles — makespan, placements, processors, utilization;
* a processor-utilization heatmap (rows = processors, columns = time
  bins, sequential single-hue ramp), built from ``sim_task`` events
  when the trace holds a replay, else from ``task_placed`` events;
* per-processor makespan attribution (compute / redistribution / idle
  stacked bars mirroring :func:`repro.schedule.attribution
  .attribute_makespan`), with the numeric table alongside;
* the regret list — the placements whose second-best alternative was
  closest (from ``placement_decision`` events, i.e. ``--explain``);
* decision provenance drill-down, grouped by the decisions' ``run``
  label: every candidate hole the LoCBS scan probed, its outcome, and
  its finish margin against the winner.

CLI: ``python -m repro.obs dashboard trace.jsonl dashboard.html``.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.obs import events as ev_types
from repro.obs.events import TraceEvent
from repro.schedulers.provenance import WON, PlacementDecision, rank_regrets

__all__ = ["render_dashboard", "write_dashboard"]

#: sequential blue ramp, steps 100..700 (light -> dark); the dark theme
#: reverses it so near-zero recedes toward the dark surface
_SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: display caps — each one is announced in the rendered page, never silent
_MAX_REGRET_ROWS = 15
_MAX_DECISIONS_PER_RUN = 150
_MAX_CANDIDATE_ROWS = 120
_HEATMAP_BINS = 48


def _esc(x: Any) -> str:
    return html.escape(str(x), quote=True)


def _fmt(x: float, nd: int = 4) -> str:
    """Compact numeric label: trims trailing zeros, handles inf."""
    if x != x or math.isinf(x):  # NaN / inf
        return "∞" if x > 0 else str(x)
    return f"{x:.{nd}g}"


def _procs(procs: Sequence[int]) -> str:
    return "{" + ",".join(str(p) for p in procs) + "}" if procs else "—"


# ---------------------------------------------------------------------------
# event extraction
# ---------------------------------------------------------------------------


class _Row:
    """One placed/executed task interval on a processor set."""

    __slots__ = ("task", "processors", "start", "exec_start", "finish")

    def __init__(
        self,
        task: str,
        processors: Tuple[int, ...],
        start: float,
        exec_start: float,
        finish: float,
    ) -> None:
        self.task = task
        self.processors = processors
        self.start = start
        self.exec_start = exec_start
        self.finish = finish


def _row_from_fields(f: Mapping[str, Any]) -> _Row:
    start = float(f.get("start", 0.0))
    return _Row(
        task=str(f.get("task", "?")),
        processors=tuple(int(p) for p in f.get("processors", ())),
        start=start,
        exec_start=float(f.get("exec_start", start)),
        finish=float(f.get("finish", start)),
    )


def _extract_rows(
    events: Sequence[TraceEvent],
) -> Tuple[List[_Row], str]:
    """Task intervals and their source, best first.

    Preference order: realized ``sim_task`` spans; then the winning
    probes of ``placement_decision`` events (the *committed* schedule —
    the explaining pass records exactly it); last, ``task_placed``
    events deduplicated to the final placement per task, because the
    look-ahead emits one ``task_placed`` per trial LoCBS pass and
    overlaying every pass would fabricate utilization.
    """
    sim = [
        _row_from_fields(ev.fields)
        for ev in events
        if ev.name == ev_types.SIM_TASK
    ]
    if sim:
        return sim, "replay (sim_task events)"
    winners: List[_Row] = []
    for ev in events:
        if ev.name != ev_types.PLACEMENT_DECISION:
            continue
        d = PlacementDecision.from_dict(ev.fields)
        if 0 <= d.winner < len(d.candidates):
            w = d.placement
            winners.append(
                _Row(d.task, w.processors, w.start, w.exec_start, w.finish)
            )
    if winners:
        return winners, "committed schedule (placement_decision winners)"
    last: Dict[str, _Row] = {}
    for ev in events:
        if ev.name == ev_types.TASK_PLACED:
            row = _row_from_fields(ev.fields)
            last[row.task] = row
    if last:
        return (
            list(last.values()),
            "planned (last task_placed per task; look-ahead passes "
            "collapsed)",
        )
    return [], ""


def _extract_decisions(
    events: Sequence[TraceEvent],
) -> List[PlacementDecision]:
    return [
        PlacementDecision.from_dict(ev.fields)
        for ev in events
        if ev.name == ev_types.PLACEMENT_DECISION
    ]


# ---------------------------------------------------------------------------
# derived data
# ---------------------------------------------------------------------------


def _attribution(
    rows: Sequence[_Row],
) -> Tuple[float, List[Tuple[int, float, float, float]]]:
    """(makespan, [(proc, compute, redistribution, idle), ...])."""
    makespan = max((r.finish for r in rows), default=0.0)
    compute: Dict[int, float] = {}
    redist: Dict[int, float] = {}
    for r in rows:
        for p in r.processors:
            compute[p] = compute.get(p, 0.0) + (r.finish - r.exec_start)
            redist[p] = redist.get(p, 0.0) + (r.exec_start - r.start)
    out = []
    for p in sorted(set(compute) | set(redist)):
        c = compute.get(p, 0.0)
        d = redist.get(p, 0.0)
        out.append((p, c, d, max(0.0, makespan - c - d)))
    return makespan, out


def _heatmap_grid(
    rows: Sequence[_Row], makespan: float, bins: int = _HEATMAP_BINS
) -> Tuple[List[int], Dict[int, List[float]]]:
    """Busy fraction per (processor, time bin) in [0, 1]."""
    procs = sorted({p for r in rows for p in r.processors})
    grid: Dict[int, List[float]] = {p: [0.0] * bins for p in procs}
    if makespan <= 0.0 or not procs:
        return procs, grid
    width = makespan / bins
    for r in rows:
        if r.finish <= r.start:
            continue
        lo = max(0, min(bins - 1, int(r.start / width)))
        hi = max(0, min(bins - 1, int((r.finish - 1e-12) / width)))
        for b in range(lo, hi + 1):
            b_start, b_end = b * width, (b + 1) * width
            overlap = min(r.finish, b_end) - max(r.start, b_start)
            if overlap <= 0.0:
                continue
            frac = overlap / width
            for p in r.processors:
                grid[p][b] = min(1.0, grid[p][b] + frac)
    return procs, grid


# ---------------------------------------------------------------------------
# section renderers (each returns an HTML fragment)
# ---------------------------------------------------------------------------


def _tile(label: str, value: str, hint: str = "") -> str:
    hint_html = f'<div class="hint">{_esc(hint)}</div>' if hint else ""
    return (
        '<div class="tile"><div class="tile-label">'
        f"{_esc(label)}</div><div class=\"tile-value\">{_esc(value)}</div>"
        f"{hint_html}</div>"
    )


def _render_tiles(
    events: Sequence[TraceEvent],
    rows: Sequence[_Row],
    decisions: Sequence[PlacementDecision],
    makespan: float,
    attribution: Sequence[Tuple[int, float, float, float]],
) -> str:
    tiles = [_tile("Trace events", str(len(events)))]
    if rows:
        num_procs = len({p for r in rows for p in r.processors})
        busy = sum(c + d for _, c, d, _ in attribution)
        total = num_procs * makespan
        tiles.append(_tile("Makespan", _fmt(makespan, 6), "time units"))
        tiles.append(_tile("Tasks", str(len(rows))))
        tiles.append(_tile("Processors", str(num_procs)))
        tiles.append(
            _tile(
                "Utilization",
                f"{busy / total:.1%}" if total > 0 else "n/a",
                "busy / (P × makespan)",
            )
        )
    if decisions:
        contested = sum(
            1 for d in decisions if d.regret != float("inf")
        )
        tiles.append(
            _tile(
                "Decisions",
                str(len(decisions)),
                f"{contested} contested",
            )
        )
    hits = sum(1 for ev in events if ev.name == ev_types.CACHE_HIT)
    misses = sum(1 for ev in events if ev.name == ev_types.CACHE_MISS)
    if hits or misses:
        warm = sum(
            1
            for ev in events
            if ev.name == ev_types.CACHE_WARM_START
            and ev.fields.get("adopted")
        )
        hint = f"{hits} hits / {misses} misses"
        if warm:
            hint += f", {warm} warm starts"
        tiles.append(
            _tile(
                "Cache hit rate",
                f"{hits / (hits + misses):.1%}",
                hint,
            )
        )
    considered = bound = dom = 0
    for ev in events:
        if ev.name == ev_types.PRUNE_STATS:
            considered += int(ev.fields.get("considered", 0))
            bound += int(ev.fields.get("bound_pruned", 0))
            dom += int(ev.fields.get("dominance_pruned", 0))
    pruned = bound + dom
    if considered or pruned:
        tiles.append(
            _tile(
                "Probe prune rate",
                f"{pruned / (considered + pruned):.1%}",
                f"{considered} considered, {bound} bound, {dom} dominance",
            )
        )
    online_latencies = []
    max_depth = 0
    for ev in events:
        if ev.name == ev_types.ONLINE_EVENT:
            online_latencies.append(float(ev.fields.get("latency_s", 0.0)))
            max_depth = max(max_depth, int(ev.fields.get("queue_depth", 0)))
    if online_latencies:
        ordered = sorted(online_latencies)
        rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
        p95 = ordered[min(rank, len(ordered) - 1)]
        placed = sum(1 for ev in events if ev.name == ev_types.JOB_PLACED)
        rejected = sum(1 for ev in events if ev.name == ev_types.JOB_REJECTED)
        tiles.append(
            _tile(
                "Online p95 latency",
                f"{p95 * 1e3:.2f} ms",
                f"{len(online_latencies)} events, {placed} placed, "
                f"{rejected} rejected, max queue depth {max_depth}",
            )
        )
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _render_heatmap(
    rows: Sequence[_Row], makespan: float, source: str
) -> str:
    if not rows or makespan <= 0.0:
        return (
            '<p class="empty">No task intervals in this trace — run with '
            "<code>--trace</code> (and optionally replay) to record "
            "them.</p>"
        )
    procs, grid = _heatmap_grid(rows, makespan)
    bins = _HEATMAP_BINS
    label_w, cell_w = 44, 16
    cell_h = 18 if len(procs) <= 16 else (12 if len(procs) <= 32 else 8)
    plot_w, plot_h = bins * cell_w, len(procs) * cell_h
    svg_w, svg_h = label_w + plot_w + 8, plot_h + 26
    parts = [
        f'<svg class="heatmap" width="{svg_w}" height="{svg_h}" '
        f'viewBox="0 0 {svg_w} {svg_h}" role="img" '
        'aria-label="processor utilization heatmap">'
    ]
    label_every = 1 if len(procs) <= 16 else (4 if len(procs) <= 48 else 8)
    width = makespan / bins
    for i, p in enumerate(procs):
        y = i * cell_h
        if i % label_every == 0:
            parts.append(
                f'<text class="ax" x="{label_w - 6}" '
                f'y="{y + cell_h / 2 + 3:.0f}" text-anchor="end">'
                f"P{p}</text>"
            )
        for b in range(bins):
            frac = grid[p][b]
            if frac <= 0.0:
                cls = "q-"
            else:
                cls = f"q{min(len(_SEQ_RAMP) - 1, int(frac * len(_SEQ_RAMP)))}"
            t0, t1 = b * width, (b + 1) * width
            parts.append(
                f'<rect class="hm {cls}" x="{label_w + b * cell_w}" '
                f'y="{y}" width="{cell_w - 1}" height="{cell_h - 1}">'
                f"<title>P{p}, t {_fmt(t0)}–{_fmt(t1)}: "
                f"{frac:.0%} busy</title></rect>"
            )
    for frac_t, anchor in ((0.0, "start"), (0.5, "middle"), (1.0, "end")):
        x = label_w + frac_t * plot_w
        parts.append(
            f'<text class="ax" x="{x:.0f}" y="{plot_h + 16}" '
            f'text-anchor="{anchor}">t={_fmt(frac_t * makespan, 5)}</text>'
        )
    parts.append("</svg>")
    legend = (
        '<div class="seq-legend"><span class="ax-label">idle</span>'
        + "".join(
            f'<span class="sw q{i}"></span>'
            for i in range(len(_SEQ_RAMP))
        )
        + '<span class="ax-label">100% busy</span></div>'
    )
    return (
        f'<p class="subtitle">source: {_esc(source)}; '
        f"{bins} time bins</p>{''.join(parts)}{legend}"
    )


def _render_attribution(
    attribution: Sequence[Tuple[int, float, float, float]], makespan: float
) -> str:
    if not attribution or makespan <= 0.0:
        return '<p class="empty">No task intervals to attribute.</p>'
    legend = (
        '<div class="legend">'
        '<span><span class="sw s1"></span>compute</span>'
        '<span><span class="sw s2"></span>redistribution</span>'
        '<span><span class="sw s3"></span>idle</span></div>'
    )
    bars = []
    for p, c, d, i in attribution:
        segs = []
        for cls, val, label in (
            ("s1", c, "compute"),
            ("s2", d, "redistribution"),
            ("s3", i, "idle"),
        ):
            pct = 100.0 * val / makespan
            if pct <= 0.0:
                continue
            segs.append(
                f'<div class="seg {cls}" style="width:{pct:.3f}%">'
                f"<span class=\"tip\">P{p} {label}: {_fmt(val, 5)} "
                f"({pct:.1f}%)</span></div>"
            )
        busy_pct = 100.0 * (c + d) / makespan
        bars.append(
            f'<div class="bar-row"><span class="bar-label">P{p}</span>'
            f'<div class="bar">{"".join(segs)}</div>'
            f'<span class="bar-val">{busy_pct:.1f}%</span></div>'
        )
    table_rows = "".join(
        f"<tr><td>P{p}</td><td>{_fmt(c, 6)}</td><td>{_fmt(d, 6)}</td>"
        f"<td>{_fmt(i, 6)}</td><td>{(c + d) / makespan:.1%}</td></tr>"
        for p, c, d, i in attribution
    )
    table = (
        "<details><summary>Table view</summary>"
        '<table class="num"><thead><tr><th>proc</th><th>compute</th>'
        "<th>redistribution</th><th>idle</th><th>busy</th></tr></thead>"
        f"<tbody>{table_rows}</tbody></table></details>"
    )
    return (
        '<p class="subtitle">each bar spans one makespan; the right-hand '
        "number is the processor's busy share</p>"
        f"{legend}<div class=\"bars\">{''.join(bars)}</div>{table}"
    )


def _render_regret(decisions: Sequence[PlacementDecision]) -> str:
    if not decisions:
        return (
            '<p class="empty">No <code>placement_decision</code> events — '
            "re-run with <code>--explain --trace</code> to record "
            "provenance.</p>"
        )
    ranked = rank_regrets(decisions, _MAX_REGRET_ROWS)
    contested = sum(1 for d in decisions if d.regret != float("inf"))
    if not ranked:
        return (
            '<p class="empty">All decisions were forced (no feasible '
            "alternative hole existed), so the regret list is empty.</p>"
        )
    rows = []
    for d in ranked:
        w = d.placement
        ru = d.runner_up
        rows.append(
            f"<tr><td>{_esc(d.task)}</td><td>{_esc(d.run or '—')}</td>"
            f"<td>{d.width}</td><td>{_esc(_procs(w.processors))}</td>"
            f"<td>{_fmt(w.start, 6)}</td><td>{_fmt(w.finish, 6)}</td>"
            f"<td>{_fmt(d.regret, 5)}</td>"
            f"<td>{_esc(_procs(ru.processors) if ru else '—')}</td></tr>"
        )
    cap_note = (
        f"top {len(ranked)} of {contested} contested decisions "
        f"({len(decisions) - contested} forced decisions excluded)"
    )
    return (
        f'<p class="subtitle">{_esc(cap_note)} — smallest regret first: '
        "these placements would flip under the smallest cost-model or "
        "bandwidth change</p>"
        '<table class="num"><thead><tr><th>task</th><th>run</th>'
        "<th>width</th><th>placed on</th><th>start</th><th>finish</th>"
        "<th>regret</th><th>runner-up procs</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _render_decision(d: PlacementDecision) -> str:
    w = d.placement if 0 <= d.winner < len(d.candidates) else None
    summary = (
        f"<code>{_esc(d.task)}</code> × {d.width} → "
        f"{_esc(_procs(w.processors) if w else '?')} "
        f"[{_fmt(w.start, 5) if w else '?'}, "
        f"{_fmt(w.finish, 5) if w else '?'}] · "
        f"regret {_fmt(d.regret, 4)} · "
        f"{len(d.candidates)} candidates ({d.pruned} beyond prune bound)"
    )
    shown = d.candidates[:_MAX_CANDIDATE_ROWS]
    rows = []
    for idx, c in enumerate(shown):
        won = c.outcome == WON
        mark = "✓ " if won else ""
        rows.append(
            f'<tr class="{"won" if won else ""}">'
            f"<td>{idx}</td><td>{_fmt(c.tau, 5)}</td>"
            f"<td>{mark}{_esc(c.outcome)}</td>"
            f"<td>{_esc(_procs(c.processors))}</td>"
            f"<td>{_fmt(c.start, 5)}</td><td>{_fmt(c.exec_start, 5)}</td>"
            f"<td>{_fmt(c.finish, 5)}</td><td>{_fmt(c.margin, 4)}</td>"
            f"<td>{_fmt(c.resident_bytes / 1e6, 4)}</td>"
            f"<td>{_fmt(c.comm_time, 4)}</td></tr>"
        )
    cap = (
        f'<p class="subtitle">showing first {len(shown)} of '
        f"{len(d.candidates)} candidates</p>"
        if len(d.candidates) > len(shown)
        else ""
    )
    return (
        f"<details><summary>{summary}</summary>{cap}"
        '<table class="num"><thead><tr><th>#</th><th>τ</th>'
        "<th>outcome</th><th>processors</th><th>start</th>"
        "<th>exec start</th><th>finish</th><th>margin</th>"
        "<th>resident MB</th><th>comm</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


def _render_provenance(decisions: Sequence[PlacementDecision]) -> str:
    if not decisions:
        return (
            '<p class="empty">No provenance recorded — re-run with '
            "<code>--explain --trace</code>.</p>"
        )
    by_run: Dict[str, List[PlacementDecision]] = {}
    for d in decisions:
        by_run.setdefault(d.run or "(unlabeled run)", []).append(d)
    sections = []
    for run in sorted(by_run):
        ds = by_run[run]
        shown = ds[:_MAX_DECISIONS_PER_RUN]
        cap = (
            f'<p class="subtitle">showing first {len(shown)} of '
            f"{len(ds)} decisions</p>"
            if len(ds) > len(shown)
            else ""
        )
        body = "".join(_render_decision(d) for d in shown)
        sections.append(
            f"<details><summary><strong>{_esc(run)}</strong> — "
            f"{len(ds)} decisions</summary>{cap}{body}</details>"
        )
    return (
        '<p class="subtitle">✓ marks the winning probe (the committed '
        "placement); margin is how much later a candidate would have "
        "finished</p>" + "".join(sections)
    )


# ---------------------------------------------------------------------------
# page assembly
# ---------------------------------------------------------------------------


def _css() -> str:
    seq_light = "\n".join(
        f"  --seq-{i}: {hx};" for i, hx in enumerate(_SEQ_RAMP)
    )
    seq_dark = "\n".join(
        f"  --seq-{i}: {hx};" for i, hx in enumerate(reversed(_SEQ_RAMP))
    )
    seq_classes = "\n".join(
        f".hm.q{i} {{ fill: var(--seq-{i}); }} "
        f".sw.q{i} {{ background: var(--seq-{i}); }}"
        for i in range(len(_SEQ_RAMP))
    )
    dark_vars = f"""
  color-scheme: dark;
  --surface: #1a1a19; --page: #0d0d0d;
  --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
{seq_dark}"""
    return f"""
:root {{
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
{seq_light}
}}
@media (prefers-color-scheme: dark) {{
  :root:where(:not([data-theme="light"])) {{{dark_vars}
  }}
}}
:root[data-theme="dark"] {{{dark_vars}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
main {{ max-width: 960px; margin: 0 auto; }}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 15px; margin: 0 0 8px; }}
section {{
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
  overflow-x: auto;
}}
.subtitle, .hint, .ax-label {{ color: var(--ink-2); font-size: 12px; }}
.subtitle {{ margin: 0 0 10px; }}
.empty {{ color: var(--muted); }}
code {{ font-size: 12px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; }}
.tile {{
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}}
.tile-label {{ color: var(--ink-2); font-size: 12px; }}
.tile-value {{ font-size: 22px; }}
svg.heatmap text.ax {{ fill: var(--muted); font-size: 10px; }}
.hm.q- {{ fill: var(--surface); stroke: var(--grid); stroke-width: 0.5; }}
{seq_classes}
.seq-legend {{ display: flex; align-items: center; gap: 2px; margin-top: 8px; }}
.seq-legend .sw {{ width: 14px; height: 10px; display: inline-block; }}
.seq-legend .ax-label {{ margin: 0 6px; }}
.legend {{ display: flex; gap: 16px; margin-bottom: 10px; color: var(--ink-2);
  font-size: 12px; }}
.legend .sw, .legend span {{ display: inline-flex; align-items: center; gap: 6px; }}
.sw {{ width: 10px; height: 10px; border-radius: 2px; display: inline-block; }}
.sw.s1 {{ background: var(--series-1); }}
.sw.s2 {{ background: var(--series-2); }}
.sw.s3 {{ background: var(--series-3); }}
.bars {{ display: grid; gap: 4px; }}
.bar-row {{ display: flex; align-items: center; gap: 8px; }}
.bar-label {{ width: 36px; text-align: right; color: var(--muted);
  font-size: 11px; font-variant-numeric: tabular-nums; }}
.bar-val {{ width: 48px; color: var(--ink-2); font-size: 11px;
  font-variant-numeric: tabular-nums; }}
.bar {{ flex: 1; display: flex; gap: 2px; height: 14px; }}
.seg {{ position: relative; border-radius: 2px; min-width: 1px; }}
.seg:last-child {{ border-radius: 2px 4px 4px 2px; }}
.seg.s1 {{ background: var(--series-1); }}
.seg.s2 {{ background: var(--series-2); }}
.seg.s3 {{ background: var(--series-3); }}
.seg .tip {{
  display: none; position: absolute; left: 0; top: 18px; z-index: 2;
  background: var(--surface); color: var(--ink); border: 1px solid
  var(--border); border-radius: 4px; padding: 2px 8px; white-space: nowrap;
  font-size: 11px;
}}
.seg:hover .tip {{ display: block; }}
table {{ border-collapse: collapse; margin: 8px 0; font-size: 12px; }}
th {{ text-align: left; color: var(--ink-2); font-weight: 600; }}
th, td {{ padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid); }}
table.num td {{ font-variant-numeric: tabular-nums; }}
tr.won td {{ font-weight: 600; }}
details {{ margin: 6px 0; }}
summary {{ cursor: pointer; color: var(--ink); }}
summary:hover {{ color: var(--series-1); }}
footer {{ color: var(--muted); font-size: 12px; margin-top: 24px; }}
"""


def render_dashboard(
    events: Sequence[TraceEvent],
    *,
    title: str = "Schedule explainability dashboard",
) -> str:
    """Render the full dashboard page; returns the HTML as a string."""
    rows, source = _extract_rows(events)
    decisions = _extract_decisions(events)
    makespan, attribution = _attribution(rows)
    sections = [
        _render_tiles(events, rows, decisions, makespan, attribution),
        "<section><h2>Processor utilization</h2>"
        + _render_heatmap(rows, makespan, source)
        + "</section>",
        "<section><h2>Makespan attribution</h2>"
        + _render_attribution(attribution, makespan)
        + "</section>",
        "<section><h2>Regret list — closest decisions</h2>"
        + _render_regret(decisions)
        + "</section>",
        "<section><h2>Decision provenance</h2>"
        + _render_provenance(decisions)
        + "</section>",
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n<style>{_css()}</style>\n"
        "</head>\n<body>\n<main>\n"
        f"<h1>{_esc(title)}</h1>\n"
        '<p class="subtitle">static, self-contained report — rendered by '
        "<code>python -m repro.obs dashboard</code> from a trace "
        "JSONL</p>\n" + "\n".join(sections) + "\n<footer>repro.obs — "
        "locality-conscious scheduling reproduction</footer>\n"
        "</main>\n</body>\n</html>\n"
    )


def write_dashboard(
    events: Sequence[TraceEvent],
    path: Union[str, Path],
    *,
    title: str = "Schedule explainability dashboard",
) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(path)
    out.write_text(render_dashboard(events, title=title), encoding="utf-8")
    return out
