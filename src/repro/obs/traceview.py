"""Merging the two halves of a traced Of↔Hf run into one timeline.

A traced ``run-split --remote --trace`` leaves two ``--log-events`` jsonl
streams behind: the client's (round trips with per-phase timings, spans,
the ``trace_sync`` clock handshake) and the server's (``server_recv``/
``server_send`` request windows, fragment executions, spans), each on its
own ``time.perf_counter`` epoch.  This module lines them up:

* :func:`merge_chrome` — one Chrome trace-event document with the client
  and server as separate process rows.  Server timestamps are shifted by
  the ``trace_sync`` offset (client_time = server_time + offset), so a
  request slice on the server row sits inside the round trip that caused
  it on the client row.  Round trips and request windows become ``X``
  (complete) events; each round trip also gets its serialize/wire/exec/
  deser slices on a phase row.
* :func:`attribution` — the latency-attribution report: per
  ``(kind, fn, label)`` round-trip group, the count, the per-phase time
  split, and exact p50/p95/p99 over the raw round-trip wall times.

``repro trace`` is the CLI face of both (docs/OBSERVABILITY.md).
"""

import json

from repro.obs.events import PHASE_FIELDS, chrome_metadata

#: process rows in the merged Chrome document
CLIENT_PID = 1
SERVER_PID = 2


def load_events(path):
    """Parse a ``--log-events`` jsonl file into a list of event dicts."""
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                raise ValueError(
                    "%s:%d: not a jsonl event line" % (path, lineno)
                )
            if not isinstance(event, dict) or "type" not in event:
                raise ValueError(
                    "%s:%d: not a flight-recorder event" % (path, lineno)
                )
            events.append(event)
    return events


def clock_offset(client_events):
    """The server→client clock shift in microseconds, from the client's
    ``trace_sync`` event; ``None`` when the run was untraced or the server
    predates the trace handshake (the merge then stays unaligned)."""
    for event in client_events:
        if event.get("type") == "trace_sync":
            offset = event.get("offset_us")
            if offset is not None:
                return float(offset)
    return None


def _args_of(event):
    return {
        k: v for k, v in event.items() if k not in ("seq", "ts_us", "type")
    }


def _complete(name, cat, ts, dur, pid, tid, args):
    return {
        "ph": "X", "name": name, "cat": cat, "ts": round(ts, 1),
        "dur": round(dur, 1), "pid": pid, "tid": tid, "args": args,
    }


def _instant(name, cat, ts, pid, tid, args):
    return {
        "ph": "i", "s": "t", "name": name, "cat": cat, "ts": round(ts, 1),
        "pid": pid, "tid": tid, "args": args,
    }


def _client_trace(events):
    """Chrome events for the client (Of) stream, pids/tids fixed."""
    trace = []
    for event in events:
        etype = event["type"]
        ts = event["ts_us"]
        if etype == "channel" and "rt_us" in event:
            # ts_us is stamped when the round trip is recorded, i.e. at
            # its end; the slice runs backwards from there
            start = ts - event["rt_us"]
            trace.append(_complete(
                "channel." + event["kind"], "channel", start,
                event["rt_us"], CLIENT_PID, 1, _args_of(event),
            ))
            cursor = start
            for field, phase in PHASE_FIELDS:
                dur = event[field]
                if dur > 0:
                    trace.append(_complete(
                        phase, "phase", cursor, dur, CLIENT_PID, 2,
                        {"cseq": event.get("cseq")},
                    ))
                cursor += dur
        elif etype == "channel":
            trace.append(_instant(
                "channel." + event["kind"], "channel", ts, CLIENT_PID, 1,
                _args_of(event),
            ))
        elif etype == "span_open":
            trace.append({
                "ph": "B", "name": event["name"], "cat": "phase", "ts": ts,
                "pid": CLIENT_PID, "tid": 3,
            })
        elif etype == "span_close":
            trace.append({
                "ph": "E", "name": event["name"], "cat": "phase", "ts": ts,
                "pid": CLIENT_PID, "tid": 3,
                "args": {"sim_ms": event["sim_ms"],
                         "wall_s": event["wall_s"]},
            })
        else:  # trace_sync and anything future
            trace.append(_instant(
                etype, etype, ts, CLIENT_PID, 1, _args_of(event),
            ))
    return trace


def _server_trace(events, offset_us):
    """Chrome events for the server (Hf) stream, shifted onto the client
    clock; ``server_recv``/``server_send`` pairs collapse into one request
    window each."""
    shift = offset_us or 0.0
    trace = []
    pending = []  # server_recv events awaiting their server_send
    for event in events:
        etype = event["type"]
        ts = event["ts_us"] + shift
        if etype == "server_recv":
            if "sub" in event:
                # coalesced batch sub-op: an instant inside the window
                trace.append(_instant(
                    "sub." + event["op"], "server", ts, SERVER_PID, 1,
                    _args_of(event),
                ))
            else:
                pending.append(event)
        elif etype == "server_send":
            recv = None
            for i in range(len(pending) - 1, -1, -1):
                if pending[i]["op"] == event["op"]:
                    recv = pending.pop(i)
                    break
            if recv is None:  # recv evicted from the bounded buffer
                trace.append(_instant(
                    "server." + event["op"], "server", ts, SERVER_PID, 1,
                    _args_of(event),
                ))
                continue
            args = _args_of(recv)
            args.update(_args_of(event))
            trace.append(_complete(
                "server." + event["op"], "server",
                recv["ts_us"] + shift, event.get("exec_us", 0.0),
                SERVER_PID, 1, args,
            ))
        elif etype == "fragment":
            # recorded when the fragment finishes; runs backwards
            wall = event.get("wall_us", 0.0)
            trace.append(_complete(
                "%s@%s" % (event["fn"], event["label"]), "fragment",
                ts - wall, wall, SERVER_PID, 2, _args_of(event),
            ))
        elif etype == "span_open":
            trace.append({
                "ph": "B", "name": event["name"], "cat": "phase", "ts": ts,
                "pid": SERVER_PID, "tid": 3,
            })
        elif etype == "span_close":
            trace.append({
                "ph": "E", "name": event["name"], "cat": "phase", "ts": ts,
                "pid": SERVER_PID, "tid": 3,
                "args": {"sim_ms": event["sim_ms"],
                         "wall_s": event["wall_s"]},
            })
        else:
            trace.append(_instant(
                etype, etype, ts, SERVER_PID, 1, _args_of(event),
            ))
    return trace


def merge_chrome(client_events, server_events=None,
                 client_name="Of (client)", server_name="Hf (server)"):
    """One Chrome/Perfetto trace document for the pair of streams.

    Server rows only appear when ``server_events`` is given; they are
    shifted onto the client clock using :func:`clock_offset` (unshifted,
    with ``aligned: false`` in ``otherData``, when no sync is present).
    """
    trace = list(chrome_metadata(
        CLIENT_PID, client_name,
        {1: "round trips", 2: "phases", 3: "spans"},
    ))
    offset = clock_offset(client_events)
    trace.extend(_client_trace(client_events))
    if server_events is not None:
        trace.extend(chrome_metadata(
            SERVER_PID, server_name,
            {1: "requests", 2: "fragments", 3: "spans"},
        ))
        trace.extend(_server_trace(server_events, offset))
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "aligned": offset is not None,
            "clock_offset_us": offset,
        },
    }


# -- attribution --------------------------------------------------------------


def _quantile(sorted_values, q):
    """Exact ``q``-quantile of a sorted sample, linear interpolation."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        position - lo
    )


def attribution(client_events):
    """The latency-attribution report for a traced client stream.

    Groups traced ``channel`` events by ``(kind, fn, label)``; each row
    carries the count, total wall time, the per-phase split, and exact
    p50/p95/p99 over the raw per-round-trip wall times (all µs).  The
    ``overall`` block adds ``coverage_pct`` — how much of the measured
    wall time the four phases explain (100.0 by construction unless the
    stream was truncated mid-event).
    """
    groups = {}
    for event in client_events:
        if event.get("type") != "channel" or "rt_us" not in event:
            continue
        key = (event["kind"], str(event.get("fn", "-")),
               str(event.get("label", "-")))
        group = groups.setdefault(key, {
            "totals": [], "phases": {name: 0.0 for _, name in PHASE_FIELDS},
        })
        group["totals"].append(event["rt_us"])
        for field, name in PHASE_FIELDS:
            group["phases"][name] += event[field]
    rows = []
    for (kind, fn, label), group in sorted(groups.items()):
        totals = sorted(group["totals"])
        rows.append({
            "kind": kind, "fn": fn, "label": label,
            "count": len(totals),
            "total_us": round(sum(totals), 1),
            "phases_us": {
                name: round(value, 1)
                for name, value in group["phases"].items()
            },
            "p50_us": round(_quantile(totals, 0.50), 1),
            "p95_us": round(_quantile(totals, 0.95), 1),
            "p99_us": round(_quantile(totals, 0.99), 1),
        })
    total = sum(row["total_us"] for row in rows)
    phase_sum = {
        name: round(sum(row["phases_us"][name] for row in rows), 1)
        for _, name in PHASE_FIELDS
    }
    explained = sum(phase_sum.values())
    return {
        "rows": rows,
        "overall": {
            "round_trips": sum(row["count"] for row in rows),
            "total_us": round(total, 1),
            "phases_us": phase_sum,
            "coverage_pct": round(100.0 * explained / total, 2)
            if total else 0.0,
        },
        "clock_offset_us": clock_offset(client_events),
    }


def render_attribution(report):
    """The text form of :func:`attribution` (``repro trace``'s default)."""
    from repro.bench.tables import Table

    table = Table(
        "Round-trip latency attribution (us)",
        ["kind", "fn", "label", "count", "total", "serialize", "wire",
         "exec", "deser", "p50", "p95", "p99"],
    )
    for row in report["rows"]:
        table.add_row(
            row["kind"], row["fn"], row["label"], row["count"],
            "%.1f" % row["total_us"],
            "%.1f" % row["phases_us"]["serialize"],
            "%.1f" % row["phases_us"]["wire"],
            "%.1f" % row["phases_us"]["exec"],
            "%.1f" % row["phases_us"]["deser"],
            "%.1f" % row["p50_us"], "%.1f" % row["p95_us"],
            "%.1f" % row["p99_us"],
        )
    overall = report["overall"]
    lines = [table.render(), ""]
    lines.append(
        "round trips: %d   wall: %.1f us   phases explain: %.2f%%"
        % (overall["round_trips"], overall["total_us"],
           overall["coverage_pct"])
    )
    offset = report.get("clock_offset_us")
    if offset is not None:
        lines.append("clock offset (server->client): %.1f us" % offset)
    else:
        lines.append("clock offset: unaligned (no trace_sync in stream)")
    return "\n".join(lines) + "\n"
