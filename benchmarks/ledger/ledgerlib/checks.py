"""Correctness checks, all run outside the timed sections.

The oracle for a served request is the library answer for the same
request (`OnexIndex` methods on an index loaded from the same
directory), rendered in the protocol's documented reply shape. The
repo's contract is bit-identity, so replies are compared field for
field with ``==`` — floats included.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.distances.dtw import dtw

DTW_TOLERANCE = 1e-9


def match_fields(match) -> dict:
    return {
        "series": match.ssid.series,
        "start": match.ssid.start,
        "length": match.ssid.length,
        "dtw": match.dtw,
        "dtw_normalized": match.dtw_normalized,
        "group": list(match.group),
    }


def library_answer(index, request: dict) -> dict:
    """The reply a correct server gives ``request`` (without the id)."""
    op = request["op"]
    normalized = bool(request.get("normalized", True))
    if op == "query":
        kwargs = {
            "length": request.get("length"),
            "k": int(request.get("k", 1)),
            "normalized": normalized,
        }
        if "queries" in request:
            results = [
                [match_fields(m) for m in index.query(np.asarray(q), **kwargs)]
                for q in request["queries"]
            ]
            return {"ok": True, "results": results}
        matches = index.query(np.asarray(request["values"]), **kwargs)
        return {"ok": True, "matches": [match_fields(m) for m in matches]}
    if op == "within":
        matches = index.within(
            np.asarray(request["values"]),
            st=request.get("st"),
            length=request.get("length"),
            normalized=normalized,
        )
        return {"ok": True, "matches": [match_fields(m) for m in matches]}
    if op == "seasonal":
        result = index.seasonal(int(request["length"]), series=request.get("series"))
        return {
            "ok": True,
            "seasonal": {
                "length": result.length,
                "series": result.series,
                "groups": [
                    {
                        "group_index": group.group_index,
                        "members": [
                            [ssid.series, ssid.start, ssid.length]
                            for ssid in group.members
                        ],
                    }
                    for group in result
                ],
            },
        }
    if op == "recommend":
        recs = index.recommend(
            degree=request.get("degree"), length=request.get("length")
        )
        return {
            "ok": True,
            "recommendations": [
                {
                    "degree": rec.degree,
                    "low": rec.low,
                    "high": None if math.isinf(rec.high) else rec.high,
                    "length": rec.length,
                }
                for rec in recs
            ],
        }
    raise ValueError(f"no oracle for op {op!r}")


class Oracle:
    """Library answers, memoized by request content (repeats are free)."""

    def __init__(self, index) -> None:
        self.index = index
        self._memo: dict[str, dict] = {}

    def expected(self, request: dict) -> dict:
        body = {key: value for key, value in request.items() if key != "id"}
        key = json.dumps(body, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = library_answer(self.index, body)
        return self._memo[key]

    def reply_is_correct(self, request: dict, reply_line: str) -> bool:
        try:
            reply = json.loads(reply_line)
        except ValueError:
            return False
        if not isinstance(reply, dict) or reply.pop("id", None) != request.get("id"):
            return False
        return reply == self.expected(request)


def reply_ok(request: dict, reply_line: str) -> bool:
    """Cheap check applied to *every* reply: parses, ok, id echoed."""
    try:
        reply = json.loads(reply_line)
    except ValueError:
        return False
    return (
        isinstance(reply, dict)
        and reply.get("ok") is True
        and reply.get("id") == request.get("id")
    )


def matches_are_sound(index, query: np.ndarray, matches, recompute: bool) -> bool:
    """Sorted by normalized DTW; optionally every ``dtw`` recomputed."""
    distances = [match.dtw_normalized for match in matches]
    if distances != sorted(distances):
        return False
    if recompute:
        for match in matches:
            values = index.dataset.subsequence(match.ssid)
            if abs(dtw(query, values, window=index.window) - match.dtw) > DTW_TOLERANCE:
                return False
    return True


def cli_rows(stdout: str) -> list[tuple[str, ...]]:
    """(ssid, DTW, DTW/2n, group) per result row of ``onex query``."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0].isdigit():
            rows.append(tuple(fields[1:]))
    return rows


def expected_cli_rows(index, query: dict, k: int) -> list[tuple[str, ...]]:
    values = index.dataset[query["series"]].subsequence(
        query["start"], query["length"]
    )
    return [
        (
            str(match.ssid),
            f"{match.dtw:.5f}",
            f"{match.dtw_normalized:.5f}",
            f"G{match.group[0]}.{match.group[1]}",
        )
        for match in index.query(values, k=k)
    ]


def digest(items: list) -> str:
    """sha256 over canonical JSON, for comparing two runs exactly."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
