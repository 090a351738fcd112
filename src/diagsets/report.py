"""Analysis reports: stable-keyed dicts, serialized as diffable JSON.

Two runs over the same input produce byte-identical JSON except for the
``timings_ms`` values.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from time import perf_counter
from typing import Sequence

from . import __version__
from .diagonals import (
    CHAIN_N_MAX,
    DiagonalSpec,
    Evidence,
    GraphAnalysis,
    Witness,
    distinct_out_count,
)
from .graph import Graph
from .upsets import UPSet


def _evidence_dict(ev: Evidence | None) -> dict | None:
    if ev is None:
        return None
    key = "infinite_tail" if ev.infinite_tail else "walk"
    return {key: list(ev.vertices)}


class _Row(dict):
    """A witness row, keyed ``v``, ``u``, ``side``, ``evidence``: ``_encode`` fills a template."""
    __slots__ = ()  # a plain dict's size


def _witness_row(w: Witness) -> _Row:
    return _Row(v=w.against, u=w.vertex, side=w.side.value, evidence=_evidence_dict(w.evidence))


def analyze_graph(
    g: Graph,
    n_values: Sequence[int] = (),
    s_sets: Sequence[UPSet] = (),
    include_spectra: bool = False,
    seed: int | None = None,
    parse_ms: float = 0.0,
) -> dict:
    """Full analysis of one graph: sets, witnesses, spectra, chain verdict."""
    t_start = perf_counter()
    specs = [DiagonalSpec.d()]
    specs += [DiagonalSpec.dn(n) for n in dict.fromkeys(n_values)]
    specs.append(DiagonalSpec.dinf())
    s_sets = list(dict.fromkeys(s_sets))
    specs += [DiagonalSpec.ds(s) for s in s_sets]
    analysis = GraphAnalysis(g)

    t0 = perf_counter()
    battery = analysis.verify_battery(specs)
    specs_ms = (perf_counter() - t0) * 1000.0

    spectra_section = None
    spectra_ms = 0.0
    if include_spectra:
        t0 = perf_counter()
        spectra_section = [
            {
                "vertex": v,
                "t": sp.threshold,
                "d": sp.period,
                "r": sorted(sp.residues),
                "f": sorted(sp.exceptional),
                "literal": sp.literal(),
            }
            for v, sp in enumerate(analysis.spectra)
        ]
        spectra_ms = (perf_counter() - t0) * 1000.0

    t0 = perf_counter()
    chain = analysis.inclusion_chain_check(CHAIN_N_MAX, s_sets)
    chain_ms = (perf_counter() - t0) * 1000.0

    count, order = distinct_out_count(g)
    report = {
        "tool": {"name": "diagsets", "version": __version__},
        "seed": seed,
        "graph": {
            "order": order,
            "edges": g.edge_count(),
            "loops": len(g.loops()),
            "distinct_out_sets": count,
        },
        "specs": [
            {
                "spec": spec.label(),
                "set": dx.to_list(),
                "witnesses": [_witness_row(w) for w in witnesses],
            }
            for spec, dx, witnesses in battery
        ],
        "spectra": spectra_section,
        "chain": chain.to_dict(),
        "timings_ms": {
            "parse": round(parse_ms, 3),
            "specs": round(specs_ms, 3),
            "spectra": round(spectra_ms, 3),
            "chain": round(chain_ms, 3),
            "total": round((perf_counter() - t_start) * 1000.0 + parse_ms, 3),
        },
    }
    return report


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested at indent ``pad``."""
    if type(value) is _Row:  # the bytes of json.dumps(indent=2) for the row's fixed shape
        v, u, side, evidence = value.values()
        text = "null"
        if evidence is not None:  # one key, and at least one vertex
            ((key, vertices),) = evidence.items()
            body = (",\n" + pad + "      ").join(map(int.__repr__, vertices))
            text = f"{{\n{pad}    {_string(key)}: [\n{pad}      {body}\n{pad}    ]\n{pad}  }}"
        return (
            f'{{\n{pad}  "v": {v},\n{pad}  "u": {u},\n{pad}  "side": {_string(side)},'
            f'\n{pad}  "evidence": {text}\n{pad}}}'
        )
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # vertex lists, the bulk of a report
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_encode(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([_string(k) + ": " + _encode(v, inner) for k, v in value.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2)`` plus a newline, byte for byte.

    The json module falls back to its pure-Python encoder whenever it
    indents; this writer joins each container's items once and fills a
    template per witness row.  Keys must be strings, as every report key is.
    """
    return _encode(report, "") + "\n"
