"""Independent reference computations for the benchmark's output checks.

Nothing here imports the program under test: the AC solver is a plain
dense modified-nodal-analysis (MNA) build written from the textbook
stamps, and the polyline distance is a direct clamped projection. The
benchmark compares the program's dictionaries and diagnoses against
these, so a fault shared by the program's engine and its classifier
cannot hide behind agreement between the two.

Netlists are lists of tuples, one per element:

* ``("R" | "C" | "L", name, node_a, node_b, value)``
* ``("V", name, node_pos, node_neg, ac_magnitude, ac_phase_deg)``
* ``("OPAMP", name, in_pos, in_neg, output)`` -- ideal op-amp (nullor)

Node ``"0"`` is ground.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

GROUND = "0"
Element = Tuple


def _node_index(elements: Sequence[Element]) -> Dict[str, int]:
    nodes: Dict[str, int] = {}
    for element in elements:
        kind = element[0]
        terminals = element[2:5] if kind == "OPAMP" else element[2:4]
        for node in terminals:
            if node != GROUND and node not in nodes:
                nodes[node] = len(nodes)
    return nodes


def ac_transfer(elements: Sequence[Element], output_node: str,
                source_name: str, freqs_hz: Sequence[float]) -> np.ndarray:
    """Complex transfer ``V(output) / phasor(source)`` at each frequency.

    Every voltage source drives its own AC phasor (SPICE ``.AC``
    semantics); the result is normalised by the named source's phasor.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0 or np.any(freqs <= 0.0):
        raise ValueError("freqs_hz must be a non-empty 1-D array of "
                         "positive frequencies")
    nodes = _node_index(elements)
    n_nodes = len(nodes)
    branches = [element for element in elements
                if element[0] in ("V", "OPAMP")]
    dim = n_nodes + len(branches)
    s = 2j * math.pi * freqs                             # (F,)
    matrix = np.zeros((freqs.size, dim, dim), dtype=complex)
    rhs = np.zeros((freqs.size, dim), dtype=complex)
    stimulus = None

    def stamp_admittance(a: str, b: str, admittance: np.ndarray) -> None:
        ia, ib = nodes.get(a), nodes.get(b)
        if ia is not None:
            matrix[:, ia, ia] += admittance
        if ib is not None:
            matrix[:, ib, ib] += admittance
        if ia is not None and ib is not None:
            matrix[:, ia, ib] -= admittance
            matrix[:, ib, ia] -= admittance

    branch = n_nodes
    for element in elements:
        kind, name = element[0], element[1]
        if kind == "R":
            stamp_admittance(element[2], element[3],
                             np.full(freqs.size, 1.0 / element[4]))
        elif kind == "C":
            stamp_admittance(element[2], element[3], s * element[4])
        elif kind == "L":
            stamp_admittance(element[2], element[3], 1.0 / (s * element[4]))
        elif kind == "V":
            pos, neg = nodes.get(element[2]), nodes.get(element[3])
            if pos is not None:
                matrix[:, pos, branch] += 1.0
                matrix[:, branch, pos] += 1.0
            if neg is not None:
                matrix[:, neg, branch] -= 1.0
                matrix[:, branch, neg] -= 1.0
            phasor = element[4] * complex(
                math.cos(math.radians(element[5])),
                math.sin(math.radians(element[5])))
            rhs[:, branch] = phasor
            if name == source_name:
                stimulus = phasor
            branch += 1
        elif kind == "OPAMP":
            in_pos, in_neg = nodes.get(element[2]), nodes.get(element[3])
            out = nodes.get(element[4])
            # Output current is a free unknown entering the output node;
            # the branch row forces V(in+) == V(in-).
            if out is not None:
                matrix[:, out, branch] -= 1.0
            if in_pos is not None:
                matrix[:, branch, in_pos] += 1.0
            if in_neg is not None:
                matrix[:, branch, in_neg] -= 1.0
            branch += 1
        else:
            raise ValueError(f"unsupported element kind {kind!r} ({name})")
    if stimulus is None or stimulus == 0:
        raise ValueError(f"no AC stimulus on source {source_name!r}")
    solution = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
    if output_node == GROUND:
        return np.zeros(freqs.size, dtype=complex)
    return solution[:, nodes[output_node]] / stimulus


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """``20 log10 |values|``."""
    return 20.0 * np.log10(np.abs(values))


def scaled(elements: Sequence[Element], name: str,
           factor: float) -> List[Element]:
    """Copy of ``elements`` with one R/C/L value multiplied by
    ``factor`` (a parametric fault of deviation ``factor - 1``)."""
    out: List[Element] = []
    found = False
    for element in elements:
        if element[1] == name:
            if element[0] not in ("R", "C", "L"):
                raise ValueError(f"{name} is not a passive element")
            element = element[:4] + (element[4] * factor,)
            found = True
        out.append(element)
    if not found:
        raise ValueError(f"no element named {name!r}")
    return out


def point_polyline_distance(point: Sequence[float],
                            vertices: Sequence[Sequence[float]]) -> float:
    """Euclidean distance from ``point`` to the polyline through
    ``vertices`` (each segment clamped at its ends)."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != p.size:
        raise ValueError("vertices must be an (n, d) array matching the "
                         "point's dimension")
    if v.shape[0] == 1:
        return float(np.linalg.norm(p - v[0]))
    starts, ends = v[:-1], v[1:]
    direction = ends - starts
    length_sq = np.einsum("ij,ij->i", direction, direction)
    offset = p[None, :] - starts
    t = np.divide(np.einsum("ij,ij->i", offset, direction), length_sq,
                  out=np.zeros_like(length_sq), where=length_sq > 0.0)
    nearest = starts + np.clip(t, 0.0, 1.0)[:, None] * direction
    return float(np.min(np.linalg.norm(p[None, :] - nearest, axis=1)))
