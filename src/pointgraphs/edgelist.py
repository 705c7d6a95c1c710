"""Edge-list text format.

Layout: a header comment naming the window, optional family and
fingerprint comments, one ``v`` line per vertex and one ``e`` line per
edge (endpoint indices, smaller first).  The ``e`` lines come last: from
the first of them to the end of the file, every non-blank line is an
``e`` line.  Real numbers are written with 17 significant digits so the
decimal round-trip is bit-exact.

Header and ``v`` lines are read and written one line at a time; the ``e``
block is parsed and formatted in bulk, as integer columns.
"""

from __future__ import annotations

import io
import itertools
import warnings

import numpy as np

from .pairs import Graph, edge_array, make_graph
from .windows import Window, WindowKind, make_window

# e lines are formatted in blocks of this many, so the formatting
# temporaries (about 0.5 MiB of ints, tuple and text) do not grow with the
# edge count.
_E_LINES = 2**12
# One e line as loadtxt reads it; a two-character tag field keeps a longer
# tag such as "ex" distinguishable from "e".
_E_LINE = np.dtype([("tag", "U2"), ("i", np.int64), ("j", np.int64)])


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_size(window: Window) -> str:
    if window.kind is WindowKind.INTEGER_PREFIX:
        return str(int(window.size))
    return fmt_real(window.size)


def write_graph(graph: Graph, fh) -> None:
    parts = [f"#window kind={graph.window.kind.value} size={_fmt_size(graph.window)}"]
    if graph.window.dim is not None:
        parts[0] += f" dim={graph.window.dim}"
    fh.write(parts[0] + "\n")
    if graph.family is not None:
        fh.write(f"#family {graph.family}\n")
    if graph.fingerprint is not None:
        fh.write(f"#fingerprint {graph.fingerprint}\n")
    for i, v in enumerate(graph.vertices):
        if graph.window.kind is WindowKind.INTEGER_PREFIX:
            label = str(v)
        elif graph.window.kind is WindowKind.REAL_INTERVAL:
            label = fmt_real(v)
        else:
            label = " ".join(fmt_real(c) for c in v)
        line = f"v {i} {label}"
        if graph.latents is not None:
            line += f" {fmt_real(graph.latents[i])}"
        fh.write(line + "\n")
    n = graph.n_vertices
    ends = edge_array([graph])
    keys = ends[:, 0] * n  # edge (i, j) sorts as i * n + j
    keys += ends[:, 1]
    del ends
    keys.sort()
    for lo in range(0, len(keys), _E_LINES):
        block = np.stack(np.divmod(keys[lo : lo + _E_LINES], n), axis=1)
        fh.write("e %d %d\n" * len(block) % tuple(block.ravel().tolist()))


def dumps_graph(graph: Graph) -> str:
    buf = io.StringIO()
    write_graph(graph, buf)
    return buf.getvalue()


def _read_edges(lines) -> np.ndarray:
    """Parse the e block, an iterable of lines each "e i j", into an (E, 2)
    int64 array in one loadtxt call.  Any parser complaint, warning
    included, is a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, dtype=_E_LINE, comments=None, ndmin=1)
        except (ValueError, Warning) as exc:
            reason = str(exc).split(";")[0]  # drop numpy's hint about usecols
            raise ValueError(
                f"malformed e line, not 'e i j' with integer i, j: {reason}"
            ) from None
    if np.any(rows["tag"] != "e"):
        raise ValueError("every line after the first e line must be an e line")
    return np.stack((rows["i"], rows["j"]), axis=1)


def read_graph(fh) -> Graph:
    window = None
    family = None
    fingerprint = None
    vertices = []
    latents = []
    edges = ()
    lines = iter(fh)
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#window"):
            fields = dict(tok.split("=", 1) for tok in line.split()[1:])
            window = make_window(
                WindowKind(fields["kind"]),
                float(fields["size"]),
                int(fields["dim"]) if "dim" in fields else None,
            )
        elif line.startswith("#family"):
            family = line.split(None, 1)[1]
        elif line.startswith("#fingerprint"):
            fingerprint = line.split(None, 1)[1]
        elif line.startswith("#"):
            continue
        elif line.startswith("v "):
            if window is None:
                raise ValueError("v line before #window header")
            tok = line.split()
            idx = int(tok[1])
            if idx != len(vertices):
                raise ValueError("v lines must be in index order")
            if window.kind is WindowKind.INTEGER_PREFIX:
                ncomp = 1
                label = int(tok[2])
            elif window.kind is WindowKind.REAL_INTERVAL:
                ncomp = 1
                label = float(tok[2])
            else:
                ncomp = window.dim
                label = tuple(float(c) for c in tok[2 : 2 + ncomp])
            rest = tok[2 + ncomp :]
            if len(rest) > 1:
                raise ValueError(f"v line has tokens past the latent: {line!r}")
            vertices.append(label)
            latents.append(float(rest[0]) if rest else None)
        elif line.startswith("e "):
            if window is None:
                raise ValueError("e line before #window header")
            edges = _read_edges(itertools.chain([raw], lines))
            break
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if window is None:
        raise ValueError("missing #window header")
    have_latents = any(l is not None for l in latents)
    if have_latents and any(l is None for l in latents):
        raise ValueError("latent annotations must cover all vertices or none")
    return make_graph(
        window,
        vertices,
        edges,
        latents if have_latents else None,
        family,
        fingerprint,
    )


def loads_graph(text: str) -> Graph:
    return read_graph(io.StringIO(text))
