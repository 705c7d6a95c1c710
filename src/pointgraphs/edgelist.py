"""Edge-list text format.

Layout: a header comment naming the window, optional family and
fingerprint comments, one ``v`` line per vertex and one ``e`` line per
edge (endpoint indices, smaller first).  Real numbers are written with 17
significant digits so the decimal round-trip is bit-exact.
"""

from __future__ import annotations

import io

from .pairs import Graph, make_graph
from .windows import Window, WindowKind, make_window


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
    for i, j in sorted(graph.edges):
        fh.write(f"e {i} {j}\n")


def dumps_graph(graph: Graph) -> str:
    buf = io.StringIO()
    write_graph(graph, buf)
    return buf.getvalue()


def read_graph(fh) -> Graph:
    window = None
    family = None
    fingerprint = None
    vertices = []
    latents = []
    edges = set()
    edge_lines = 0
    for raw in fh:
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
            _, i, j = line.split()
            i, j = int(i), int(j)
            edges.add((i, j) if i < j else (j, i))
            edge_lines += 1
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if window is None:
        raise ValueError("missing #window header")
    if len(edges) != edge_lines:
        raise ValueError("an edge is listed more than once")
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
