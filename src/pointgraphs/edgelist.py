"""Edge-list text format.

Layout: a header comment naming the window, optional family and
fingerprint comments (each of the three at most once, the window before
any vertex), one ``v`` line per vertex and one ``e`` line per
edge (endpoint indices, smaller first), in the graph's increasing edge
order.  The ``e`` lines come last: from
the first of them to the end of the file, every non-blank line is an
``e`` line.  Real numbers are written with 17 significant digits so the
decimal round-trip is bit-exact.

Header and ``v`` lines are read one line at a time, and the ``e`` block is
parsed in bulk, as integer columns.  Both blocks are written in bulk from
the graph's columns.
"""

from __future__ import annotations

import io
import itertools
import warnings

import numpy as np

from .pairs import Graph, make_graph
from .windows import Window, WindowKind, make_window

# v and e lines are formatted in blocks of this many, so the formatting
# temporaries (about 0.5 MiB of numbers, tuple and text for e lines) do not
# grow with the graph.
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


def write_graph(graph: Graph, fh, seed: int | None = None) -> None:
    """Write the graph's edge list to the text file ``fh``, block by block.

    A ``seed`` is recorded as a ``#seed`` comment right after the
    ``#window`` header (the CLI records the seed it sampled with); readers
    skip it, so the graph read back is the same with or without it.
    """
    header = f"#window kind={graph.window.kind.value} size={_fmt_size(graph.window)}"
    if graph.window.dim is not None:
        header += f" dim={graph.window.dim}"
    fh.write(header + "\n")
    if seed is not None:
        fh.write(f"#seed {seed}\n")
    if graph.family is not None:
        fh.write(f"#family {graph.family}\n")
    if graph.fingerprint is not None:
        fh.write(f"#fingerprint {graph.fingerprint}\n")
    table = graph.table
    columns = list(table.labels.T) if table.labels.ndim == 2 else [table.labels]
    label = " %d" if graph.window.kind is WindowKind.INTEGER_PREFIX else " %.17g"  # as fmt_real
    v_line = "v %d" + label * len(columns)
    if table.latents is not None:
        columns.append(table.latents)
        v_line += " %.17g"
    v_line += "\n"
    for lo in range(0, graph.n_vertices, _E_LINES):
        hi = min(lo + _E_LINES, graph.n_vertices)
        rows = zip(range(lo, hi), *(c[lo:hi].tolist() for c in columns))
        fh.write(v_line * (hi - lo) % tuple(itertools.chain.from_iterable(rows)))
    for lo in range(0, graph.n_edges, _E_LINES):
        block = graph.ends[lo : lo + _E_LINES]
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


def _number(parse, text: str, line: str):
    """parse(text), int or float, with a ValueError that names the line."""
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a real number"
        raise ValueError(f"{text!r} is not {kind}: {line!r}") from None


def _read_window(line: str) -> Window:
    """Parse a "#window kind=K size=S [dim=D]" header line."""
    fields = {}
    for tok in line.split()[1:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"#window token {tok!r} is not key=value: {line!r}")
        fields[key] = value
    if "kind" not in fields or "size" not in fields:
        raise ValueError(f"#window line needs kind= and size=: {line!r}")
    return make_window(
        WindowKind(fields["kind"]),
        _number(float, fields["size"], line),
        _number(int, fields["dim"], line) if "dim" in fields else None,
    )


def _header_value(line: str) -> str:
    parts = line.split(None, 1)
    if len(parts) < 2:
        raise ValueError(f"header line without a value: {line!r}")
    return parts[1]


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
            if window is not None:  # a v line needs one, so this also covers #window after v
                raise ValueError(f"repeated #window header: {line!r}")
            window = _read_window(line)
        elif line.startswith("#family"):
            if family is not None:
                raise ValueError(f"repeated #family header: {line!r}")
            family = _header_value(line)
        elif line.startswith("#fingerprint"):
            if fingerprint is not None:
                raise ValueError(f"repeated #fingerprint header: {line!r}")
            fingerprint = _header_value(line)
        elif line.startswith("#"):
            continue
        elif line.startswith("v "):
            if window is None:
                raise ValueError("v line before #window header")
            tok = line.split()
            idx = _number(int, tok[1], line)
            if idx != len(vertices):
                raise ValueError("v lines must be in index order")
            ncomp = window.dim or 1
            if len(tok) < 2 + ncomp:
                raise ValueError(f"v line has fewer than {ncomp} label components: {line!r}")
            if window.kind is WindowKind.INTEGER_PREFIX:
                label = _number(int, tok[2], line)
            elif window.kind is WindowKind.REAL_INTERVAL:
                label = _number(float, tok[2], line)
            else:
                label = tuple(_number(float, c, line) for c in tok[2 : 2 + ncomp])
            rest = tok[2 + ncomp :]
            if len(rest) > 1:
                raise ValueError(f"v line has tokens past the latent: {line!r}")
            vertices.append(label)
            latents.append(_number(float, rest[0], line) if rest else None)
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
