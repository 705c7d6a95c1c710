"""Edge-list text format.

Layout: a header comment naming the window, optional family and
fingerprint comments (each of the three at most once, the window before
any vertex), one ``v`` line per vertex and one ``e`` line per
edge (endpoint indices, smaller first), in the graph's increasing edge
order.  The ``e`` lines come last: from
the first of them to the end of the file, every non-blank line is an
``e`` line.  Real numbers are written with 17 significant digits so the
decimal round-trip is bit-exact.

Header lines are read one line at a time.  ``v`` lines are read in blocks
of 4,096, whose tokens Python's own ``int`` and ``float`` convert field by
field into the label and latent columns, and the ``e`` block is parsed in
bulk, as integer columns.  Both blocks are written in bulk from the
graph's columns.
"""

from __future__ import annotations

import io
import itertools
import warnings

import numpy as np

from .pairs import GraphTable, make_graph
from .windows import Window, WindowKind, make_window

# v and e lines are formatted, and v lines read, in blocks of this many, so
# the temporaries (about 0.5 MiB of numbers, tuple and text for e lines) do
# not grow with the graph.
_BLOCK_LINES = 2**12
# One e line as loadtxt reads it; a two-character tag field keeps a longer
# tag such as "ex" distinguishable from "e".
_E_LINE = np.dtype([("tag", "U2"), ("i", np.int64), ("j", np.int64)])


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_size(window: Window) -> str:
    if window.kind is WindowKind.INTEGER_PREFIX:
        return str(int(window.size))
    return fmt_real(window.size)


def write_graph(graph: GraphTable, fh, seed: int | None = None) -> None:
    """Write the graph's edge list to the text file ``fh``, block by block;
    a table of several trials is written as the disjoint union of its
    trials.

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
    columns = list(graph.labels.T) if graph.labels.ndim == 2 else [graph.labels]
    label = " %d" if graph.window.kind is WindowKind.INTEGER_PREFIX else " %.17g"  # as fmt_real
    v_line = "v %d" + label * len(columns)
    if graph.latents is not None:
        columns.append(graph.latents)
        v_line += " %.17g"
    v_line += "\n"
    for lo in range(0, graph.n_vertices, _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, graph.n_vertices)
        rows = zip(range(lo, hi), *(c[lo:hi].tolist() for c in columns))
        fh.write(v_line * (hi - lo) % tuple(itertools.chain.from_iterable(rows)))
    for lo in range(0, graph.n_edges, _BLOCK_LINES):
        block = graph.ends[lo : lo + _BLOCK_LINES]
        fh.write("e %d %d\n" * len(block) % tuple(block.ravel().tolist()))


def dumps_graph(graph: GraphTable) -> str:
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
    try:
        kind, size = WindowKind(fields["kind"]), float(fields["size"])
        dim = int(fields["dim"]) if "dim" in fields else None
    except ValueError as exc:
        raise ValueError(f"malformed #window line {line!r}: {exc}") from None
    return make_window(kind, size, dim)


def _header_value(line: str) -> str:
    parts = line.split(None, 1)
    if len(parts) < 2:
        raise ValueError(f"header line without a value: {line!r}")
    return parts[1]


def _read_vertices(lines: list, window: Window, first: int, width: int):
    """The label and latent (or None) columns of stripped v lines of
    ``width`` tokens, the first of index ``first``.  Each field of a block
    of lines is converted by one map of Python's int or float, so the
    accepted syntax is theirs; only a failed block is read line by line."""
    ncomp = window.dim or 1
    integer = window.kind is WindowKind.INTEGER_PREFIX
    labels, latents = [], []
    for lo in range(0, len(lines), _BLOCK_LINES):
        block = lines[lo : lo + _BLOCK_LINES]
        rows = [line.split() for line in block]
        try:
            if set(map(len, rows)) != {width} or width not in (2 + ncomp, 3 + ncomp):
                raise ValueError(f"not 'v i', {ncomp} label(s), and a latent if v line 0 has one")
            fields = list(zip(*rows))
            if list(map(int, fields[1])) != list(range(first + lo, first + lo + len(rows))):
                raise ValueError("v lines must be in index order")
            labels.append(np.array(
                [list(map(int if integer else float, f)) for f in fields[2 : 2 + ncomp]],
                dtype=np.int64 if integer else np.float64,
            ))
            if width > 2 + ncomp:
                latents.append(np.array(list(map(float, fields[-1]))))
        except (ValueError, OverflowError) as exc:
            if len(block) == 1:
                raise ValueError(f"malformed v line {block[0]!r}: {exc}") from None
            for k, line in enumerate(block):
                _read_vertices([line], window, first + lo + k, width)  # raises for a bad line
            raise
    labels = np.concatenate(labels, axis=1)
    return (
        labels.T.copy() if window.dim else labels[0],
        np.concatenate(latents) if latents else None,
    )


def read_graph(fh) -> GraphTable:
    headers = dict.fromkeys(("#window", "#family", "#fingerprint"))  # each at most once
    v_lines = []
    edges = ()
    lines = iter(fh)
    for raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            key = next((key for key in headers if line.startswith(key)), None)
            if key is not None and headers[key] is not None:  # also a #window after a v line
                raise ValueError(f"repeated {key} header: {line!r}")
            if key is not None:
                headers[key] = _read_window(line) if key == "#window" else _header_value(line)
        elif line.startswith(("v ", "e ")) and headers["#window"] is None:
            raise ValueError(f"{line[0]} line before #window header")
        elif line.startswith("v "):
            v_lines.append(line)
        elif line.startswith("e "):
            edges = _read_edges(itertools.chain([raw], lines))
            break
        elif line:
            raise ValueError(f"unrecognized line: {line!r}")
    window, family, fingerprint = headers.values()
    if window is None:
        raise ValueError("missing #window header")
    labels, latents = (), None
    if v_lines:
        labels, latents = _read_vertices(v_lines, window, 0, len(v_lines[0].split()))
    return make_graph(window, labels, edges, latents, family, fingerprint)


def loads_graph(text: str) -> GraphTable:
    return read_graph(io.StringIO(text))
