"""Artifact writers shared by the layers and the CLI:

- write_csv: a schema-tagged CSV, row by row (the energy series, the
  residual-scaling and stiff-limit tables);
- write_snapshots_csv: a schema-tagged CSV, column-wise per snapshot (the
  lattice trajectory);
- write_npy_record: named float64 arrays as one lossless .npy record (the
  PDE field history, the travelling-wave profile, the perturbative orders);
- write_json: key-sorted JSON (summaries and reports).
"""
from __future__ import annotations

import json

import numpy as np


def write_csv(path, schema, header, rows):
    """Write `# schema: <schema>`, the header, then each row as it comes.

    A row is a tuple of Python numbers or strings, written with %s, which is
    repr for floats, so reading a file back gives the values bit for bit.
    Convert numpy scalars first (tolist or float): their str is not repr.
    """
    line = ",".join(["%s"] * len(header.split(","))) + "\n"
    with open(path, "w") as f:
        f.write(f"# schema: {schema}\n{header}\n")
        f.writelines(line % row for row in rows)


def write_snapshots_csv(path, schema, header, snapshots):
    """Write `# schema: <schema>`, the header, then one block per snapshot.

    A snapshot is (t, keys, *columns): row k of its block reads t, keys[k]
    and then element k of each column. keys are strings; t and the columns
    are written as repr of Python floats, the same bytes as write_csv. The
    columns of a snapshot share one length; _snapshot_rows formats each
    distinct value once. Each block goes out in one write, so only one
    snapshot's text is held at a time.
    """
    with open(path, "w") as f:
        f.write(f"# schema: {schema}\n{header}\n")
        for t, keys, *columns in snapshots:
            lead = f"{float(t)!r},"
            f.write("".join([lead + row + "\n"
                             for row in _snapshot_rows(keys, columns)]))


def _snapshot_rows(keys, columns):
    """keys[k] and the repr of element k of each column, joined by commas,
    for every row k. repr depends only on a float's bits, so each distinct
    float64 bit pattern is formatted once (np.unique of the bits, which
    keeps 0.0 and -0.0 and NaN payloads apart) and its text gathered back
    to every place it occurs; the gathered text is freed on return."""
    bits = np.array(columns, dtype=np.float64).view(np.uint64)
    unique, inverse = np.unique(bits.ravel(), return_inverse=True)
    text = np.array(list(map(repr, unique.view(np.float64).tolist())),
                    dtype=object)[inverse].reshape(bits.shape)
    return list(map(",".join, zip(keys, *text.tolist())))


def write_npy_record(path, fields):
    """Write named float64 fields as one .npy file (NumPy NEP 1 format).

    The file holds a 0-d structured record of little-endian float64 fields,
    one per entry of `fields` (name -> value), in the mapping's order. A
    value is an array, stored with its shape, or a list of k equal-shape
    rows, stacked in place into a (k, *row shape) field: k scalars make a
    (k,) field, k arrays of n values a (k, n) one. It loads with
    np.load(path, allow_pickle=False), and np.load(path)[name] is the field
    bit for bit (row j of a stacked field is row j). One np.save of a
    record, not np.savez, whose zip members carry the wall-clock time:
    reruns are byte-identical.
    """
    record = np.zeros((), [(name, "<f8", (len(value), *np.shape(value[0]))
                            if isinstance(value, list) else np.shape(value))
                           for name, value in fields.items()])
    for name, value in fields.items():
        if isinstance(value, list):  # straight into the record, no copy
            np.stack(value, out=record[name])
        else:
            record[name] = value
    with open(path, "wb") as f:
        np.save(f, record, allow_pickle=False)


def _py(obj):
    """Coerce numpy scalars/arrays to plain Python for json.dump."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_py(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return int(obj) if isinstance(obj, (np.integer, int)) else obj


def write_json(payload, path):
    """Indented, key-sorted JSON of payload (numpy values made plain)."""
    with open(path, "w") as f:
        json.dump(_py(payload), f, indent=2, sort_keys=True)
        f.write("\n")
