"""On-disk formats: field snapshots (text and binary), manifests, histories.

Text snapshots carry a single header line ``# nx,ny,hx,hy,t`` followed by
one comma-separated line per grid row in row-major order.  Values are
written with %.17g so a text round trip reproduces the doubles exactly.
Writers take (path, grid, values, t) and readers return (grid, values, t).

Binary snapshots are little-endian: magic ``TCF1``, u32 nx, u32 ny,
f64 hx, f64 hy, f64 t, then the node values as f64 in row-major order.
"""
import os
import struct
from pathlib import Path

import numpy as np

from .grid import Grid

_MAGIC = b"TCF1"
_HEADER = struct.Struct("<IIddd")
_FMT = "%.17g"


def write_snapshot_csv(path, grid, values, t=0.0):
    if values.shape != grid.shape:
        raise ValueError(f"{path}: values {values.shape} do not match grid {grid.shape}")
    row = ",".join([_FMT] * (grid.nx + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write("# %d,%d,%.17g,%.17g,%.17g\n" % (grid.nx, grid.ny, grid.hx, grid.hy, t))
        fh.writelines(row % tuple(r) for r in values.tolist())


def read_snapshot_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing snapshot header")
        parts = header[1:].split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: malformed snapshot header {header!r}")
        nx, ny = int(parts[0]), int(parts[1])
        hx, hy, t = (float(p) for p in parts[2:])
        rows = [
            np.array([float(v) for v in line.split(",")]) for line in fh if line.strip()
        ]
    values = np.vstack(rows)
    grid = Grid(nx, ny, hx, hy)
    if values.shape != grid.shape:
        raise ValueError(f"{path}: {values.shape} values for grid {grid.shape}")
    return grid, values, t


def write_snapshot_bin(path, grid, values, t=0.0):
    if values.shape != grid.shape:
        raise ValueError(f"{path}: values {values.shape} do not match grid {grid.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(grid.nx, grid.ny, grid.hx, grid.hy, t))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_snapshot_bin(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        nx, ny, hx, hy, t = _HEADER.unpack(header)
        count = (nx + 1) * (ny + 1)
        # the header's claim is checked against the file before it sizes a read
        if count * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated payload")
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
    grid = Grid(nx, ny, hx, hy)
    return grid, data.reshape(grid.shape).copy(), t


def read_snapshot(path):
    """Read a binary snapshot for a .bin or .tcf suffix, a text one otherwise."""
    reader = read_snapshot_bin if Path(path).suffix in (".bin", ".tcf") else read_snapshot_csv
    return reader(path)


def write_snapshots(outdir, grid, n, t, named, fmt="csv"):
    """Write level n of each (name, values) pair as {name}_{n:05d}.csv, or .tcf for bin.

    The writers are looked up by name at each call, so rebinding them reaches every snapshot.
    """
    write, ext = (write_snapshot_csv, "csv") if fmt == "csv" else (write_snapshot_bin, "tcf")
    for name, values in named:
        write(Path(outdir) / f"{name}_{n:05d}.{ext}", grid, values, t)


def write_manifest(path, entries):
    """Write a key = value manifest with deterministic ordering."""
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


HISTORY_HEADER = "iteration,cost,stationarity,step,ball_active"


def write_history(path, records):
    """Write optimizer iteration records as CSV.

    Each record is (iteration, cost, stationarity, step, ball_active).
    """
    with open(path, "w") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for it, cost, stat, step, ball in records:
            fh.write(
                "%d,%s,%s,%s,%d\n" % (it, _FMT % cost, _FMT % stat, _FMT % step, ball)
            )
