"""Plot-data emission: whitespace-delimited curve files plus a generic
matplotlib script that renders whatever data files sit next to it."""

from __future__ import annotations

import pathlib

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render every .dat curve file in this directory to plot.png.

Each file holds whitespace-delimited columns with a '# x-label y-label'
header; files sharing a prefix before the last '_' go on one axes.
\"\"\"
import glob
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
files = sorted(glob.glob(os.path.join(here, "*.dat")))
groups = {}
for path in files:
    stem = os.path.basename(path)[:-4]
    prefix, _, label = stem.rpartition("_")
    groups.setdefault(prefix or stem, []).append((label, path))

fig, axes = plt.subplots(1, max(len(groups), 1),
                         figsize=(6 * max(len(groups), 1), 4.5))
if len(groups) <= 1:
    axes = [axes]
for ax, (prefix, members) in zip(axes, sorted(groups.items())):
    for label, path in members:
        with open(path) as fh:
            header = fh.readline().lstrip("#").split()
        data = [[float(v) for v in line.split()]
                for line in open(path) if not line.startswith("#")]
        if not data:
            continue
        cols = list(zip(*data))
        ax.plot(cols[0], cols[1], marker="o", label=label)
        if header and len(header) >= 2:
            ax.set_xlabel(header[0])
            ax.set_ylabel(header[1])
    ax.set_title(prefix)
    ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, "plot.png"), dpi=150)
print(os.path.join(here, "plot.png"))
"""


def _write_curve(path, header_cols, rows) -> None:
    with open(path, "w") as fh:
        fh.write("# " + " ".join(header_cols) + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def emit_plot_data(rows, figure_spec: dict, out_dir) -> list:
    """Write one data file per curve of a figure spec, plus plot.py, into
    the existing directory ``out_dir``.

    Supported specs:

    * ``{"kind": "loss_vs_S"}``: ``rows`` from an opaque regime sweep
      (dicts with policy, S, loss, se); one curve per policy.
    """
    kind = figure_spec.get("kind")
    written = []
    if kind == "loss_vs_S":
        policies = []
        for row in rows:
            if row["policy"] not in policies:
                policies.append(row["policy"])
        for policy in policies:
            pts = [(r["S"], r["loss"], r.get("se", 0.0))
                   for r in rows if r["policy"] == policy]
            path = pathlib.Path(out_dir) / f"loss-vs-S_{policy}.dat"
            _write_curve(path, ("S", "loss", "se"), sorted(pts))
            written.append(path)
    else:
        raise ValueError(f"unknown figure spec kind {kind!r}")

    script = pathlib.Path(out_dir) / "plot.py"
    with open(script, "w") as fh:
        fh.write(_PLOT_SCRIPT)
    written.append(script)
    return written
