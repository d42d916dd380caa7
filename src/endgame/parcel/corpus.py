"""Synthetic package corpus for the delivery model: clustered stop
locations in a planar city, log-normal unloading times, and balanced
default zones.

The generator is calibrated so that a default-sized day (T packages over
N trucks) yields per-truck unloading work of about 3.4 hours, i.e. a
per-package mean of roughly 0.041 hours.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ..streams import stream
from .clustering import cluster_default

CORPUS_FORMAT = "endgame-corpus-1"


@dataclass(frozen=True)
class GeometrySpec:
    """City layout and package-attribute parameters.

    Stop locations are drawn around ``n_zones`` cluster seeds placed
    uniformly in a disc of radius ``city_radius_km`` centered on the
    depot; each stop is Gaussian around its seed with ``cluster_sd_km``.
    Unloading times are log-normal with the given mean and log-scale
    sigma.
    """

    n_zones: int = 24
    pool_size: int = 20000
    city_radius_km: float = 15.0
    cluster_sd_km: float = 3.0
    unload_mean_hours: float = 0.041
    unload_sigma: float = 1.0
    epsilon: float = 200.0

    def __post_init__(self):
        if self.n_zones < 1 or self.pool_size < self.n_zones:
            raise ValueError("need pool_size >= n_zones >= 1")
        sizes = ("city_radius_km", "cluster_sd_km", "unload_mean_hours",
                 "unload_sigma")
        for name in sizes + ("epsilon",):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 and name in sizes:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class Corpus:
    """A package pool with zone structure.

    ``points`` is (L, 2) in km, ``unload`` (L,) in hours, ``default_zone``
    (L,) zone indices, ``centers`` (N, 2), ``depot`` (2,).
    """

    points: np.ndarray
    unload: np.ndarray
    default_zone: np.ndarray
    centers: np.ndarray
    depot: np.ndarray
    seed: int
    spec: GeometrySpec

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_zones(self) -> int:
        return len(self.centers)

    def arrival_prob(self) -> np.ndarray:
        """Empirical fraction of pool packages defaulting to each zone."""
        counts = np.bincount(self.default_zone, minlength=self.n_zones)
        return counts / len(self)


def build_corpus(spec: GeometrySpec, seed: int) -> Corpus:
    """Generate a synthetic city and assign balanced default zones.

    Deterministic per (spec, seed).  The depot sits at the origin;
    cluster seeds are uniform in the city disc; default zones come from
    k-means plus balanced reassignment (see :mod:`.clustering`).
    """
    rng = stream(seed, "corpus")
    n, L = spec.n_zones, spec.pool_size

    # cluster seeds uniform in the disc (area-uniform radius)
    radius = spec.city_radius_km * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    seeds = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])

    which = rng.integers(0, n, size=L)
    points = seeds[which] + rng.normal(0.0, spec.cluster_sd_km, size=(L, 2))

    # log-normal with the requested arithmetic mean
    sigma = spec.unload_sigma
    mu = np.log(spec.unload_mean_hours) - 0.5 * sigma * sigma
    unload = rng.lognormal(mean=mu, sigma=sigma, size=L)

    kseed = int(stream(seed, "corpus", "kmeans").integers(2**31 - 1))
    centers, assignment, _ = cluster_default(points, n, spec.epsilon, kseed)
    return Corpus(points=points, unload=unload,
                  default_zone=assignment.astype(np.int64), centers=centers,
                  depot=np.zeros(2), seed=seed, spec=spec)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus to a self-describing columnar text file."""
    buf = io.StringIO()
    buf.write(f"# format {CORPUS_FORMAT}\n")
    buf.write(f"# seed {corpus.seed}\n")
    # repr of a python float round-trips exactly
    buf.write(f"# depot {float(corpus.depot[0])!r} {float(corpus.depot[1])!r}\n")
    buf.write(f"# zones {corpus.n_zones}\n")
    buf.write(f"# spec {json.dumps(asdict(corpus.spec))}\n")
    for j, (cx, cy) in enumerate(corpus.centers):
        buf.write(f"# center {j} {float(cx)!r} {float(cy)!r}\n")
    buf.write("# columns x_km y_km unload_hours default_zone\n")
    for (x, y), u, z in zip(corpus.points, corpus.unload,
                            corpus.default_zone):
        buf.write(f"{float(x)!r} {float(y)!r} {float(u)!r} {int(z)}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_lines(path):
    """The stripped lines of a text file, one at a time; bytes that are
    not text raise ValueError naming the file."""
    with open(path) as fh:
        try:
            for line in fh:
                yield line.strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file ({exc.reason} at "
                             f"byte {exc.start})") from None


def _header_value(path, header: dict, key: str, parse):
    """``parse`` of the ``# key`` header's text; a missing header or one
    ``parse`` refuses raises ValueError naming the file."""
    if key not in header:
        raise ValueError(f"{path}: missing '# {key}' header")
    try:
        return parse(header[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: '# {key}' header {header[key]!r}: "
                         f"{exc}") from None


def _finite_pair(text: str) -> np.ndarray:
    pair = np.array([float(v) for v in text.split()])
    if pair.shape != (2,) or not np.isfinite(pair).all():
        raise ValueError("expected two finite numbers")
    return pair


def load_corpus(path) -> Corpus:
    """Read a corpus file; malformed content raises ValueError naming the
    file and, for a package or center line, the line."""
    header = {}
    centers = {}
    rows = []
    linenos = []  # of the package lines
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if not parts:
                    continue
                key = parts[0]
                rest = parts[1] if len(parts) > 1 else ""
                if key == "center":
                    j, center = rest.split(None, 1)
                    centers[int(j)] = _finite_pair(center)
                else:
                    header[key] = rest
                continue
            x, y, u, z = line.split()
            rows.append((float(x), float(y), float(u), int(z)))
            linenos.append(lineno)
        except ValueError:
            raise ValueError(
                f"{path}: malformed line {lineno}: {line!r}") from None
    if header.get("format") != CORPUS_FORMAT:
        raise ValueError(f"{path}: unrecognized corpus format tag "
                         f"{header.get('format')!r}")
    seed = _header_value(path, header, "seed", int)
    depot = _header_value(path, header, "depot", _finite_pair)
    n = _header_value(path, header, "zones", int)
    spec = _header_value(path, header, "spec",
                         lambda text: GeometrySpec(**json.loads(text)))
    for j in range(n):
        if j not in centers:
            raise ValueError(f"{path}: missing '# center {j}' line")
    if not rows:
        raise ValueError(f"{path}: no package lines")
    center_arr = np.array([centers[j] for j in range(n)])
    data = np.array(rows)
    bad = np.flatnonzero(~(np.isfinite(data[:, :3]).all(axis=1)
                           & (data[:, 2] >= 0)))
    if bad.size:
        raise ValueError(f"{path}: line {linenos[bad[0]]}: a coordinate or "
                         "the unloading time is not finite, or the "
                         "unloading time is negative")
    zone = data[:, 3].astype(np.int64)
    bad = np.flatnonzero((zone < 0) | (zone >= n))
    if bad.size:
        raise ValueError(
            f"{path}: line {linenos[bad[0]]}: default zone {zone[bad[0]]} "
            f"is outside [0, {n}) of a {n}-zone corpus")
    return Corpus(points=data[:, :2], unload=data[:, 2], default_zone=zone,
                  centers=center_arr, depot=depot, seed=seed, spec=spec)
