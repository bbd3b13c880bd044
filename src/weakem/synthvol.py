"""Synthetic volumetric scans with nodules, weak labels, and dataset files.

Scans are 3D intensity grids containing Gaussian-blob nodules on a textured
background. Each scan carries full ground truth (boxes) and can additionally
carry weak labels of the kind found in radiology reports: the lung lobe and
the central slice index of each nodule, nothing else. A deterministic
six-region partition of the lung box stands in for anatomical lobes.

Datasets are stored in a single binary container (magic ``WEAKEMV1``):
an int32 header, raw float32 voxel blocks, then one JSON line of labels
per scan. ``save_dataset`` / ``load_dataset`` round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"WEAKEMV1"
LOBE_COUNT = 6

# header: h, w, s, lung lo xyz, lung hi xyz, scan count (all int32 LE)
_FIXED_HEADER = struct.Struct("<10i")


class DatasetError(Exception):
    """Base class for dataset file problems."""


class DatasetHeaderError(DatasetError):
    """Header is missing, short, or internally inconsistent."""


class DatasetVersionError(DatasetError):
    """Magic bytes do not identify a known container version."""


class DatasetPayloadError(DatasetError):
    """Voxel payload or label section is truncated or malformed."""


class GenerationError(Exception):
    """Scan generation could not satisfy the configuration."""


@dataclass(eq=False)
class Volume:
    """A 3D intensity grid plus the lung bounding box inside it.

    ``voxels`` is float32 with shape (h, w, s), indexed [x, y, z], values in
    [0, 1]. ``lung_lo`` is inclusive and ``lung_hi`` exclusive; valid voxel
    centers inside the lung region run from lo to hi - 1 per axis.
    """

    voxels: np.ndarray
    lung_lo: tuple[int, int, int]
    lung_hi: tuple[int, int, int]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.float32)
        if self.voxels.ndim != 3:
            raise ValueError("voxels must be a 3D array")
        if min(self.voxels.shape) < 8:
            raise ValueError("grid must span at least 8 voxels per axis")
        self.lung_lo = tuple(int(v) for v in self.lung_lo)
        self.lung_hi = tuple(int(v) for v in self.lung_hi)
        for axis in range(3):
            if not 0 <= self.lung_lo[axis] < self.lung_hi[axis] <= self.voxels.shape[axis]:
                raise ValueError("lung region must be a nonempty box inside the grid")
        lo = float(self.voxels.min())
        hi = float(self.voxels.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"intensities must lie in [0, 1], got [{lo}, {hi}]")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.voxels.shape

    @property
    def lung_dims(self) -> tuple[int, int, int]:
        """Extent of the lung region per axis, in voxels."""
        return tuple(h - l for l, h in zip(self.lung_lo, self.lung_hi))


@dataclass(frozen=True)
class NoduleBox:
    """Cubic nodule box: center (x, y, z) and edge length ``diameter``, in voxels."""

    x: float
    y: float
    z: float
    diameter: float

    def __post_init__(self):
        if not self.diameter > 0:
            raise ValueError("diameter must be positive")

    @property
    def center(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


@dataclass(frozen=True)
class WeakLabel:
    """Report-style annotation: lobe id (1..6) and the nodule's central slice."""

    lobe: int
    z: int

    def __post_init__(self):
        if not 1 <= self.lobe <= LOBE_COUNT:
            raise ValueError(f"lobe must be in 1..{LOBE_COUNT}")
        if self.z < 0:
            raise ValueError("central slice must be nonnegative")


@dataclass
class LabeledScan:
    """One scan with ground-truth boxes and optional weak labels.

    Weak-set scans are trained on through ``weak`` only; their ``truth`` is
    kept for generation and evaluation and must not steer training updates.
    Fully labeled scans may carry weak labels as well, because slice-noise
    estimation needs observed (reported slice, true box) pairs.
    """

    volume: Volume
    truth: list[NoduleBox]
    weak: list[WeakLabel] = field(default_factory=list)


def require_ints(name: str, *values) -> None:
    """Raise ValueError unless every value of config field ``name`` is an int."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic scan generation.

    Background is base intensity plus fine iid noise plus a smoothed clutter
    field whose bright blobs imitate vessels and scar tissue. Nodules are
    additive Gaussian bumps with spatial std diameter/4 and per-nodule
    amplitude drawn from the contrast range.
    """

    dims: tuple[int, int, int] = (32, 32, 32)
    lung_margin: int = 2
    count_min: int = 1
    count_max: int = 3
    diameter_min: float = 5.0
    diameter_max: float = 9.0
    base_intensity: float = 0.15
    noise: float = 0.04
    clutter: float = 0.10
    clutter_scale: float = 2.5
    contrast_min: float = 0.18
    contrast_max: float = 0.30
    weak_sigma: float = 1.5
    weak_mu: float = 1.63
    max_place_tries: int = 200

    def validate(self) -> None:
        dims = tuple(self.dims)
        require_ints("dims", *dims)
        for name in ("lung_margin", "count_min", "count_max", "max_place_tries"):
            require_ints(name, getattr(self, name))
        if len(dims) != 3 or min(dims) < 8:
            raise ValueError("dims must be three sizes of at least 8")
        if self.lung_margin < 0 or any(d - 2 * self.lung_margin < 4 for d in dims):
            raise ValueError("lung margin leaves no room for the lung region")
        if not 0 <= self.count_min <= self.count_max:
            raise ValueError("nodule count range is invalid")
        if not 0 < self.diameter_min <= self.diameter_max:
            raise ValueError("diameter range is invalid")
        if min(dims) - 2 * self.lung_margin <= self.diameter_max / 2:
            raise ValueError("largest nodule does not fit in the lung region")
        for name in ("base_intensity", "noise", "clutter", "contrast_min",
                     "contrast_max", "weak_sigma", "weak_mu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.contrast_min > self.contrast_max:
            raise ValueError("contrast range is invalid")
        if self.clutter_scale <= 0:
            raise ValueError("clutter_scale must be positive")
        if self.max_place_tries < 1:
            raise ValueError("max_place_tries must be at least 1")


def _center_distance(a: NoduleBox, b: NoduleBox) -> float:
    return math.dist(a.center, b.center)


def _textured_background(rng: np.random.Generator, cfg: GeneratorConfig) -> np.ndarray:
    dims = tuple(int(v) for v in cfg.dims)
    vox = np.full(dims, cfg.base_intensity, dtype=np.float64)
    vox += rng.normal(0.0, cfg.noise, size=dims) if cfg.noise > 0 else 0.0
    if cfg.clutter > 0:
        # imported here so that only scan generation loads scipy
        from scipy.ndimage import gaussian_filter
        blob = gaussian_filter(rng.standard_normal(dims), sigma=cfg.clutter_scale)
        sd = float(blob.std())
        if sd > 0:
            vox += blob * (cfg.clutter / sd)
    return vox


def _render_nodule(vox: np.ndarray, box: NoduleBox, amplitude: float) -> None:
    # additive Gaussian bump, spatial std d/4, truncated at 3 std
    sd = box.diameter / 4.0
    reach = 3.0 * sd
    lo = [max(int(math.ceil(c - reach)), 0) for c in box.center]
    hi = [min(int(math.floor(c + reach)), n - 1) for c, n in zip(box.center, vox.shape)]
    if any(l > h for l, h in zip(lo, hi)):
        return
    gx = np.arange(lo[0], hi[0] + 1, dtype=np.float64)[:, None, None]
    gy = np.arange(lo[1], hi[1] + 1, dtype=np.float64)[None, :, None]
    gz = np.arange(lo[2], hi[2] + 1, dtype=np.float64)[None, None, :]
    r2 = (gx - box.x) ** 2 + (gy - box.y) ** 2 + (gz - box.z) ** 2
    bump = amplitude * np.exp(-r2 / (2.0 * sd * sd))
    vox[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] += bump


def generate_scan(seed: int, cfg: GeneratorConfig) -> LabeledScan:
    """Generate one scan deterministically from (seed, cfg).

    Nodule centers are uniform inside the lung region, pairwise separated by
    more than the sum of their radii; placement retries are bounded by
    ``cfg.max_place_tries`` and exhaustion raises GenerationError. The
    returned scan has ground truth only; see ``attach_weak_labels``.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    vox = _textured_background(rng, cfg)
    lo = (cfg.lung_margin,) * 3
    hi = tuple(int(d) - cfg.lung_margin for d in cfg.dims)
    count = int(rng.integers(cfg.count_min, cfg.count_max + 1))
    boxes: list[NoduleBox] = []
    tries = 0
    while len(boxes) < count:
        d = float(rng.uniform(cfg.diameter_min, cfg.diameter_max))
        center = [float(rng.uniform(lo[a], hi[a] - 1)) for a in range(3)]
        candidate = NoduleBox(center[0], center[1], center[2], d)
        if all(_center_distance(candidate, b) > candidate.radius + b.radius for b in boxes):
            boxes.append(candidate)
            continue
        tries += 1
        if tries > cfg.max_place_tries:
            raise GenerationError(
                f"could not place {count} non-overlapping nodules "
                f"after {cfg.max_place_tries} retries (seed {seed})")
    for box in boxes:
        _render_nodule(vox, box, float(rng.uniform(cfg.contrast_min, cfg.contrast_max)))
    np.clip(vox, 0.0, 1.0, out=vox)
    volume = Volume(vox.astype(np.float32), lo, hi)
    return LabeledScan(volume, truth=boxes, weak=[])


def lobe_of(point, volume: Volume) -> int:
    """Deterministic lobe id (1..6) of a point inside the lung region.

    The lung box is split into two halves along x (at the midplane) and
    three bands along z (at the thirds). Boundary ties go to the lower
    index, so lobe 1 sits at the minimum corner: lobes 1..3 are the low-x
    half with ascending z bands, lobes 4..6 the high-x half.
    """
    x, y, z = (float(c) for c in point)
    lo, hi = volume.lung_lo, volume.lung_hi
    for c, l, h in ((x, lo[0], hi[0]), (y, lo[1], hi[1]), (z, lo[2], hi[2])):
        if not l <= c <= h - 1:
            raise ValueError(f"point {(x, y, z)} is outside the lung region")
    half = 0 if x <= lo[0] + (hi[0] - lo[0]) / 2.0 else 1
    span_z = hi[2] - lo[2]
    if z <= lo[2] + span_z / 3.0:
        band = 0
    elif z <= lo[2] + 2.0 * span_z / 3.0:
        band = 1
    else:
        band = 2
    return 3 * half + band + 1


def weaken(truth: NoduleBox, volume: Volume, sigma_gen: float, mu: float,
           rng: np.random.Generator) -> WeakLabel:
    """Degrade one truth box to a report-style weak label.

    The lobe is exact. The reported central slice is the true center plus a
    signed offset |N(0, sigma_gen)| + U[0, mu], rounded and clamped to the
    slice range. The uniform part mirrors the plateau of the slice model:
    offsets within mu carry no information about the true center.
    """
    if sigma_gen < 0 or mu < 0:
        raise ValueError("sigma_gen and mu must be nonnegative")
    g = abs(float(rng.normal(0.0, sigma_gen)))
    u = float(rng.uniform(0.0, mu))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    z = int(round(truth.z + sign * (g + u)))
    z = min(max(z, 0), volume.shape[2] - 1)
    return WeakLabel(lobe=lobe_of(truth.center, volume), z=z)


def attach_weak_labels(scan: LabeledScan, sigma_gen: float, mu: float,
                       rng: np.random.Generator) -> LabeledScan:
    """Return a copy of the scan with one weak label per truth box."""
    weak = [weaken(t, scan.volume, sigma_gen, mu, rng) for t in scan.truth]
    return LabeledScan(scan.volume, list(scan.truth), weak)


def _box_to_json(box: NoduleBox) -> dict:
    return {"x": box.x, "y": box.y, "z": box.z, "d": box.diameter}


def check_container_capacity(shape, n_scans: int) -> None:
    """Raise ValueError when ``n_scans`` scans of grid ``shape`` do not fit
    one WEAKEMV1 container: its scan offsets are int32, so the last voxel
    block must start below 2**31 bytes."""
    block = 4 * math.prod(int(n) for n in shape)
    last_offset = len(MAGIC) + _FIXED_HEADER.size + 4 * n_scans + (n_scans - 1) * block
    if n_scans > 0 and last_offset > 2 ** 31 - 1:
        raise ValueError(f"{n_scans} scans of {tuple(shape)} overflow the int32 scan "
                         f"offsets (last offset {last_offset})")


def save_dataset(scans, path) -> None:
    """Write scans to one WEAKEMV1 container file.

    Layout: 8-byte magic; int32 LE header (h, w, s, lung lo xyz, lung hi
    xyz, scan count, then one absolute byte offset per scan's voxel block);
    voxel blocks as float32 LE in x-fastest order; then one JSON line per
    scan with its truth boxes and weak labels. All scans must share grid
    shape and lung region, and the offsets must fit in int32.
    """
    scans = list(scans)
    if not scans:
        raise ValueError("refusing to write an empty dataset")
    shape = scans[0].volume.shape
    lo, hi = scans[0].volume.lung_lo, scans[0].volume.lung_hi
    for scan in scans:
        if scan.volume.shape != shape or (scan.volume.lung_lo, scan.volume.lung_hi) != (lo, hi):
            raise ValueError("all scans in a dataset must share grid shape and lung region")
    n = len(scans)
    check_container_capacity(shape, n)
    header_len = len(MAGIC) + _FIXED_HEADER.size + 4 * n
    block = shape[0] * shape[1] * shape[2] * 4
    offsets = [header_len + i * block for i in range(n)]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_FIXED_HEADER.pack(*shape, *lo, *hi, n))
        fh.write(struct.pack(f"<{n}i", *offsets))
        for scan in scans:
            fh.write(scan.volume.voxels.astype("<f4").ravel(order="F").tobytes())
        for scan in scans:
            line = {"truth": [_box_to_json(b) for b in scan.truth],
                    "weak": [{"lobe": w.lobe, "z": w.z} for w in scan.weak]}
            fh.write(json.dumps(line, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")


def load_dataset(path) -> list[LabeledScan]:
    """Read a WEAKEMV1 container written by ``save_dataset``.

    Raises DatasetHeaderError for short or inconsistent headers,
    DatasetVersionError for unknown magic bytes, and DatasetPayloadError
    for truncated voxel blocks, malformed label lines, or truth boxes
    centered outside the lung region. Reads one voxel block at a time.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if len(magic) < len(MAGIC):
            raise DatasetHeaderError("file too short to hold the magic string")
        if magic != MAGIC:
            raise DatasetVersionError(f"unknown container version {magic!r}")
        if size < len(MAGIC) + _FIXED_HEADER.size:
            raise DatasetHeaderError("truncated fixed header")
        fields = _FIXED_HEADER.unpack(fh.read(_FIXED_HEADER.size))
        shape, lo, hi, n = fields[0:3], fields[3:6], fields[6:9], fields[9]
        if min(shape) < 1 or n < 0:
            raise DatasetHeaderError("header declares an impossible geometry or scan count")
        header_len = len(MAGIC) + _FIXED_HEADER.size + 4 * n
        if size < header_len:
            raise DatasetHeaderError("truncated scan offset table")
        offsets = struct.unpack(f"<{n}i", fh.read(4 * n))
        block = shape[0] * shape[1] * shape[2] * 4
        expected = tuple(header_len + i * block for i in range(n))
        if offsets != expected:
            raise DatasetHeaderError("inconsistent scan offsets")
        payload_end = header_len + n * block
        if size < payload_end:
            raise DatasetPayloadError("voxel payload is truncated")
        # labels first, so their line count is checked before any block is read
        fh.seek(payload_end)
        lines = fh.read().decode("utf-8", errors="replace").splitlines()
        if len(lines) != n:
            raise DatasetPayloadError(f"label section has {len(lines)} lines for {n} scans")
        scans = []
        for i in range(n):
            fh.seek(offsets[i])
            flat = np.frombuffer(fh.read(block), dtype="<f4")
            try:
                volume = Volume(flat.reshape(shape, order="F"), lo, hi)
                labels = json.loads(lines[i])
                truth = [NoduleBox(b["x"], b["y"], b["z"], b["d"]) for b in labels["truth"]]
                weak = [WeakLabel(w["lobe"], w["z"]) for w in labels["weak"]]
                for t in truth:
                    lobe_of(t.center, volume)  # raises for a center outside the lung region
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetPayloadError(f"scan {i} is malformed: {exc}") from exc
            for w in weak:
                if w.z >= shape[2]:
                    raise DatasetPayloadError(f"scan {i} weak label slice {w.z} out of range")
            scans.append(LabeledScan(volume, truth, weak))
    return scans
