"""Seeded inputs for the benchmark workloads.

Each workload function writes scene files into a directory and returns a
Workload: the files in run order, the RunConfig the CLI would build for them,
and groups of files that must give byte-identical output.  The program under test only ever
sees these files; the seed stays in the benchmark.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from shockgraph import cli
from shockgraph.contours import ContourFragment, decompose, format_scene_text
from shockgraph.regularize import augment_with_box
from shockgraph.scenes import LCG, random_scene

HUNDRED_ELEMENTS = 485
DENSE_MIN_ELEMENTS = 2500
# Same fragment density as the 100-fragment 160x160 scene: at this density
# random_scene places every fragment within its first 80 tries, so it never
# shrinks a fragment for crowding (checked for seeds 1-30 at 600 fragments).
DENSE_SIZE = 380.0
DENSE_MAX_FRAGMENTS = 600


@dataclass
class Workload:
    name: str
    config: cli.RunConfig
    scenes: list                 # scene file paths, in run order
    same_output: list = field(default_factory=list)  # groups of stems


def _write(path: str, data) -> str:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)
    return path


def _elements(frags, width: float, height: float) -> int:
    boxed, _, _ = augment_with_box(list(frags), width, height)
    return len(decompose(boxed))


def _config(out_dir: str, **kw) -> cli.RunConfig:
    return cli.RunConfig(inputs=[], output_dir=out_dir, jobs=1, **kw)


def hundred(seed: int, in_dir: str, out_dir: str) -> Workload:
    """The tier-1 runtime gate scene.  It is pinned to the test's own
    generator seed (101), so the run seed does not change it."""
    del seed
    frags, _ = random_scene(100, 101, width=160.0, height=160.0)
    n = _elements(frags, 160.0, 160.0)
    if n != HUNDRED_ELEMENTS:
        raise RuntimeError(f"hundred: {n} elements, expected "
                           f"{HUNDRED_ELEMENTS}")
    path = _write(os.path.join(in_dir, "hundred.scene"),
                  format_scene_text(160.0, 160.0, frags))
    return Workload("hundred", _config(out_dir, polyline_epsilon=0.0),
                    [path])


def _fragment_elements(f: ContourFragment) -> int:
    k = len(f.vertices)
    return 2 * k if f.closed else 2 * k - 1


def dense(seed: int, in_dir: str, out_dir: str) -> Workload:
    """The shortest seeded random scene that decomposes to at least
    DENSE_MIN_ELEMENTS elements.  random_scene draws fragments one after
    another, so a prefix of a longer scene is the scene of that length."""
    frags, _ = random_scene(DENSE_MAX_FRAGMENTS, seed,
                            width=DENSE_SIZE, height=DENSE_SIZE)
    total = 8  # the bounding box: 4 corners and 4 sides
    k = 0
    while total < DENSE_MIN_ELEMENTS and k < len(frags):
        total += _fragment_elements(frags[k])
        k += 1
    frags = frags[:k]
    n = _elements(frags, DENSE_SIZE, DENSE_SIZE)
    if n < DENSE_MIN_ELEMENTS:
        raise RuntimeError(f"dense: {n} elements, expected at least "
                           f"{DENSE_MIN_ELEMENTS}")
    path = _write(os.path.join(in_dir, "dense.scene"),
                  format_scene_text(DENSE_SIZE, DENSE_SIZE, frags))
    return Workload("dense", _config(out_dir, polyline_epsilon=0.0), [path])


# ---------------------------------------------------------------------------
# Binary masks
# ---------------------------------------------------------------------------

def _grid(h: int, w: int):
    """Pixel-centre coordinates, x = column, y = row."""
    yy, xx = np.mgrid[0:h, 0:w]
    return xx + 0.5, yy + 0.5


def _offset(rng: LCG, size: int):
    """Whole-pixel shift of a shape's centre: it moves the shape without
    changing its pixel pattern."""
    return size / 2 + rng.randint(-2, 2), size / 2 + rng.randint(-2, 2)


def _disc(rng: LCG, size: int = 40, r: float = 15.0):
    x, y = _grid(size, size)
    cx, cy = _offset(rng, size)
    return (x - cx) ** 2 + (y - cy) ** 2 <= r * r


def _ring(rng: LCG, size: int = 64, r_out: float = 28.0, r_in: float = 20.0):
    x, y = _grid(size, size)
    cx, cy = _offset(rng, size)
    d2 = (x - cx) ** 2 + (y - cy) ** 2
    return (d2 <= r_out ** 2) & (d2 >= r_in ** 2)


def _ellipse(rng: LCG, w: int = 64, h: int = 40, a: float = 26.0,
             b: float = 13.0):
    x, y = _grid(h, w)
    cx, cy = w / 2 + rng.randint(-2, 2), h / 2 + rng.randint(-2, 2)
    return ((x - cx) / a) ** 2 + ((y - cy) / b) ** 2 <= 1.0


def _regular_polygon(k: int):
    def build(rng: LCG, size: int = 56, radius: float = 22.0):
        x, y = _grid(size, size)
        cx, cy = _offset(rng, size)
        apothem = radius * math.cos(math.pi / k)
        inside = np.ones(x.shape, dtype=bool)
        for i in range(k):
            th = 2.0 * math.pi * (i + 0.5) / k
            inside &= (x - cx) * math.cos(th) + (y - cy) * math.sin(th) \
                <= apothem
        return inside
    return build


def _disc_union(lobes: int):
    """Union of `lobes` random discs around the mask centre.  Radii and
    positions are jittered, but neighbouring discs always overlap and the
    centre is always covered, so the seed changes the outline and not how
    long it is: the workload's size does not depend on the seed."""
    def build(rng: LCG, size: int = 56):
        x, y = _grid(size, size)
        mask = np.zeros(x.shape, dtype=bool)
        th0 = rng.uniform(0.0, 2.0 * math.pi)
        for i in range(lobes):
            th = th0 + 2.0 * math.pi * i / lobes + rng.uniform(-0.2, 0.2)
            d = 8.0 * rng.uniform(0.9, 1.1)
            r = 11.0 * rng.uniform(0.9, 1.1)
            cx = size / 2 + d * math.cos(th)
            cy = size / 2 + d * math.sin(th)
            mask |= (x - cx) ** 2 + (y - cy) ** 2 <= r * r
        return mask
    return build


# Discs (centre x, centre y, radius) of one unconstrained random union: its
# outline has a degree-5 junction, so besides the symmetric shapes one
# generic shape fails with FeatureOverflowError too.
_BLOB_DISCS = ((13.1, 52.6, 9.66), (56.5, 29.69, 13.26), (15.43, 45.41, 9.23),
               (27.4, 36.18, 13.84), (56.35, 24.36, 11.99),
               (20.8, 16.35, 12.81))


def _blob(rng: LCG, size: int = 72):
    x, y = _grid(size, size)
    ox, oy = rng.randint(-2, 2), rng.randint(-2, 2)
    mask = np.zeros(x.shape, dtype=bool)
    for cx, cy, r in _BLOB_DISCS:
        mask |= (x - cx - ox) ** 2 + (y - cy - oy) ** 2 <= r * r
    return mask


MASK_SHAPES = [
    ("disc", _disc), ("ring", _ring), ("ellipse", _ellipse),
    ("pentagon", _regular_polygon(5)), ("hexagon", _regular_polygon(6)),
    ("octagon", _regular_polygon(8)),
    ("union3", _disc_union(3)), ("union4", _disc_union(4)),
    ("union5", _disc_union(5)), ("union6", _disc_union(6)),
    ("blob", _blob),
]


def encode_p1(mask) -> bytes:
    h, w = mask.shape
    rows = (" ".join("1" if v else "0" for v in row) for row in mask)
    return ("P1\n%d %d\n" % (w, h) + "\n".join(rows) + "\n").encode()


def encode_p4(mask) -> bytes:
    h, w = mask.shape
    return b"P4\n%d %d\n" % (w, h) + np.packbits(mask, axis=1).tobytes()


def _write_masks(named_masks, in_dir: str):
    """Each mask as a P1 and a P4 file; returns (paths, same-output groups)."""
    paths, groups = [], []
    for name, mask in named_masks:
        if not mask.any() or mask.all():
            raise RuntimeError(f"mask {name}: no boundary to trace")
        group = []
        for fmt, encode in (("p1", encode_p1), ("p4", encode_p4)):
            paths.append(_write(os.path.join(in_dir, f"{name}.{fmt}.pbm"),
                                encode(mask)))
            group.append(f"{name}.{fmt}")
        groups.append(group)
    return paths, groups


def masks(seed: int, in_dir: str, out_dir: str) -> Workload:
    """Small pixel-aligned scenes at CLI defaults, all three formats."""
    rng = LCG(seed)
    paths, groups = _write_masks(
        [(name, build(rng)) for name, build in MASK_SHAPES], in_dir)
    return Workload("masks",
                    _config(out_dir, formats=("sgtext", "graphml", "svg")),
                    paths, groups)


def tiny(seed: int, in_dir: str, out_dir: str) -> Workload:
    """Self-test input: a small random scene, a small mask, and a scene
    whose contours cross, which the pipeline must reject."""
    frags, _ = random_scene(4, seed, width=40.0, height=40.0)
    paths = [_write(os.path.join(in_dir, "small.scene"),
                    format_scene_text(40.0, 40.0, frags))]
    mask_paths, groups = _write_masks(
        [("ellipse", _ellipse(LCG(seed), 24, 16, 9.0, 5.0))], in_dir)
    paths += mask_paths
    bowtie = ContourFragment(0, np.array([[2.0, 2.0], [8.0, 8.0],
                                          [8.0, 2.0], [2.0, 8.0]]),
                             closed=True)
    paths.append(_write(os.path.join(in_dir, "crossing.scene"),
                        format_scene_text(10.0, 10.0, [bowtie])))
    return Workload("tiny",
                    _config(out_dir, polyline_epsilon=0.0,
                            formats=("sgtext", "graphml", "svg")),
                    paths, groups)


WORKLOADS = {"hundred": hundred, "dense": dense, "masks": masks, "tiny": tiny}
