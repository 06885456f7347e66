"""Shared hypothesis strategies for random diagrams and polytopes, and the
environment for tests that start a child interpreter."""

import os
from pathlib import Path

from hypothesis import strategies as st

from orthotopes.spd import Leaf, Parallel, Series, SignedSpd, axes, normalize


@st.composite
def spd_shapes(draw, min_axes: int = 1, max_axes: int = 7):
    """Random normal-form diagram on a random subset of axis labels."""
    d = draw(st.integers(min_axes, max_axes))
    labels = draw(st.permutations(range(1, max_axes + 1)))[:d]

    def build(axs, forbid):
        if len(axs) == 1:
            return Leaf(axs[0])
        if forbid is Series:
            kind = Parallel
        elif forbid is Parallel:
            kind = Series
        else:
            kind = draw(st.sampled_from((Series, Parallel)))
        k = draw(st.integers(2, len(axs)))
        cuts = sorted(draw(st.sets(st.integers(1, len(axs) - 1), min_size=k - 1, max_size=k - 1)))
        bounds = [0] + cuts + [len(axs)]
        parts = [axs[a:b] for a, b in zip(bounds, bounds[1:])]
        return kind(tuple(build(p, kind) for p in parts))

    return normalize(build(list(labels), None))


@st.composite
def signed_spds(draw, min_axes: int = 1, max_axes: int = 7):
    shape = draw(spd_shapes(min_axes=min_axes, max_axes=max_axes))
    neg = draw(st.sets(st.sampled_from(sorted(axes(shape)))))
    return SignedSpd(shape, frozenset(neg))


def child_env() -> dict:
    """Environment in which a child interpreter imports the package from
    this checkout's ``src``, as the test process does, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
