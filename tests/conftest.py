"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cme import AnalyticCME, SamplingCME
from repro.ir import LoopBuilder
from repro.machine import four_cluster, two_cluster, unified
from repro.workloads import motivating_kernel, motivating_machine


@pytest.fixture
def saxpy():
    """Y[i] = alpha*X[i] + Y[i] over 256 doubles."""
    b = LoopBuilder("saxpy")
    i = b.dim("i", 0, 256)
    x = b.array("X", (256,))
    y = b.array("Y", (256,))
    xi = b.load(x, [b.aff(i=1)], name="ld_x")
    yi = b.load(y, [b.aff(i=1)], name="ld_y")
    s = b.fmul(xi, b.fconst("alpha"), name="mul")
    t = b.fadd(s, yi, name="add")
    b.store(y, [b.aff(i=1)], t, name="st_y")
    return b.build()


@pytest.fixture
def stencil():
    """5-point 2-D stencil with group reuse (tomcatv-like, small)."""
    b = LoopBuilder("stencil")
    j = b.dim("j", 1, 15)
    i = b.dim("i", 1, 15)
    a = b.array("A", (16, 16))
    out = b.array("OUT", (16, 16))
    c = b.load(a, [b.aff(j=1), b.aff(i=1)], name="ld_c")
    w = b.load(a, [b.aff(j=1), b.aff(-1, i=1)], name="ld_w")
    e = b.load(a, [b.aff(j=1), b.aff(1, i=1)], name="ld_e")
    n = b.load(a, [b.aff(-1, j=1), b.aff(i=1)], name="ld_n")
    s = b.load(a, [b.aff(1, j=1), b.aff(i=1)], name="ld_s")
    t = b.fadd(b.fadd(w, e), b.fadd(n, s), name="sum")
    u = b.fsub(t, c, name="diff")
    b.store(out, [b.aff(j=1), b.aff(i=1)], u, name="st")
    return b.build()


@pytest.fixture
def recurrence():
    """Accumulation with a loop-carried dependence (RecMII > 1)."""
    b = LoopBuilder("accum")
    i = b.dim("i", 0, 128)
    x = b.array("X", (128,))
    xi = b.load(x, [b.aff(i=1)], name="ld_x")
    acc = b.fadd(b.prev_value("acc", distance=1), xi, dest="acc", name="accum")
    return b.build()


@pytest.fixture
def unified_machine():
    return unified()


@pytest.fixture
def two_cluster_machine():
    return two_cluster()


@pytest.fixture
def four_cluster_machine():
    return four_cluster()


@pytest.fixture
def sampling_cme():
    return SamplingCME(max_points=512)


@pytest.fixture
def analytic_cme():
    return AnalyticCME()


@pytest.fixture
def motivating():
    return motivating_kernel(), motivating_machine()
