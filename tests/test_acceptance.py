"""Acceptance gate: seven timed pass/fail checks over the verification sweeps.

Each test runs one sweep at its full advertised bounds, prints a single
ACCEPTANCE verdict line (visible even under output capture), and fails if
the sweep reports a violation or exceeds its wall-clock budget.
"""

import time
from pathlib import Path

from qfock.verify import (
    QuiverPresentation,
    verify_bar,
    verify_bgg,
    verify_canonical,
    verify_hecke,
    verify_qsym,
    verify_symmetrizer,
)
from qfock.weightlat import Window

GOLDEN = Path(__file__).parent / "golden"


def _verdict(capsys, num, label, ok, elapsed, budget, msgs):
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok and elapsed < budget else 'FAIL'}"
    with capsys.disabled():
        print(f"{line} ({elapsed:.2f}s, budget {budget:.0f}s)")
    if not ok:
        raise AssertionError(f"{label} failed:\n" + "\n".join(msgs))
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"


def test_acceptance_1_hecke(capsys):
    """Quadratic, braid, symmetrizer bar-fixedness and absorption, all
    parabolics on shapes of size up to 4, plus random product checks, and
    the symmetrizer closed form in 0..3."""
    t0 = time.perf_counter()
    ok, msgs = verify_hecke(4, Window(0, 4))
    _verdict(capsys, 1, "hecke algebra suite", ok, time.perf_counter() - t0, 5, msgs)


def test_acceptance_2_symmetrizer(capsys):
    """Closed form for a monomial times the symmetrizer on every tuple of
    size up to 4 in a width-4 window, and the Poincare sum identity up to
    k = 5."""
    t0 = time.perf_counter()
    ok, msgs = verify_symmetrizer(4, Window(1, 4))
    _verdict(capsys, 2, "symmetrizer closed form", ok, time.perf_counter() - t0, 10, msgs)


def test_acceptance_3_bar(capsys):
    """Involutivity, triangularity, Hecke and Chevalley compatibility,
    pure-sector agreement and window stability on shapes of size up to 4
    in a width-5 window."""
    t0 = time.perf_counter()
    ok, msgs = verify_bar(4, Window(0, 4))
    _verdict(capsys, 3, "bar involution suite", ok, time.perf_counter() - t0, 60, msgs)


def test_acceptance_4_canonical(capsys):
    """Both bases bar-fixed with the degree conditions, equality with the
    independent fixed-point oracle on every block of size at most 12, the
    frozen one-boson chain values, and the matrix inverse relation."""
    t0 = time.perf_counter()
    ok, msgs = verify_canonical(4, Window(0, 4))
    _verdict(capsys, 4, "canonical basis suite", ok, time.perf_counter() - t0, 60, msgs)


def test_acceptance_5_qsym(capsys):
    """Projection formula, both basis-image expansions, vanishing of
    non-anti-dominant simples, and intrinsic versus push-forward canonical
    vectors: shapes of size up to 4, groups of order up to 4, width-5
    windows, no block cap."""
    t0 = time.perf_counter()
    ok, msgs = verify_qsym(4, Window(0, 4))
    _verdict(capsys, 5, "symmetrized space suite", ok, time.perf_counter() - t0, 120, msgs)


def test_acceptance_6_bgg(capsys):
    """Graded decategorification square on seven shape/parabolic cases,
    graded reciprocity and the Whittaker two-route equality on width-5
    windows, and the one-boson block facts: typical standards simple,
    atypical standards of length 2, flag lengths equal to orbit sizes."""
    t0 = time.perf_counter()
    ok, msgs = verify_bgg(4, Window(0, 4))
    _verdict(capsys, 6, "decategorification suite", ok, time.perf_counter() - t0, 60, msgs)


def test_acceptance_7_quiver(capsys):
    """Quiver presentation output token-for-token against the golden files,
    and degree homogeneity of every printed relation."""
    t0 = time.perf_counter()
    fails = []
    for n, name in [(2, "quiver_gl12.txt"), (1, "quiver_gl11.txt")]:
        pres = QuiverPresentation(n)
        got = pres.display()
        want = (GOLDEN / name).read_text()
        if got.split() != want.split():
            fails.append(f"n = {n} output differs from {name}")
        if not pres.is_degree_homogeneous():
            fails.append(f"n = {n} relations are not degree homogeneous")
    _verdict(
        capsys, 7, "quiver presentation goldens", not fails, time.perf_counter() - t0, 5, fails
    )
