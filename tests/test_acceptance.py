"""Acceptance gate: twelve exact criteria, one visible pass/fail line each.

Every comparison is integer or exact-rational equality.  Each criterion
prints its verdict on the real stdout so the line survives pytest's capture;
a FAIL line is followed by the assertion detail from pytest itself.
"""

import json
import sys
import time
from fractions import Fraction
from math import comb, gcd

import pytest

from hodgemoments.chains import (
    build_chain,
    cohomology_bases,
    jordan_block_sizes,
    kernel_slice_dims,
)
from hodgemoments.counting import block_multiplicity, lattice_step
from hodgemoments.cyclo import CycloInt, vanishing_tuple_count
from hodgemoments.families import BadFamilyParams, Family
from hodgemoments.hodge import (
    dims_airy,
    dims_kl,
    hodge_airy_closed,
    hodge_airy_from_basis,
    hodge_kl3_div3,
    hodge_kl_closed,
    hodge_kl_from_basis,
    hodge_v21,
    mixed_hodge_kl3,
    mixed_hodge_tilde_kl3,
    verify,
)
from hodgemoments.linalg import apply_columns
from hodgemoments.multiindex import weak_compositions
from hodgemoments.weyl import v21_chain, young_projector
from conftest import run_module
from test_chains import coker_slice_dims, cycloint_eigenvector_product

GOLDEN_2_10 = (0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 0, 1, 0, 0, 0)

KL_SWEEP = [(n, k) for n in (1, 2, 3, 4) for k in range(1, 13)
            if gcd(k, n + 1) == 1]
AIRY_SWEEP = [(n, k) for n in (2, 3, 4) for k in range(1, 13) if gcd(k, n) == 1]
TOWER_KS = (3, 6, 9, 12)
# n + 1 with two prime factors: d_k(n+1, k) > 0 although gcd(k, n+1) = 1,
# and pairs where d_k = 0
COMPOSITE_REJECTED = [(5, 5), (5, 7), (9, 7), (11, 5), (14, 8)]
COMPOSITE_ADMITTED = [(5, 1), (9, 3), (14, 2)]


def _dict_eq(x: dict, y: dict) -> bool:
    return {k: v for k, v in x.items() if v} == {k: v for k, v in y.items() if v}


def announce(num, name, ok):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()


def criterion(num, name):
    """Decorator: run the body, print the verdict line, re-raise on failure."""
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                announce(num, name, False)
                raise
            announce(num, name, True)
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return wrap


@criterion(1, "golden tuple (2,10) via both routes")
def test_criterion_01_golden_tuple():
    t0 = time.perf_counter()
    assert hodge_kl_closed(2, 10).anti_diagonal() == GOLDEN_2_10
    assert hodge_kl_from_basis(2, 10).anti_diagonal() == GOLDEN_2_10
    assert time.perf_counter() - t0 < 60


@criterion(2, "step-count clauses over the coprime sweep")
def test_criterion_02_counting_sweep():
    # The step sequence in the (n+1)-slot grading is supported on [0, nk-n]
    # and mirrors around nk-n; the printed tighter bound nk-n-k+1 with its
    # own mirror is the law of the n-slot grading, checked alongside.  The
    # difference clause ties the two step sequences to the block counts.
    t0 = time.perf_counter()
    for n, k in KL_SWEEP:
        top = n * k - n
        w = n * k + 1
        for d in range(top + 1, w + 2):
            assert lattice_step(n, k, d) == 0, (n, k, d)
        for d in range(top + 1):
            assert lattice_step(n, k, d) == lattice_step(n, k, top - d), (n, k, d)
        for d in range(w + 1):
            assert (lattice_step(n, k, d) - lattice_step(n, k, w - d)
                    == block_multiplicity(n, k, d)), (n, k, d)
    for n, k in AIRY_SWEEP:
        atop = n * k - n - k + 1
        for d in range(atop + 1, n * k + 2):
            assert lattice_step(n - 1, k, d) == 0, (n, k, d)
        for d in range(atop + 1):
            assert lattice_step(n - 1, k, d) == lattice_step(n - 1, k, atop - d), (n, k, d)
    assert time.perf_counter() - t0 < 30


@criterion(3, "per-degree cokernel dims against step counts")
def test_criterion_03_coker_oracle():
    for n, k in KL_SWEEP:
        chain = build_chain(Family.KL_Z, n, k)
        dims = coker_slice_dims(chain)
        assert dims == [lattice_step(n, k, d) for d in range(len(dims))], (n, k)
        expected_total = (comb(n + k, n) - vanishing_tuple_count(n + 1, k)) // (n + 1)
        assert sum(dims) == expected_total == dims_kl(n, k).dim_h1, (n, k)


@criterion(4, "closed and basis routes agree everywhere")
def test_criterion_04_route_equality():
    for n, k in KL_SWEEP:
        assert hodge_kl_closed(n, k).levels == hodge_kl_from_basis(n, k).levels, (n, k)
    for k in TOWER_KS:
        assert hodge_kl3_div3(k).levels == hodge_kl_from_basis(2, k).levels, k
    for n, k in AIRY_SWEEP:
        assert hodge_airy_closed(n, k).levels == hodge_airy_from_basis(n, k).levels, (n, k)


@criterion(5, "degenerate pair (2,3) vanishes through both routes")
def test_criterion_05_degenerate():
    assert dims_kl(2, 3).dim_mid == 0
    closed = hodge_kl3_div3(3)
    basis = hodge_kl_from_basis(2, 3)
    assert closed.levels == basis.levels
    assert closed.total() == basis.total() == 0
    assert all(h == 0 for h in closed.levels.values())


@criterion(6, "Jordan types match block multiplicities")
def test_criterion_06_jordan():
    for n in (1, 2, 3):
        for k in range(1, 9):
            expected = {}
            for d in range((n * k) // 2 + 1):
                q = block_multiplicity(n, k, d)
                if q:
                    size = n * k - 2 * d + 1
                    expected[size] = expected.get(size, 0) + q
            assert jordan_block_sizes(build_chain(Family.KL_Z, n, k)) == expected, (n, k)
    assert jordan_block_sizes(v21_chain()) == {7: 1, 5: 1, 3: 1}


@criterion(7, "tilde eigenvectors and kernel layers")
def test_criterion_07_tilde_eigenstructure():
    # The eigenvector relation holds for every multi-index.  The kernel rank
    # equals the vanishing-tuple count from degree nk on; the slices below nk
    # are empty whenever the kernel module has a primitive generating set,
    # which covers every regime the basis construction runs in (coprime,
    # n = 2 with 3 | k, and n = 1).
    for n in (1, 2, 3):
        m = n + 1
        for k in range(1, 7):
            chain = build_chain(Family.KL_TILDE_T, n, k)
            pos = {ix: j for j, ix in enumerate(chain.labels)}
            for index in weak_compositions(k, m):
                fvec = {(a, pos[jj]): c
                        for (a, jj), c in cycloint_eigenvector_product(n, index).items()}
                lhs = apply_columns({mono: chain.theta_bar_mono(mono) for mono in fvec}, fvec)
                c_index = CycloInt.from_exponents(m, index)
                rhs = {(a + 1, j): m * c_index * c for (a, j), c in fvec.items()}
                assert _dict_eq(lhs, rhs), (n, k, index)
            dk = vanishing_tuple_count(m, k)
            kdims = kernel_slice_dims(chain)
            assert all(kdims[d] == dk for d in range(n * k, len(kdims))), (n, k)
            if n == 1 or gcd(k, m) == 1 or (n == 2 and k % 3 == 0):
                assert all(kdims[d] == 0 for d in range(min(n * k, len(kdims)))), (n, k)


@criterion(8, "mixed-table totals and diagonal contributions")
def test_criterion_08_mixed_tables():
    for k in range(1, 13):
        table = mixed_hodge_tilde_kl3(k)
        dk = vanishing_tuple_count(3, k)
        assert table.total() == comb(k + 2, 2) - dk, k
        diag = sum(h for (p, q), h in table.levels.items() if p == q)
        assert diag == 1 + k // 2 + dk, k
    for k in TOWER_KS:
        table = mixed_hodge_kl3(k)
        assert table.total() == dims_kl(2, k).dim_h1, k
        diag = sum(h for (p, q), h in table.levels.items() if p == q)
        assert diag == 1 + k // 2 + vanishing_tuple_count(3, k), k
        # the diagonal carries the quotient: shift cokernel plus the pure line
        assert diag == dims_kl(2, k).soln_zero + 1, k


@criterion(9, "the 15-dimensional projected family")
def test_criterion_09_v21():
    ps = young_projector()
    assert ps.dim == 15
    chain = v21_chain()
    full, mid = cohomology_bases(chain)
    assert full.cardinalities() == {d: 1 for d in (1, 2, 3, 4, 5)}
    assert mid.cardinalities() == {4: 1, 5: 1}
    assert hodge_v21("basis").nonzero() == {(4, 5): 1, (5, 4): 1}
    assert hodge_v21("closed").levels == hodge_v21("basis").levels


@criterion(10, "fractional Airy diamond at (3,2)")
def test_criterion_10_airy_3_2():
    dm = hodge_airy_closed(3, 2)
    assert dm.levels == {
        (Fraction(5, 4), Fraction(7, 4)): 1,
        (Fraction(3, 2), Fraction(3, 2)): 0,
        (Fraction(7, 4), Fraction(5, 4)): 1,
    }
    assert dm.total() == 2 == dims_airy(3, 2).dim_h1


@criterion(11, "command line end to end")
def test_criterion_11_cli():
    sweep = run_module("verify", "--sweep", "--max-n", "3", "--max-k", "10")
    assert sweep.returncode == 0, sweep.stderr
    assert json.loads(sweep.stdout)["payload"]["all_pass"] is True

    both = run_module("hodge", "--family", "kl", "--n", "2", "--k", "10", "--route", "both")
    assert both.returncode == 0, both.stderr
    assert json.loads(both.stdout)["payload"]["equal"] is True

    bad = run_module("hodge", "--family", "kl", "--n", "2")
    assert bad.returncode == 2
    worse = run_module("hodge", "--family", "unknown", "--n", "2", "--k", "3")
    assert worse.returncode == 2


@criterion(12, "composite n+1: d_k > 0 rejected, d_k = 0 admitted")
def test_criterion_12_composite_gate():
    for n, k in COMPOSITE_REJECTED:
        for route in (hodge_kl_closed, hodge_kl_from_basis):
            with pytest.raises(BadFamilyParams):
                route(n, k)
    for n, k in COMPOSITE_REJECTED[:2]:
        for family in (Family.KL_Z, Family.KL_TILDE_T):
            with pytest.raises(BadFamilyParams):
                cohomology_bases(build_chain(family, n, k))
    for n, k in COMPOSITE_ADMITTED:
        closed = hodge_kl_closed(n, k)
        assert closed.levels == hodge_kl_from_basis(n, k).levels
        assert closed.total() == dims_kl(n, k).dim_mid
        assert verify(n, k).all_pass
