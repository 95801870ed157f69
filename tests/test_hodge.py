"""Hodge tables: closed formulas against the basis route, plus fixed values."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd, prod

import pytest

from hodgemoments import hodge
from hodgemoments import chains
from hodgemoments.chains import DegenerateReduction, Sl2CertificateFailed, build_chain
from hodgemoments.cyclo import CycloInt, vanishing_tuple_count
from hodgemoments.families import BadFamilyParams, Family, admissible, has_tower
from hodgemoments.hodge import (
    dims_airy,
    dims_kl,
    hodge_airy_closed,
    hodge_airy_from_basis,
    hodge_kl_closed,
    hodge_kl_from_basis,
    hodge_v21,
    mixed_hodge_kl3,
    mixed_hodge_tilde_kl3,
    verify,
    verify_sweep,
)
from hodgemoments.linalg import apply_columns
from hodgemoments.multiindex import weak_compositions
from test_chains import cycloint_eigenvector_product, theta_bar_mono
from test_counting import lattice_step_series

GOLDEN_2_10 = (0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 0, 1, 0, 0, 0)


class TestKloostermanPure:
    def test_golden_tuple_closed(self):
        assert hodge_kl_closed(2, 10).anti_diagonal() == GOLDEN_2_10

    def test_golden_tuple_basis(self):
        assert hodge_kl_from_basis(2, 10).anti_diagonal() == GOLDEN_2_10

    def test_closed_rejects_non_coprime(self):
        # the tower case passes the gate
        assert hodge_kl_closed(2, 6).nonzero() == {(3, 10): 1, (5, 8): 1, (8, 5): 1, (10, 3): 1}
        for n, k in [(3, 4), (5, 5)]:
            with pytest.raises(BadFamilyParams):
                hodge_kl_closed(n, k)

    @pytest.mark.parametrize("n,k", [(1, 3), (1, 5), (2, 4), (2, 7), (3, 3), (4, 3),
                                     (4, 13), (3, 25), (6, 8)])
    def test_routes_agree_coprime(self, n, k):
        closed = hodge_kl_closed(n, k)
        basis = hodge_kl_from_basis(n, k)
        assert closed.levels == basis.levels
        assert closed.total() == dims_kl(n, k).dim_mid

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_routes_agree_tower(self, k):
        assert hodge_kl_closed(2, k).levels == hodge_kl_from_basis(2, k).levels

    def test_symmetry_and_weight(self):
        dm = hodge_kl_closed(2, 5)
        assert dm.weight == 11
        for (p, q), h in dm.levels.items():
            assert p + q == 11
            assert dm.levels[(q, p)] == h

    def test_degenerate_2_3_is_all_zero(self):
        assert dims_kl(2, 3).dim_mid == 0
        closed = hodge_kl_closed(2, 3)
        basis = hodge_kl_from_basis(2, 3)
        assert closed.total() == 0
        assert basis.total() == 0
        assert closed.levels == basis.levels
        assert set(closed.nonzero()) == set()

    def test_known_2_6_diamond(self):
        dm = hodge_kl_from_basis(2, 6)
        assert dm.nonzero() == {(3, 10): 1, (5, 8): 1, (8, 5): 1, (10, 3): 1}


class TestDims:
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (2, 8), (3, 5), (4, 3)])
    def test_h1_from_ambient_count(self, n, k):
        rep = dims_kl(n, k)
        ambient = comb(n + k, n)
        assert rep.dim_h1 == (ambient - vanishing_tuple_count(n + 1, k)) // (n + 1)
        assert rep.dim_mid == rep.dim_h1 - rep.soln_zero - rep.soln_infty
        assert rep.irregularity == rep.dim_h1

    @pytest.mark.parametrize("n,k", [(2, 3), (2, 6), (3, 4)])
    def test_tilde_is_m_times_z(self, n, k):
        z = dims_kl(n, k)
        t = dims_kl(n, k, Family.KL_TILDE_T)
        assert t.dim_h1 == (n + 1) * z.dim_h1

    def test_airy_examples(self):
        assert dims_airy(3, 2).dim_h1 == 2
        assert dims_airy(2, 5).dim_h1 == 3
        with pytest.raises(BadFamilyParams):
            dims_airy(2, 4)

    def test_golden_dims(self):
        rep = dims_kl(2, 10)
        assert rep.dim_h1 == comb(12, 2) // 3
        assert rep.dim_mid == sum(GOLDEN_2_10)


class TestAiry:
    def test_3_2_fractional_levels(self):
        dm = hodge_airy_closed(3, 2)
        assert dm.levels == {
            (Fraction(5, 4), Fraction(7, 4)): 1,
            (Fraction(3, 2), Fraction(3, 2)): 0,
            (Fraction(7, 4), Fraction(5, 4)): 1,
        }
        assert dm.total() == dims_airy(3, 2).dim_h1

    @pytest.mark.parametrize("n,k", [(2, 3), (2, 5), (3, 2), (3, 4), (4, 3), (5, 13)])
    def test_routes_agree(self, n, k):
        assert hodge_airy_closed(n, k).levels == hodge_airy_from_basis(n, k).levels

    def test_basis_class_past_the_support_is_named(self, monkeypatch):
        # a class above degree nk - n - k + 1 has no Hodge level: the basis
        # route raises instead of dropping it
        bases = hodge.cohomology_bases

        def one_class_too_high(chain):
            full, mid = bases(chain)
            top = chain.n * chain.k - chain.n - chain.k + 1
            vectors = {**full.vectors, top + 1: full.vectors[top + 1] + ((0, 0),)}
            return replace(full, vectors=vectors), mid

        monkeypatch.setattr(hodge, "cohomology_bases", one_class_too_high)
        with pytest.raises(DegenerateReduction, match=r"degrees \[3\] lie past the top degree 2"):
            hodge_airy_from_basis(3, 2)

    def test_integer_levels_render_as_ints(self):
        # when n + 1 divides the numerator the level collapses to an int
        dm = hodge_airy_closed(2, 5)
        kinds = {type(p) for p, q in dm.levels}
        assert kinds <= {int, Fraction}


def series_column_levels(family, n, k):
    """The closed kl or airy levels read off the x^k column of the step series."""
    if family is Family.AIRY_Z:
        top = n * k - n - k + 1
        series = lattice_step_series(n - 1, max(top + 1, 1), k + 1)
        return {(Fraction(p + n + k, n + 1), Fraction(n * k + 1 - p, n + 1)): series.coeff(p, k)
                for p in range(top + 1)}
    w = n * k + 1
    series = lattice_step_series(n, w + 1, k + 1)
    lows = {p: min(p, w - p) - n - 1 for p in range(w + 1)}
    return {(p, w - p): series.coeff(low, k) if low >= 0 else 0 for p, low in lows.items()}


@pytest.mark.parametrize("family", [Family.KL_Z, Family.AIRY_Z])
@pytest.mark.parametrize("n", range(1, 7))
def test_closed_routes_equal_the_step_series_column(family, n):
    # the series column is the oracle: the closed routes read weight characters
    closed = {Family.KL_Z: hodge_kl_closed, Family.AIRY_Z: hodge_airy_closed}[family]
    for k in range(1, 26):
        if admissible(family, n, k) and not has_tower(family, n, k):
            assert closed(n, k).levels == series_column_levels(family, n, k), (n, k)


def test_diamond_layouts_put_h_of_p_at_p():
    # the layouts mirror nothing; the callers that need Hodge symmetry fold p
    pure = hodge._pure_diamond(Family.KL_Z, 1, 2, 3, lambda p: 10 + p)
    assert pure.levels == {(0, 3): 10, (1, 2): 11, (2, 1): 12, (3, 0): 13}
    airy = hodge._airy_diamond(3, 2, lambda p: 10 + p)
    assert airy.levels == {(Fraction(5, 4), Fraction(7, 4)): 10,
                           (Fraction(3, 2), Fraction(3, 2)): 11,
                           (Fraction(7, 4), Fraction(5, 4)): 12}
    assert (airy.weight, airy.kind) == (3, "pure")


class TestV21:
    def test_both_routes(self):
        closed = hodge_v21("closed")
        basis = hodge_v21("basis")
        assert closed.levels == basis.levels
        assert closed.nonzero() == {(4, 5): 1, (5, 4): 1}

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            hodge_v21("guess")


class TestMixedTables:
    def test_tilde_k3_fixed_table(self):
        dm = mixed_hodge_tilde_kl3(3)
        assert dm.kind == "mixed"
        assert dm.family is Family.KL_TILDE_T
        assert dm.nonzero() == {
            (1, 6): 1, (2, 5): 1, (3, 4): 1, (4, 3): 1, (4, 4): 1,
            (5, 2): 1, (5, 5): 1, (6, 1): 1, (7, 7): 1,
        }
        assert dm.total() == comb(5, 2) - 1

    def test_kl3_k6_fixed_table(self):
        dm = mixed_hodge_kl3(6)
        assert (dm.family, dm.kind) == (Family.KL_Z, "mixed")
        assert dm.nonzero() == {
            (3, 10): 1, (5, 8): 1, (7, 7): 2, (8, 5): 1, (9, 9): 1,
            (10, 3): 1, (11, 11): 1, (13, 13): 1,
        }
        assert dm.total() == dims_kl(2, 6).dim_h1

    @pytest.mark.parametrize("k", range(1, 13))
    def test_tilde_total(self, k):
        assert mixed_hodge_tilde_kl3(k).total() == comb(k + 2, 2) - vanishing_tuple_count(3, k)

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_kl3_total_and_diagonal(self, k):
        dm = mixed_hodge_kl3(k)
        assert dm.total() == dims_kl(2, k).dim_h1
        diag = sum(h for (p, q), h in dm.levels.items() if p == q)
        assert diag == 1 + k // 2 + 1

    def test_kl3_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            mixed_hodge_kl3(4)

    @pytest.mark.parametrize("table", [mixed_hodge_tilde_kl3, mixed_hodge_kl3])
    @pytest.mark.parametrize("k", [0, -2, -3])
    def test_mixed_tables_gate_k(self, table, k):
        # k < 1 defines no mixed table, so it may not read one off the rule
        with pytest.raises(BadFamilyParams):
            table(k)


def kl3_low_half(k, low):
    """The pure n = 2, 3 | k table as a hand formula in low = min(p, w - p)."""
    return low // 6 + (low % 6 in (3, 5)) - (low == k)


def mixed_oracle(family, k):
    """An n = 2 mixed table from the hand formulas: pure part, then the diagonal p % 2."""
    w, dk = 2 * k + 1, vanishing_tuple_count(3, k)
    if family is Family.KL_Z:
        pure_low, extra = partial(kl3_low_half, k), 1
    else:
        pure_low, extra = (lambda low: (low + 1) // 2 - dk * (low == k)), dk
    levels = {(p, w - p): pure_low(min(p, w - p)) for p in range(w + 1)}
    levels[(k + 1, k + 1)] = (k % 2 == 0) + extra
    levels.update({(p, p): p % 2 for p in range(k + 2, w + 1)})
    return levels


def test_n2_closed_tables_equal_the_hand_formulas():
    # the closed route reads the weight character and Q(t); the hand formulas
    # of the three n = 2 tables are its oracle at every k <= 300, and at two
    # large k, which stay cheap because a table costs O(w)
    for k in [*range(1, 301), 1000, 3000]:
        w = 2 * k + 1
        if k % 3 == 0:
            assert hodge_kl_closed(2, k).levels == {
                (p, w - p): kl3_low_half(k, min(p, w - p)) for p in range(w + 1)}, k
            assert mixed_hodge_kl3(k).levels == mixed_oracle(Family.KL_Z, k), k
        assert mixed_hodge_tilde_kl3(k).levels == mixed_oracle(Family.KL_TILDE_T, k), k


def cycloint_first_eigen_failure(chain, n, k):
    """Criterion 07's relation check in Z[zeta_m]: the first I where it fails."""
    m = n + 1
    pos = {ix: j for j, ix in enumerate(chain.labels)}
    for index in weak_compositions(k, m):
        fvec = {(a, pos[jj]): c for (a, jj), c in cycloint_eigenvector_product(n, index).items()}
        lhs = apply_columns({mono: theta_bar_mono(chain, mono) for mono in fvec}, fvec)
        c_index = CycloInt.from_exponents(m, index)
        rhs = {(a + 1, j): m * c_index * c for (a, j), c in fvec.items()}
        if {key: c for key, c in lhs.items() if c} != {key: c for key, c in rhs.items() if c}:
            return index
    return None


def _bump_first_e(chain):
    j = next(j for j, col in enumerate(chain.emat) if col)
    chain.emat[j][min(chain.emat[j])] += 1


def _bump_last_n(chain):
    j = max(j for j, col in enumerate(chain.nmat) if col)
    chain.nmat[j][min(chain.nmat[j])] += 1


def _cancelling_n_pair(chain):
    """Two new N entries into one target whose effects cancel in the first f_I.

    The first index (0, ..., 0, k) gives f_n^k, whose coefficient at v^J is
    the multinomial of J times a power of zeta fixed by wt(J); so entries
    +mult(J2) from J1 and -mult(J1) from J2, wt(J1) = wt(J2), cancel there,
    and the relation first fails at a later index.
    """
    def mult(jj):
        return factorial(sum(jj)) // prod(factorial(e) for e in jj)

    w = min(w for w in set(chain.weights) if chain.weights.count(w) > 1)
    j1, j2 = [j for j, x in enumerate(chain.weights) if x == w][:2]
    i = chain.weights.index(w + 1)
    chain.nmat[j1][i] = chain.nmat[j1].get(i, 0) + mult(chain.labels[j2])
    chain.nmat[j2][i] = chain.nmat[j2].get(i, 0) - mult(chain.labels[j1])


class TestVerify:
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (2, 4), (2, 6), (3, 2)])
    def test_reports_all_pass(self, n, k):
        report = verify(n, k)
        failed = [c.name for c in report.checks if not c.passed]
        assert not failed, failed
        assert report.all_pass

    def test_sweep_covers_grid(self):
        reports = verify_sweep(2, 4)
        assert {(r.n, r.k) for r in reports} == {(n, k) for n in (1, 2)
                                                 for k in (1, 2, 3, 4)}
        assert all(r.all_pass for r in reports)

    def test_one_basis_walk_per_chain(self, monkeypatch):
        # kl: both bases, which also give the coker dims; kl-tilde: both
        # bases and the kernel dims, read off the kl walk.  The kl chain at
        # (2, 5) is the airy chain at (3, 5), so verify (2, 5) finds its walk
        seen = []
        walk = chains._walk_images

        def counted(chain):
            seen.append(chain.family)
            return walk(chain)

        monkeypatch.setattr(chains, "_walk_images", counted)
        assert verify(3, 5).all_pass
        assert Counter(seen) == {Family.KL_Z: 1, Family.AIRY_Z: 1}
        seen.clear()
        assert verify(2, 5).all_pass
        assert Counter(seen) == {Family.AIRY_Z: 1}

    @pytest.mark.parametrize("n,k", [(3, 5), (2, 6)])
    def test_one_v_per_point(self, monkeypatch, n, k):
        # the kl-tilde chain stands on the kl chain's own V, N, E and tower
        # (at (2, 6) the tower case); build_chain never builds a tilde V
        built, tilde = [], []
        build, share = hodge.build_chain, hodge.tilde_chain

        def counted_build(family, n_, k_):
            built.append(build(family, n_, k_))
            return built[-1]

        def counted_share(chain):
            tilde.append((chain, share(chain)))
            return tilde[-1][1]

        monkeypatch.setattr(hodge, "build_chain", counted_build)
        monkeypatch.setattr(hodge, "tilde_chain", counted_share)
        assert verify(n, k).all_pass
        assert Family.KL_TILDE_T not in {chain.family for chain in built}
        (kl, tchain), = tilde
        assert kl is built[0] and kl.family is Family.KL_Z
        assert tchain.family is Family.KL_TILDE_T and tchain.zweight == 1
        for name in ("labels", "weights", "nmat", "emat", "tower", "_by_weight"):
            assert getattr(tchain, name) is getattr(kl, name), name
        assert (tchain.tower is None) == (k % 3 != 0)

    def test_one_dimension_report_per_family(self, monkeypatch):
        # at (2, 6) basis-totals, dims-consistent and mixed-kl3 all read a report
        seen = []
        report = hodge.dims_kl

        def counted(n, k, family=Family.KL_Z):
            seen.append(family)
            return report(n, k, family)

        monkeypatch.setattr(hodge, "dims_kl", counted)
        assert verify(2, 6).all_pass
        assert Counter(seen) == {Family.KL_Z: 1, Family.KL_TILDE_T: 1}

    def test_sl2_certified_once_per_chain(self, monkeypatch):
        # jordan-blocks and shift-coker read one certificate of the kl chain
        seen = []
        certify = chains._sl2_strings

        def counted(chain):
            seen.append(chain.family)
            return certify(chain)

        monkeypatch.setattr(chains, "_sl2_strings", counted)
        assert verify(3, 5).all_pass
        assert Counter(seen) == {Family.KL_Z: 1}

    def test_corrupted_shift_still_fails_the_certificate(self, monkeypatch):
        def corrupted_build(family, n_, k_):
            chain = build_chain(family, n_, k_)
            _bump_last_n(chain)
            return chain

        monkeypatch.setattr(hodge, "build_chain", corrupted_build)
        with pytest.raises(Sl2CertificateFailed):
            verify(3, 5)

    @pytest.mark.parametrize("degree", [0, 7, 16])
    def test_step_off_by_one_fails_step_series(self, monkeypatch, degree):
        # the clause recounts the steps from the chain's weights, so a step
        # reader wrong at one degree (16 = nk + 1, past the support) fails it
        step = hodge.lattice_step
        monkeypatch.setattr(hodge, "lattice_step",
                            lambda n_, k_, d: step(n_, k_, d) + (d == degree))
        report = verify(3, 5)
        assert "step-series" in [c.name for c in report.checks if not c.passed]

    def test_thin_extreme_passes(self):
        # n = 1, k in the thousands: every clause costs about dim V + nk
        report = verify(1, 2001)
        assert [c.name for c in report.checks if not c.passed] == []

    def test_thin_point_n2_passes(self):
        # dim V 18 528: the walk mod PRIME keeps every entry one digit, where
        # the entries of the walk over Z reach 14 325 bits
        report = verify(2, 191)
        assert [c.name for c in report.checks if not c.passed] == []

    def test_thin_tower_point_n2_passes(self):
        # 3 | k: the tower classes walk mod PRIME too, under the walk's
        # certificates (d) and (e), so no class of this walk runs over Z
        report = verify(2, 150)
        assert [c.name for c in report.checks if not c.passed] == []

    # for n = 1 no two multi-indices share a weight, so no cancelling pair
    @pytest.mark.parametrize("n,k,corrupt", [
        (n, k, corrupt) for n, k in [(1, 3), (2, 4), (2, 6), (3, 5), (3, 6)]
        for corrupt in (_bump_first_e, _bump_last_n, _cancelling_n_pair)
        if n > 1 or corrupt is not _cancelling_n_pair])
    def test_eigen_relation_fails_where_cycloint_oracle_fails(self, n, k, corrupt):
        # a private copy of the tilde chain's N and E, corrupted: inside verify
        # a corrupted N is shared with the kl chain and fails the sl2 certificate first
        chain = build_chain(Family.KL_TILDE_T, n, k)
        chain = replace(chain, nmat=[dict(col) for col in chain.nmat],
                        emat=[dict(col) for col in chain.emat])
        corrupt(chain)
        want = cycloint_first_eigen_failure(chain, n, k)
        assert want is not None
        if corrupt is _cancelling_n_pair:
            assert want != (0,) * n + (k,)
        assert chains.eigen_relation_failure(chain) == want

    def test_eigen_relation_failure_is_reported(self, monkeypatch):
        # verify reports the first failure the eigen check returns, on the tilde chain
        seen = []

        def failing(chain):
            seen.append(chain.family)
            return (1, 0, 4)

        monkeypatch.setattr(hodge, "eigen_relation_failure", failing)
        report = verify(2, 5)
        assert seen == [Family.KL_TILDE_T]
        assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
            ("tilde-eigen-relation", "first failure at (1, 0, 4)")]

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 5)])
    def test_eigen_relation_is_decided_modulo_phi(self, monkeypatch, n, k):
        # adding the packed norm element 1 + x + ... + x^n to every coefficient
        # of f_I changes it in Z[C_m] but not in Z[zeta_m]: lhs - rhs is then
        # nonzero before the reduction, and the relation must still hold
        shared = chains.group_ring_eigenvector_products

        def padded(labels, packing):
            norm = sum(1 << e * packing.width for e in range(packing.m))
            for index, product in shared(labels, packing):
                yield index, [v + norm for v in product]

        monkeypatch.setattr(chains, "group_ring_eigenvector_products", padded)
        check = next(c for c in verify(n, k).checks if c.name == "tilde-eigen-relation")
        assert check.passed, check.detail

    @pytest.mark.parametrize("name, target, error", [
        ("route-kl", "_kl_diamond",
         DegenerateReduction("the low half of the middle basis is not half of it")),
        ("route-airy", "hodge_airy_from_basis",
         RuntimeError("full basis still nonzero in degree 9, past the top degree 8")),
        ("route-airy", "hodge_airy_from_basis",
         DegenerateReduction("airy classes in degrees [5] lie past the top degree 4")),
    ])
    def test_broken_basis_route_is_a_failed_check(self, monkeypatch, name, target, error):
        # a basis route that breaks down is reported as data: the same checks
        # in the same order, only its route check failed, the error as detail
        names = [c.name for c in verify(2, 5).checks]

        def broken(*args):
            raise error

        monkeypatch.setattr(hodge, target, broken)
        report = verify(2, 5)
        assert [c.name for c in report.checks] == names
        assert [(c.name, c.detail) for c in report.checks if not c.passed] == [(name, str(error))]
        assert not report.all_pass

    def test_check_names_stable(self):
        names = {c.name for c in verify(2, 4).checks}
        assert "counting-clauses" in names
        assert "route-kl" in names
        assert "step-series" in names
