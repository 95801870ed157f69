"""Graded chain construction, the degree-1 differential, and basis extraction."""

import pytest
from hypothesis import given, strategies as st

from hodgemoments.chains import (
    BadFamilyParams,
    GradedChain,
    GroupRingPacking,
    Sl2CertificateFailed,
    _image_echelons,
    _lowering_action,
    _packed_times_eigenvector,
    _psi,
    _raise_tables,
    build_chain,
    cohomology_bases,
    corner_action,
    eta_power_vector,
    group_ring_eigenvector_products,
    jordan_block_sizes,
    kernel_slice_dims,
    shift_action,
    shift_coker_dims,
)
from hodgemoments.counting import (
    block_multiplicity,
    bottom_multiplicity,
    lattice_step,
)
from hodgemoments.cyclo import CycloInt, cyclotomic_poly, vanishing_tuple_count
from hodgemoments.families import Family
from hodgemoments.hodge import dims_kl
from hodgemoments.linalg import SparseEchelon
from hodgemoments.multiindex import weak_compositions, weight
from hodgemoments.weyl import v21_chain
from test_linalg import jordan_type, matrix_rank


def coker_slice_dims(chain):
    """dim coker(theta_bar: slice d-1 -> slice d) for d = 0..max_degree, from the class echelons."""
    out = [0] * (chain.max_degree + 1)
    for d, image in _image_echelons(chain):
        out[d] = len(chain.slice_monomials(d)) - image.rank
    return out


def test_shift_action_leibniz_hand_cases():
    # v0 v1 v2 -> v1^2 v2 + v0 v2^2
    assert shift_action((1, 1, 1)) == {(0, 2, 1): 1, (1, 0, 2): 1}
    # v0^3 -> 3 v0^2 v1
    assert shift_action((3, 0, 0)) == {(2, 1, 0): 3}
    # the top slot has nowhere to go
    assert shift_action((0, 0, 2)) == {}


def test_corner_action_hand_cases():
    assert corner_action((0, 0, 2)) == {(1, 0, 1): 2}
    assert corner_action((1, 1, 0)) == {}


def test_lowering_action_hand_cases():
    # v0 v1 v2 -> 2 v0^2 v2 + 2 v0 v1^2 (v1 -> 1*2 v0, v2 -> 2*1 v1)
    assert _lowering_action((1, 1, 1)) == {(2, 0, 1): 2, (1, 2, 0): 2}
    # v3^2 -> 2 * 3 v2 v3 with m = 4
    assert _lowering_action((0, 0, 0, 2)) == {(0, 0, 1, 1): 6}
    # the bottom slot has nowhere to go
    assert _lowering_action((3, 0, 0)) == {}


class TestChainConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(BadFamilyParams):
            build_chain(Family.KL_Z, 0, 3)
        with pytest.raises(BadFamilyParams):
            build_chain(Family.AIRY_Z, 1, 2)
        with pytest.raises(BadFamilyParams):
            build_chain(Family.V21, 2, 4)

    def test_slice_dims_2_2(self):
        chain = build_chain(Family.KL_Z, 2, 2)
        # degree d slice: monomials z^a v^I with 3a + wt(I) = d, |I| = 2
        assert [len(chain.slice_monomials(d)) for d in range(6)] == [1, 1, 2, 2, 2, 2]

    def test_theta_bar_raises_degree_by_one(self):
        chain = build_chain(Family.KL_Z, 2, 3)
        for d in range(5):
            tgt = set(chain.slice_monomials(d + 1))
            for mono in chain.slice_monomials(d):
                img = chain.theta_bar_mono(mono)
                assert set(img) <= tgt, (d, mono)

    def test_tilde_slices_stabilize(self):
        chain = build_chain(Family.KL_TILDE_T, 2, 3)
        sizes = [len(chain.slice_monomials(d)) for d in range(9)]
        # t-chart slices grow until every multi-index is reachable, then stop
        assert sizes == [1, 2, 4, 6, 8, 9, 10, 10, 10]

    def test_airy_chain_has_n_slots(self):
        chain = build_chain(Family.AIRY_Z, 3, 2)
        assert all(len(ix) == 3 for ix in chain.labels)


def cycloint_eigenvector_product(n, index):
    """prod_i f_i^{index[i]} expanded from scratch in Z[zeta_m], m = n + 1."""
    m = n + 1

    def zeta(e):
        unit = [0] * m
        unit[e % m] = 1
        return CycloInt.from_exponents(m, tuple(unit))

    acc = {(0, (0,) * m): zeta(0)}
    for i in range(m):
        for _ in range(index[i]):
            nxt = {}
            for (a, jj), c in acc.items():
                for slot in range(m):
                    tgt = list(jj)
                    tgt[slot] += 1
                    key = (a + n - slot, tuple(tgt))
                    add = c * zeta(i * (n - slot))
                    nxt[key] = nxt[key] + add if key in nxt else add
            acc = nxt
    return {key: c for key, c in acc.items() if c}


def unpack(packing, value):
    """The coefficients a_e, all |a_e| < 2^{B-1}, of the element of Z[C_m] with this residue."""
    v = value % packing.modulus
    if 2 * v > packing.modulus:
        v -= packing.modulus
    low, half = (1 << packing.width) - 1, 1 << (packing.width - 1)
    out = []
    for _ in range(packing.m):
        d = v & low
        v >>= packing.width
        if d >= half:
            d -= 1 << packing.width
            v += 1
        out.append(d)
    return tuple(out)


class TestEigenvectors:
    def test_product_is_homogeneous(self):
        for index in weak_compositions(3, 3):
            vec = cycloint_eigenvector_product(2, index)
            assert vec
            for (a, jj), c in vec.items():
                assert a + weight(jj) == 6
                assert isinstance(c, CycloInt)

    def test_single_factor_expansion(self):
        # f_0 with n = 1: v_0 zeta^0 t + v_1, all coefficients rational
        vec = cycloint_eigenvector_product(1, (1, 0))
        assert set(vec) == {(1, (1, 0)), (0, (0, 1))}

    def test_products_match_cycloint_expansion(self):
        # group-ring products, reduced once per key, against the expansion in
        # Z[zeta_m] with one CycloInt multiply per term and slot
        for n in (1, 2, 3):
            m = n + 1
            for k in range(1, 7):
                packing = GroupRingPacking(m, (m ** k).bit_length() + 1)
                shared = dict(group_ring_eigenvector_products(n, k, packing))
                labels = list(weak_compositions(k, m))
                assert list(shared) == labels
                for index in labels:
                    want = cycloint_eigenvector_product(n, index)
                    reduced = {(n * k - weight(jj), jj):
                               CycloInt.from_exponents(m, unpack(packing, v))
                               for jj, v in zip(labels, shared[index])}
                    assert {key: c for key, c in reduced.items() if c} == want, (n, k, index)

    def test_products_need_room_in_the_packing(self):
        # 3^4 = 81 needs 2^{B-1} > 81, so B = 8 is the least width
        assert len(dict(group_ring_eigenvector_products(2, 4, GroupRingPacking(3, 8)))) == 15
        with pytest.raises(ValueError):
            next(group_ring_eigenvector_products(2, 4, GroupRingPacking(3, 7)))
        with pytest.raises(ValueError):
            next(group_ring_eigenvector_products(2, 4, GroupRingPacking(4, 8)))

    def test_eta_power_is_integral(self):
        vec = eta_power_vector(3)
        assert all(isinstance(c, int) for c in vec.values())
        # eta = z^2 v0^3 + z v1^3 + v2^3 - 3 z v0 v1 v2 in the z chart reads
        # t^6 v0^3 + t^3 v1^3 + v2^3 - 3 t^3 v0 v1 v2 in t powers
        assert vec == {(6, (3, 0, 0)): 1, (3, (0, 3, 0)): 1,
                       (0, (0, 0, 3)): 1, (3, (1, 1, 1)): -3}

    @pytest.mark.parametrize("k", range(3, 31, 3))
    def test_eta_power_matches_cycloint_expansion(self, k):
        # the norm form raised to k/3 against f_0^{k/3} f_1^{k/3} f_2^{k/3} in
        # Z[zeta_3], whose coefficients all lie in Z
        want = cycloint_eigenvector_product(2, (k // 3,) * 3)
        vec = eta_power_vector(k)
        assert set(vec) == set(want)
        for key, c in want.items():
            assert c.coeffs == (vec[key], 0), key

    def test_eta_power_needs_divisibility(self):
        with pytest.raises(BadFamilyParams):
            eta_power_vector(4)


def test_tower_slice_degrees():
    chain = build_chain(Family.KL_Z, 2, 3)
    assert chain.tower is not None
    assert chain.tower_slice(5) is None
    assert chain.tower_slice(6) is not None
    assert chain.tower_slice(7) is None
    assert chain.tower_slice(9) is not None  # z * eta


def test_no_tower_outside_divisible_case():
    assert build_chain(Family.KL_Z, 2, 4).tower is None
    assert build_chain(Family.KL_Z, 3, 3).tower is None


@pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (2, 5), (3, 5)])
def test_coker_dims_match_steps_coprime(n, k):
    chain = build_chain(Family.KL_Z, n, k)
    dims = coker_slice_dims(chain)
    assert dims == [lattice_step(n, k, d) for d in range(len(dims))]
    assert sum(dims) == dims_kl(n, k).dim_h1


def test_kernel_dims_tilde():
    chain = build_chain(Family.KL_TILDE_T, 2, 3)
    dims = kernel_slice_dims(chain)
    dk = vanishing_tuple_count(3, 3)
    assert dims == [(dk if d >= 6 else 0) for d in range(len(dims))]


def test_kernel_dims_tilde_coprime_all_zero():
    chain = build_chain(Family.KL_TILDE_T, 2, 4)
    assert not any(kernel_slice_dims(chain))


def _cyclic_product(f, g, m):
    out = [0] * m
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[(i + j) % m] += a * b
    return out


def _packed_case(max_coeff):
    """(m, width, coefficient tuple) with m = 2..12 and |coefficients| <= max_coeff(width)."""
    return st.tuples(st.integers(2, 12), st.integers(2, 40)).flatmap(
        lambda mw: st.tuples(st.just(mw[0]), st.just(mw[1]), st.lists(
            st.integers(-max_coeff(mw[1]), max_coeff(mw[1])), min_size=mw[0], max_size=mw[0])))


class TestGroupRingPacking:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_psi_completes_phi_to_x_m_minus_1(self, m):
        assert _psi(m)[-1] == 1
        x_m_minus_1 = [-1] + [0] * (m - 1) + [1] + [0] * (m - 1)
        assert _cyclic_product(cyclotomic_poly(m), _psi(m), 2 * m) == x_m_minus_1

    @given(_packed_case(lambda width: (1 << width - 1) - 1), st.integers(0, 40))
    def test_rotation_is_multiplication_by_x_power(self, case, i):
        # f_i times a constant c puts c x^{i(n-s)} at v_s: one rotation per slot
        m, width, coeffs = case
        packing = GroupRingPacking(m, width)
        value = packing.pack(coeffs)
        out = _packed_times_eigenvector([value], _raise_tables(m, 1)[0], packing, i)
        for s in range(m):
            e = i * (m - 1 - s) % m
            x_power = packing.pack([int(r == e) for r in range(m)])
            # levels[1] lists e_{m-1}, ..., e_0
            assert out[m - 1 - s] == value * x_power % packing.modulus
            assert unpack(packing, out[m - 1 - s]) == tuple(coeffs[(r - e) % m] for r in range(m))

    @given(_packed_case(lambda width: 60), st.booleans())
    def test_psi_test_agrees_with_cycloint(self, case, times_phi):
        # half the cases are multiples of Phi_m, which vanish at zeta_m
        m, _, coeffs = case
        if times_phi:
            coeffs = _cyclic_product(coeffs, cyclotomic_poly(m), m)
        bound = sum(map(abs, _psi(m))) * max(1, *map(abs, coeffs))
        packing = GroupRingPacking(m, bound.bit_length() + 2)
        want = not CycloInt.from_exponents(m, tuple(coeffs))
        assert packing.all_vanish_mod_phi([packing.pack(coeffs)]) == want
        assert want or not times_phi

    @given(st.integers(2, 12), st.integers(2, 64), st.data())
    def test_extreme_coefficients_round_trip(self, m, width, data):
        top = (1 << width - 1) - 1
        coeffs = tuple(data.draw(st.lists(st.sampled_from([-top, top]), min_size=m, max_size=m)))
        packing = GroupRingPacking(m, width)
        value = packing.pack(coeffs)
        assert value
        assert unpack(packing, value) == coeffs


class TestBases:
    def test_full_basis_coprime_matches_steps(self):
        chain = build_chain(Family.KL_Z, 2, 4)
        full, _ = cohomology_bases(chain)
        assert full.cardinalities() == {d: lattice_step(2, 4, d)
                                        for d in range(7) if lattice_step(2, 4, d)}
        assert full.total() == dims_kl(2, 4).dim_h1

    def test_full_basis_tower_case(self):
        chain = build_chain(Family.KL_Z, 2, 6)
        full, _ = cohomology_bases(chain)
        assert full.cardinalities() == {0: 1, 2: 1, 3: 1, 4: 1, 5: 1,
                                        6: 2, 8: 1, 9: 1}

    def test_middle_basis_drops_local_solutions(self):
        chain = build_chain(Family.KL_Z, 2, 4)
        rep = dims_kl(2, 4)
        _, mid = cohomology_bases(chain)
        assert mid.total() == rep.dim_mid
        w = 2 * 4 + 1
        cards = mid.cardinalities()
        assert all(cards.get(d, 0) == cards.get(w - d, 0) for d in range(w + 1))

    def test_middle_basis_tower_case_low_half(self):
        chain = build_chain(Family.KL_Z, 2, 6)
        _, mid = cohomology_bases(chain)
        cards = mid.cardinalities()
        assert cards == {3: 1, 5: 1, 8: 1, 9: 1}
        low = sum(c for d, c in cards.items() if d <= 6)
        assert 2 * low == mid.total()

    @pytest.mark.parametrize("n,k", [(2, 4), (2, 6), (3, 5)])
    def test_middle_vectors_are_homogeneous_off_z0(self, n, k):
        # every middle representative carries its nominal degree and avoids
        # the z^0 layer, where the local solutions at 0 live
        chain = build_chain(Family.KL_Z, n, k)
        _, mid = cohomology_bases(chain)
        seen = 0
        for d, vecs in mid.vectors.items():
            for vec in vecs:
                assert vec, d
                seen += 1
                for (a, j), c in vec.items():
                    assert a > 0
                    assert chain.zweight * a + chain.weights[j] == d
        assert seen == mid.total()

    def test_tilde_basis_totals(self):
        chain = build_chain(Family.KL_TILDE_T, 2, 3)
        rep = dims_kl(2, 3, Family.KL_TILDE_T)
        full, mid = cohomology_bases(chain)
        assert full.total() == rep.dim_h1 == 9
        assert mid.total() == rep.dim_mid == 6
        assert full.cardinalities() == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1}
        assert mid.cardinalities() == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1}


class TestShiftOperator:
    @pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (2, 5), (3, 3)])
    def test_jordan_blocks_match_multiplicities(self, n, k):
        expected = {}
        for d in range((n * k) // 2 + 1):
            q = block_multiplicity(n, k, d)
            if q:
                expected[n * k - 2 * d + 1] = expected.get(n * k - 2 * d + 1, 0) + q
        assert jordan_block_sizes(build_chain(Family.KL_Z, n, k)) == expected

    @pytest.mark.parametrize("n,k", [(1, 5), (2, 4), (3, 2)])
    def test_coker_of_shift_counts_bottoms(self, n, k):
        chain = build_chain(Family.KL_Z, n, k)
        got = shift_coker_dims(chain)
        assert got == [bottom_multiplicity(n, k, d) for d in range(n * k + 1)]
        assert sum(got) == sum(jordan_block_sizes(chain).values())


# The per-slice construction: theta_bar rows in slice coordinates and one
# fresh echelon per degree.  The library keeps one echelon per residue class
# of the degree mod zweight instead; both must give the same dims and bases.

def _slice_index(chain, d):
    return {mono: i for i, mono in enumerate(chain.slice_monomials(d))}


def _slice_rows(chain, d):
    """theta_bar of slice d as index vectors of slice d+1, top z-power first."""
    tgt = _slice_index(chain, d + 1)
    return [{tgt[t]: c for t, c in chain.theta_bar_mono(mono).items() if c}
            for mono in reversed(chain.slice_monomials(d))]


def _layer(chain, w):
    return [j for j, wj in enumerate(chain.weights) if wj == w]


def _slice_quotient(chain, d):
    ech = SparseEchelon()
    for row in (_slice_rows(chain, d - 1) if d else []):
        ech.add_row(row)
    idx = _slice_index(chain, d)
    tow = chain.tower_slice(d)
    if tow is not None:
        ech.add_row({idx[mono]: c for mono, c in tow.items()})
    return ech, idx, [mono for mono, i in idx.items() if i not in ech.rows]


def _slice_full(chain):
    return {d: tuple({mono: 1} for mono in _slice_quotient(chain, d)[2])
            for d in range(chain.max_degree + 1)}


def _slice_middle(chain):
    line = None
    if chain.tower is not None:
        a = chain.k // chain.zweight
        line = (a, chain.labels.index((chain.k,) + (0,) * (len(chain.labels[0]) - 1)))
    vectors = {}
    for d in range(chain.max_degree + 1):
        ech, idx, reps = _slice_quotient(chain, d)
        shift = SparseEchelon()
        for j in _layer(chain, d - 1):
            shift.add_row(chain.nmat[j])
        for j in _layer(chain, d):
            if j not in shift.rows:
                ech.add_row({idx[(0, j)]: 1})
        if line is not None and d == chain.k:
            ech.add_row({idx[line]: 1})
        chosen = []
        for mono in reps:
            if ech.add_row({idx[mono]: 1}):
                # a z^0 choice would need rewriting through N; none is ever made
                assert mono[0] > 0, (d, mono)
                chosen.append({mono: 1})
        vectors[d] = tuple(chosen)
    return vectors


SLICE_CASES = [
    (Family.KL_Z, 1, 5), (Family.KL_Z, 2, 3), (Family.KL_Z, 2, 4), (Family.KL_Z, 2, 6),
    (Family.KL_Z, 2, 9), (Family.KL_Z, 2, 12), (Family.KL_Z, 3, 5), (Family.KL_Z, 4, 3),
    (Family.KL_TILDE_T, 2, 3), (Family.KL_TILDE_T, 2, 5), (Family.KL_TILDE_T, 2, 6),
    (Family.KL_TILDE_T, 2, 9), (Family.KL_TILDE_T, 2, 12), (Family.KL_TILDE_T, 3, 3),
    (Family.AIRY_Z, 3, 5), (Family.AIRY_Z, 4, 3), (Family.AIRY_Z, 5, 4),
    (Family.V21, 2, 4),
]


def _chain(family, n, k):
    return v21_chain() if family is Family.V21 else build_chain(family, n, k)


CERTIFICATE_CASES = [
    (Family.KL_Z, 2, 5), (Family.KL_Z, 3, 7), (Family.KL_Z, 4, 8),
    (Family.AIRY_Z, 3, 5), (Family.AIRY_Z, 4, 5), (Family.KL_TILDE_T, 2, 4),
    (Family.V21, 2, 4),
]


@pytest.mark.parametrize("family,n,k", CERTIFICATE_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in CERTIFICATE_CASES])
def test_sl2_certificate_matches_oracles(family, n, k):
    # the Jordan type from the ranks of the powers of N, and coker(N) per
    # weight from the rank of N on the weight below
    chain = _chain(family, n, k)
    assert jordan_block_sizes(chain) == jordan_type(chain.nmat, len(chain.weights))
    assert shift_coker_dims(chain) == [
        len(_layer(chain, w)) - matrix_rank(chain.nmat[j] for j in _layer(chain, w - 1))
        for w in range(n * k + 1)]


def test_doubled_shift_fails_the_certificate():
    # 2N has the same Jordan type, but (2N, F) is no sl2 triple for this grading
    chain = build_chain(Family.KL_Z, 2, 4)
    chain.nmat = [{i: 2 * c for i, c in col.items()} for col in chain.nmat]
    with pytest.raises(Sl2CertificateFailed):
        jordan_block_sizes(chain)
    with pytest.raises(Sl2CertificateFailed):
        shift_coker_dims(chain)


@pytest.mark.parametrize("family,n,k", SLICE_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in SLICE_CASES])
def test_residue_class_echelons_match_per_slice(family, n, k):
    chain = _chain(family, n, k)
    top = chain.max_degree
    assert top == chain.n * chain.k + 2
    assert coker_slice_dims(chain) == [
        len(chain.slice_monomials(d)) - (matrix_rank(_slice_rows(chain, d - 1)) if d else 0)
        for d in range(top + 1)]
    assert kernel_slice_dims(chain) == [
        len(chain.slice_monomials(d)) - matrix_rank(_slice_rows(chain, d)) for d in range(top)]
    full, mid = (basis.vectors for basis in cohomology_bases(chain))
    assert full == _slice_full(chain)
    assert list(full) == list(range(top + 1))
    # airy's middle part is its full cohomology
    assert mid == (full if family is Family.AIRY_Z else _slice_middle(chain))
    assert list(mid) == list(range(top + 1))


OFFER_CASES = [(Family.KL_Z, 3, 5), (Family.KL_Z, 2, 6), (Family.KL_TILDE_T, 2, 6),
               (Family.AIRY_Z, 3, 5), (Family.V21, 2, 4)]


@pytest.mark.parametrize("family,n,k", OFFER_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in OFFER_CASES])
def test_full_basis_offers_each_source_once(monkeypatch, family, n, k):
    # the theta_bar row of each source (0, j) of V goes to the class echelons
    # once per walk, and it is the only row added: both bases are read off
    # the image echelons, the tower through a residual
    chain = _chain(family, n, k)
    sources = []
    theta_bar_row = GradedChain._theta_bar_row

    def counted_theta_bar_row(self, j):
        sources.append(j)
        return theta_bar_row(self, j)

    calls = []
    add_row = SparseEchelon.add_row

    def counted_add_row(self, vec):
        calls.append(vec)
        return add_row(self, vec)

    monkeypatch.setattr(GradedChain, "_theta_bar_row", counted_theta_bar_row)
    monkeypatch.setattr(SparseEchelon, "add_row", counted_add_row)
    cohomology_bases(chain)
    assert sorted(sources) == list(range(len(chain.weights)))
    assert len(calls) == len(chain.weights)
    calls.clear()
    coker_slice_dims(chain)
    assert len(calls) == len(chain.weights)


@pytest.mark.parametrize("family,n,k", OFFER_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in OFFER_CASES])
def test_theta_bar_row_rekeys_theta_bar_mono(family, n, k):
    # the class row read straight off N and E is theta_bar of the source
    # (0, j) with each monomial (a, i) keyed by _kappa[i]: every scale
    # (kl-tilde multiplies by n + 1) and the tower case included
    chain = _chain(family, n, k)
    for j in range(len(chain.weights)):
        image = chain.theta_bar_mono((0, j))
        assert len({i for _, i in image}) == len(image)
        assert chain._theta_bar_row(j) == {chain._kappa[i]: c for (_, i), c in image.items()}
