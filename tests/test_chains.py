"""Graded chain construction, the degree-1 differential, and basis extraction."""

from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, strategies as st

from hodgemoments import chains
from hodgemoments.chains import (
    BadFamilyParams,
    GradedChain,
    GroupRingPacking,
    Sl2CertificateFailed,
    _derivation_columns,
    _image_walk,
    _packed_times_eigenvector,
    _psi,
    _raise_tables,
    _slot_moves,
    _walk_key,
    build_chain,
    cohomology_bases,
    eta_power_vector,
    group_ring_eigenvector_products,
    jordan_block_sizes,
    kernel_slice_dims,
    shift_coker_dims,
    tilde_chain,
)
from hodgemoments.counting import (
    block_multiplicity,
    bottom_multiplicity,
    lattice_step,
)
from hodgemoments.cyclo import CycloInt, cyclotomic_poly, vanishing_tuple_count
from hodgemoments.families import Family, admissible
from hodgemoments.hodge import dims_kl
from hodgemoments.linalg import PRIME, SparseEchelon
from hodgemoments.multiindex import weak_compositions, weight
from hodgemoments.weyl import v21_chain
from test_linalg import jordan_type, matrix_rank
from test_weyl import SLOT_MOVES, projected_space, tensor_derivation


def ezshift(chain):
    """The power of z that theta_bar puts on E: n + 1 in the t chart of kl-tilde, else 1."""
    return chain.n + 1 if chain.family is Family.KL_TILDE_T else 1


def theta_scale(chain):
    """The factor of theta_bar over N + z^e E: n + 1 on kl-tilde, else 1."""
    return chain.n + 1 if chain.family is Family.KL_TILDE_T else 1


def slice_monomials(chain, d):
    """Basis (z_power, j) of the degree-d slice, z_power ascending, so j ascending."""
    if d < 0:
        return []
    return [(a, j) for a in range(d // chain.zweight + 1)
            for j in chain._by_weight.get(d - chain.zweight * a, ())]


def theta_bar_mono(chain, mono):
    """theta_bar of a chain monomial (a, j), as chain monomials one degree up."""
    a, j = mono
    scale = theta_scale(chain)
    out = {}
    for i, c in chain.nmat[j].items():
        out[(a, i)] = out.get((a, i), 0) + scale * c
    for i, c in chain.emat[j].items():
        key = (a + ezshift(chain), i)
        out[key] = out.get(key, 0) + scale * c
    return out


def tower_slice(chain, d):
    """The tower element z^r eta of degree d = 2k + r zweight as chain monomials, or None."""
    if chain.tower is None or d < 2 * chain.k or (d - 2 * chain.k) % chain.zweight:
        return None
    return {((d - chain.weights[j]) // chain.zweight, j): c for j, c in chain.tower.items()}


def class_image_echelons(chain, modulus=None):
    """Yield (d, echelon of im theta_bar in degree d) for d = 0..max_degree.

    One echelon per residue class of d mod zweight, columns keyed by the
    index j in V, layers in ascending weight and j descending inside a
    layer: the walk the library keeps only as the degree each pivot is born.
    Over Z by default, which makes it the oracle of the walk mod PRIME.
    """
    for r in range(chain.zweight):
        ech = SparseEchelon(modulus)
        for d in range(r, chain.max_degree + 1, chain.zweight):
            for j in reversed(chain._by_weight.get(d - 1, ())):
                ech.add_row(chain._theta_bar_row(j))
            yield d, ech


def coker_slice_dims(chain):
    """dim coker(theta_bar: slice d-1 -> slice d) for d = 0..max_degree, from the class echelons."""
    out = [0] * (chain.max_degree + 1)
    for d, image in class_image_echelons(chain):
        out[d] = len(slice_monomials(chain, d)) - image.rank
    return out


def _leibniz(index, move):
    """The derivation v_i -> c * v_t, (t, c) = move(i, m) or None, on one monomial v^I.

    The per-label oracle of the library's raise-table columns: each nonzero
    slot of I moves on its own, with coefficient I_i * c.
    """
    out = {}
    for i in [i for i, e in enumerate(index) if e]:
        if (tc := move(i, len(index))) is not None:
            tgt = list(index)
            tgt[i] -= 1
            tgt[tc[0]] += 1
            out[tuple(tgt)] = index[i] * tc[1]
    return out


def shift_action(index):
    """The shift v_i -> v_{i+1} on a monomial v^I."""
    return _leibniz(index, lambda i, m: (i + 1, 1) if i < m - 1 else None)


def corner_action(index):
    """The corner v_{m-1} -> v_0 on a monomial v^I."""
    return _leibniz(index, lambda i, m: (0, 1) if i == m - 1 else None)


def _lowering_action(index):
    """The lowering v_i -> i(m-i) v_{i-1}, so that NF - FN = 2wt - k(m-1)."""
    return _leibniz(index, lambda i, m: (i - 1, i * (m - i)) if i else None)


@pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 7) for k in range(1, 9)]
                         + [(1001, 1), (201, 2)])
def test_derivation_columns_match_the_leibniz_oracle(m, k):
    # N, E and F read off one raise table equal the per-label Leibniz rule; the
    # labels come reversed, so that no order of the library's is assumed
    labels = list(weak_compositions(k, m))[::-1]
    pos = {ix: j for j, ix in enumerate(labels)}
    got = _derivation_columns(labels, pos, _slot_moves(m))
    for cols, action in zip(got, (shift_action, corner_action, _lowering_action), strict=True):
        assert cols == [{pos[t]: c for t, c in action(ix).items()} for ix in labels]


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
        assert [len(slice_monomials(chain, d)) for d in range(6)] == [1, 1, 2, 2, 2, 2]

    def test_theta_bar_raises_degree_by_one(self):
        chain = build_chain(Family.KL_Z, 2, 3)
        for d in range(5):
            tgt = set(slice_monomials(chain, d + 1))
            for mono in slice_monomials(chain, d):
                img = theta_bar_mono(chain, mono)
                assert set(img) <= tgt, (d, mono)

    def test_tilde_slices_stabilize(self):
        chain = build_chain(Family.KL_TILDE_T, 2, 3)
        sizes = [len(slice_monomials(chain, d)) for d in range(9)]
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
                labels = build_chain(Family.KL_TILDE_T, n, k).labels
                shared = dict(group_ring_eigenvector_products(labels, packing))
                # the I come lexicographically, each f_I in the chain's label order
                assert list(shared) == list(weak_compositions(k, m))
                for index in shared:
                    want = cycloint_eigenvector_product(n, index)
                    reduced = {(n * k - weight(jj), jj):
                               CycloInt.from_exponents(m, unpack(packing, v))
                               for jj, v in zip(labels, shared[index])}
                    assert {key: c for key, c in reduced.items() if c} == want, (n, k, index)

    def test_products_need_room_in_the_packing(self):
        # 3^4 = 81 needs 2^{B-1} > 81, so B = 8 is the least width
        labels = build_chain(Family.KL_TILDE_T, 2, 4).labels
        assert len(dict(group_ring_eigenvector_products(labels, GroupRingPacking(3, 8)))) == 15
        with pytest.raises(ValueError):
            next(group_ring_eigenvector_products(labels, GroupRingPacking(3, 7)))
        with pytest.raises(ValueError):
            next(group_ring_eigenvector_products(labels, GroupRingPacking(4, 8)))

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

    @pytest.mark.parametrize("k", range(3, 31, 3))
    def test_eta_power_terms_fix_their_z_power(self, k):
        # every term t^a v^J has degree a + wt(J) = 2k, so in one degree J
        # alone fixes the term, and 3 | a, so it is z^{a/3} v^J in the z chart
        for a, jj in eta_power_vector(k):
            assert a + weight(jj) == 2 * k and a % 3 == 0, (a, jj)

    def test_eta_power_needs_divisibility(self):
        with pytest.raises(BadFamilyParams):
            eta_power_vector(4)


ORDER_CASES = [(Family.KL_Z, 1, 6), (Family.KL_Z, 2, 6), (Family.KL_Z, 4, 5),
               (Family.KL_TILDE_T, 2, 6), (Family.KL_TILDE_T, 3, 4),
               (Family.AIRY_Z, 3, 5), (Family.AIRY_Z, 5, 4), (Family.V21, 2, 4)]


@pytest.mark.parametrize("family,n,k", ORDER_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in ORDER_CASES])
def test_chains_are_stored_in_slice_order(family, n, k):
    # weights never increase and labels ascend within a weight, so the
    # monomials of every slice come with their indices ascending: an index
    # of V is its monomial's column key
    chain = _chain(family, n, k)
    assert all(a >= b for a, b in zip(chain.weights, chain.weights[1:]))
    for w, layer in chain._by_weight.items():
        labels = [chain.labels[j] for j in layer]
        assert labels == sorted(labels) and len(set(labels)) == len(labels), w
    for d in range(chain.max_degree + 1):
        keys = [j for _, j in slice_monomials(chain, d)]
        assert keys == sorted(keys), d


def test_v21_labels_are_projected_indices():
    # the V21 chain permutes the projected basis, keeping each vector's
    # weight, and its N, E and F columns are the tensor derivations on the
    # image vectors that its labels name
    chain = v21_chain()
    vectors, weights = projected_space()
    assert sorted(chain.labels) == list(range(len(vectors)))
    assert chain.weights == [weights[t] for t in chain.labels]
    for mat, moves in zip((chain.nmat, chain.emat, chain.fmat), SLOT_MOVES):
        for j, col in enumerate(mat):
            combined = {}
            for i, c in col.items():
                for u, a in vectors[chain.labels[i]].items():
                    combined[u] = combined.get(u, 0) + c * a
            assert {u: a for u, a in combined.items() if a} == tensor_derivation(
                vectors[chain.labels[j]], moves), (moves, j)


def test_tower_slice_degrees():
    chain = build_chain(Family.KL_Z, 2, 3)
    assert chain.tower is not None
    assert tower_slice(chain, 5) is None
    assert tower_slice(chain, 6) is not None
    assert tower_slice(chain, 7) is None
    assert tower_slice(chain, 9) is not None  # z * eta


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
        out = _packed_times_eigenvector([value], _raise_tables(list(weak_compositions(1, m)))[0],
                                        packing, i)
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
        for d, monos in mid.vectors.items():
            for a, j in monos:
                seen += 1
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
    return {mono: i for i, mono in enumerate(slice_monomials(chain, d))}


def _slice_rows(chain, d):
    """theta_bar of slice d as index vectors of slice d+1, top z-power first."""
    tgt = _slice_index(chain, d + 1)
    return [{tgt[t]: c for t, c in theta_bar_mono(chain, mono).items() if c}
            for mono in reversed(slice_monomials(chain, d))]


def _layer(chain, w):
    return [j for j, wj in enumerate(chain.weights) if wj == w]


def _slice_quotient(chain, d):
    ech = SparseEchelon()
    for row in (_slice_rows(chain, d - 1) if d else []):
        ech.add_row(row)
    idx = _slice_index(chain, d)
    tow = tower_slice(chain, d)
    if tow is not None:
        ech.add_row({idx[mono]: c for mono, c in tow.items()})
    return ech, idx, [mono for mono, i in idx.items() if i not in ech.rows]


def _slice_full(chain):
    return {d: tuple(_slice_quotient(chain, d)[2])
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
            if ech.add_row({idx[mono]: 1}) is not None:
                # a z^0 choice would need rewriting through N; none is ever made
                assert mono[0] > 0, (d, mono)
                chosen.append(mono)
        vectors[d] = tuple(chosen)
    return vectors


SLICE_CASES = [
    (Family.KL_Z, 1, 5), (Family.KL_Z, 2, 3), (Family.KL_Z, 2, 4), (Family.KL_Z, 2, 6),
    (Family.KL_Z, 2, 9), (Family.KL_Z, 2, 12), (Family.KL_Z, 3, 5), (Family.KL_Z, 4, 3),
    (Family.KL_TILDE_T, 2, 3), (Family.KL_TILDE_T, 2, 5), (Family.KL_TILDE_T, 2, 6),
    (Family.KL_TILDE_T, 2, 9), (Family.KL_TILDE_T, 2, 12), (Family.KL_TILDE_T, 3, 3),
    (Family.AIRY_Z, 3, 5), (Family.AIRY_Z, 4, 3), (Family.AIRY_Z, 5, 4),
    (Family.V21, 2, 4),
    # thin chains, where one index carries many z-powers; kl (2, 30) has a tower
    (Family.KL_Z, 1, 41), (Family.KL_Z, 2, 31), (Family.KL_Z, 2, 30),
    (Family.KL_TILDE_T, 1, 21), (Family.AIRY_Z, 2, 41),
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
        len(slice_monomials(chain, d)) - (matrix_rank(_slice_rows(chain, d - 1)) if d else 0)
        for d in range(top + 1)]
    assert kernel_slice_dims(chain) == [
        len(slice_monomials(chain, d)) - matrix_rank(_slice_rows(chain, d)) for d in range(top)]
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
    # the image echelons, the tower through a residual.  The kernel dims read
    # the same walk and offer nothing
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
    kernel_slice_dims(chain)
    assert calls == []
    coker_slice_dims(chain)
    assert len(calls) == len(chain.weights)


@pytest.mark.parametrize("family,n,k", OFFER_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in OFFER_CASES])
def test_theta_bar_row_rekeys_theta_bar_mono(family, n, k):
    # the class row read straight off N and E is theta_bar of any source
    # (a, j) with each monomial (b, i) keyed by its index i in V, over its
    # factor (kl-tilde multiplies by n + 1); the tower case included
    chain = _chain(family, n, k)
    scale = theta_scale(chain)
    for j in range(len(chain.weights)):
        for a in (0, 2):
            image = theta_bar_mono(chain, (a, j))
            assert len({i for _, i in image}) == len(image)
            assert {i: scale * c for i, c in chain._theta_bar_row(j).items()} == {
                i: c for (_, i), c in image.items()}


# the slice cases, two long walks, whose degrees pass 255, and a kl-tilde grid,
# admissible or not: the oracle walks kl-tilde in one class, the library reads kl's walk
WALK_CASES = SLICE_CASES + [(Family.KL_Z, 1, 255), (Family.KL_TILDE_T, 1, 255)] + [
    (Family.KL_TILDE_T, n, k) for n in range(1, 4) for k in range(1, 9)
    if (Family.KL_TILDE_T, n, k) not in SLICE_CASES]


@pytest.mark.parametrize("family,n,k", WALK_CASES,
                         ids=[f"{f.value}-{n}-{k}" for f, n, k in WALK_CASES])
def test_walk_reads_the_class_echelons(family, n, k):
    # born[c] is the degree where key c joins the pivots of its class echelon,
    # and extra the leading column of the tower's residual in each tower degree
    chain = _chain(family, n, k)
    born, extra = _image_walk(chain)
    extra, zweight = dict(extra), chain.zweight
    for d, image in class_image_echelons(chain):
        assert set(image.rows) == {c for c, b in enumerate(born)
                                   if 0 < b <= d and (d - b) % zweight == 0}, d
        tower = tower_slice(chain, d)
        want = None if tower is None else min(image.residual(
            {j: c for (_, j), c in tower.items()}), default=None)
        assert extra.get(d) == want, d


def test_walk_records_key_0():
    # key 0 is v_2^4, the top weight of kl (2, 4); N(v_1 v_2^3) reaches it from
    # the weight 7 layer, which enters in degree 8.  A pivot 0 read as falsy
    # would leave it unborn
    chain = build_chain(Family.KL_Z, 2, 4)
    assert chain.labels[0] == (0, 0, 4)
    assert _image_walk(chain)[0][0] == 8


def test_walk_holds_degrees_past_255():
    # in kl (1, 255) the top layer, v_1^255 of weight 255, enters in degree
    # 256, where E takes it to a key of weight 254
    chain = build_chain(Family.KL_Z, 1, 255)
    born, _ = _image_walk(chain)
    assert max(born) == 256
    full, _ = cohomology_bases(chain)
    assert [len(reps) for reps in full.vectors.values()] == coker_slice_dims(chain)


# every (n, k) with dim V <= 300 on the grid n <= 7, k <= 12
AIRY_KL_GRID = [(n, k) for n in range(1, 8) for k in range(1, 13) if comb(n + k, n) <= 300]


def test_rank_n_airy_chain_is_the_rank_n_kloosterman_chain():
    # airy (n + 1, k) and kl (n, k) share m = n + 1 slots and zweight n + 1,
    # so their walks are one; kl's tower parts them
    for n, k in AIRY_KL_GRID:
        airy, kl = build_chain(Family.AIRY_Z, n + 1, k), build_chain(Family.KL_Z, n, k)
        for name in ("labels", "weights", "nmat", "emat", "zweight"):
            assert getattr(airy, name) == getattr(kl, name), (n, k, name)
        assert (_walk_key(airy) == _walk_key(kl)) == (kl.tower is None), (n, k)


def test_tilde_walks_on_the_kl_grading():
    # the kl-tilde chain's own walk is its kl chain's, tower degrees included,
    # so the one they share does not depend on which of them takes it first
    for n, k in [(1, 5), (2, 5), (2, 6), (2, 9), (3, 5)]:
        kl = build_chain(Family.KL_Z, n, k)
        assert chains._walk_images(tilde_chain(kl)) == chains._walk_images(kl), (n, k)


def test_walk_keys_part_what_the_walk_reads():
    # the tower: kl (2, 3) has one, airy (3, 3) has the same slots and none
    assert _walk_key(build_chain(Family.KL_Z, 2, 3)) != _walk_key(build_chain(Family.AIRY_Z, 3, 3))
    # not the chart: kl-tilde is m copies of kl in the t chart, tower included
    for n, k in AIRY_KL_GRID:
        assert (_walk_key(build_chain(Family.KL_Z, n, k))
                == _walk_key(build_chain(Family.KL_TILDE_T, n, k))), (n, k)
    # the space: V21 lives in a projected space, kl (2, 4) on the same m, k
    assert _walk_key(v21_chain()) != _walk_key(build_chain(Family.KL_Z, 2, 4))


# every admissible point with dim V <= 300, kl first, so that kl-tilde (n, k)
# and airy (n + 1, k) find the walk of kl (n, k); and V21
MEMO_POINTS = [(family, n, k) for family in (Family.KL_Z, Family.KL_TILDE_T, Family.AIRY_Z)
               for n in range(1, 8) for k in range(1, 13)
               if admissible(family, n, k)
               and comb(n + k - (family is Family.AIRY_Z), k) <= 300]
MEMO_POINTS.append((Family.V21, 2, 4))


def _answers(chain):
    """Both bases, key order kept, or the basis route's error; and the kernel dims."""
    try:
        bases = [list(basis.vectors.items()) for basis in cohomology_bases(chain)]
    except RuntimeError as err:  # airy (6, 5), past the basis route's range
        bases = str(err)
    return bases, kernel_slice_dims(chain)


def test_memo_hit_gives_the_cold_answers(monkeypatch):
    built = {point: _chain(*point) for point in MEMO_POINTS}
    cold = {}
    for point, chain in built.items():
        chains._IMAGE_WALKS.clear()
        bases, _ = _answers(chain)
        chains._IMAGE_WALKS.clear()
        cold[point] = bases, kernel_slice_dims(chain)
    chains._IMAGE_WALKS.clear()
    offered = []
    add_row = SparseEchelon.add_row

    def counted_add_row(self, vec):
        offered.append(vec)
        return add_row(self, vec)

    monkeypatch.setattr(SparseEchelon, "add_row", counted_add_row)
    shared = 0
    for point, chain in built.items():
        hit = _walk_key(chain) in chains._IMAGE_WALKS
        offered.clear()
        assert _answers(chain) == cold[point], point
        assert bool(offered) != hit, point
        shared += hit
    # the hits are every kl-tilde point, after its kl point (the gate is one),
    # and the airy points (n + 1, k) after a kl (n, k) without a tower
    tildes = sum(family is Family.KL_TILDE_T for family, _, _ in built)
    assert all((Family.KL_Z, n, k) in built for family, n, k in built
               if family is Family.KL_TILDE_T)
    partners = sum(built.get((Family.KL_Z, n - 1, k)) is not None
                   and built[(Family.KL_Z, n - 1, k)].tower is None
                   for family, n, k in built if family is Family.AIRY_Z)
    assert shared == tildes + partners and tildes > 0 and partners > 0
    offered.clear()
    for point, chain in built.items():
        assert _answers(chain) == cold[point], point
    assert offered == []


def exact_walk(chain):
    """(born, extra) of a kl or airy chain, read off the class echelons over Z degree by degree."""
    born, extra = [0] * len(chain.weights), []
    for d, image in class_image_echelons(chain):
        for c in image.rows:
            born[c] = born[c] or d
        tower = tower_slice(chain, d)
        if tower is not None:
            residual = image.residual({j: c for (_, j), c in tower.items()})
            if residual:
                extra.append((d, min(residual)))
    return tuple(born), tuple(extra)


def spy_moduli(monkeypatch):
    """Record the modulus of every echelon the walk makes, in order."""
    made = []
    echelon = chains.SparseEchelon

    def spy(modulus=None):
        made.append(modulus)
        return echelon(modulus)

    monkeypatch.setattr(chains, "SparseEchelon", spy)
    return made


def fallbacks(made, prime):
    """(classes certified mod prime, classes walked again over Z) in a list of moduli."""
    tried = [i for i, modulus in enumerate(made) if modulus == prime]
    again = sum(i + 1 < len(made) and made[i + 1] is None for i in tried)
    return len(tried) - again, again


# every admissible kl and airy point with n <= 12, k <= 30 and dim V <= 1500
GRID_POINTS = [(family, n, k) for family in (Family.KL_Z, Family.AIRY_Z)
               for n in range(1, 13) for k in range(1, 31)
               if admissible(family, n, k)
               and comb(n + k - (family is Family.AIRY_Z), k) <= 1500]


def test_modular_walk_matches_the_exact_walk_on_the_grid(monkeypatch):
    # the 163 grid points share 89 walk keys; kl (2, 101) is thin, and its
    # entries over Z reach thousands of bits.  The walk mod PRIME certifies
    # every class without a tower; the tower chains (2, 3j) walk two classes
    # over Z, and the airy keys (6, 5) and (6, 7), which the gate still
    # admits, fall back in all six
    keyed = {}
    for point in GRID_POINTS + [(Family.KL_Z, 2, 101)]:
        chain = build_chain(*point)
        keyed.setdefault(_walk_key(chain), chain)
    assert len(GRID_POINTS) == 163 and len(keyed) == 90
    made = spy_moduli(monkeypatch)
    over_z = {}
    for key, chain in keyed.items():
        made.clear()
        assert chains._walk_images(chain) == exact_walk(chain), key
        over_z[key] = fallbacks(made, PRIME)[1], made.count(None)
    assert {key: z for key, z in over_z.items() if z != (0, 2 * key[2])} == {
        (6, 5, False): (6, 6), (6, 7, False): (6, 6)}


def _spans_every_cokernel(chain, full):
    """Whether each degree's representatives, the image and the tower span the slice over Q."""
    for d, reps in full.vectors.items():
        ech, idx, _ = _slice_quotient(chain, d)
        for mono in reps:
            ech.add_row({idx[mono]: 1})
        if ech.rank != len(idx):
            return False
    return True


TINY_PRIME_POINTS = [(Family.KL_Z, 1, 5), (Family.KL_Z, 2, 4), (Family.KL_Z, 2, 6),
                     (Family.KL_Z, 3, 5), (Family.KL_Z, 4, 3), (Family.KL_TILDE_T, 2, 5),
                     (Family.AIRY_Z, 3, 5), (Family.AIRY_Z, 5, 4), (Family.V21, 2, 4)]


def test_tiny_prime_falls_back_or_certifies(monkeypatch):
    # mod 3 many theta_bar entries vanish, so many classes are walked again
    # over Z.  A class that passes the certificate may pick other pivots than
    # the greedy walk over Q, but every count is exact and the
    # representatives are still a basis of each cokernel
    built = {point: _chain(*point) for point in TINY_PRIME_POINTS}
    exact = {}
    for point, chain in built.items():
        chains._IMAGE_WALKS.clear()
        exact[point] = [basis.cardinalities() for basis in cohomology_bases(chain)]
        exact[point].append(kernel_slice_dims(chain))
    monkeypatch.setattr(chains, "PRIME", 3)
    made = spy_moduli(monkeypatch)
    for point, chain in built.items():
        chains._IMAGE_WALKS.clear()
        full, mid = cohomology_bases(chain)
        assert [full.cardinalities(), mid.cardinalities(), kernel_slice_dims(chain)] == exact[point]
        assert _spans_every_cokernel(chain, full), point
    chains._IMAGE_WALKS.clear()
    certified, again = fallbacks(made, 3)
    assert certified > 0 and again > 0


def _scaled(chain, j, name, factor):
    """The chain with column j of nmat or emat times factor."""
    cols = list(getattr(chain, name))
    cols[j] = {i: factor * c for i, c in cols[j].items()}
    return replace(chain, **{name: cols}, _by_weight={})


def test_row_that_vanishes_mod_p_falls_back(monkeypatch):
    # theta_bar of one source times PRIME is zero mod p, so its class fails
    # (a) and is walked again over Z; scaling a row moves no pivot over Q.
    # Past the middle weight 15/2, N from weight 10 onto weight 11 keeps its
    # rank without that source, so (c) alone would not see it
    chain = build_chain(Family.KL_Z, 3, 5)
    j = chain._by_weight[10][0]
    broken = _scaled(_scaled(chain, j, "nmat", PRIME), j, "emat", PRIME)
    made = spy_moduli(monkeypatch)
    assert chains._walk_images(broken) == exact_walk(broken) == exact_walk(chain)
    assert fallbacks(made, PRIME) == (3, 1)


def test_shift_column_that_vanishes_mod_p_falls_back(monkeypatch):
    # N times PRIME on one source of weight 3, where N is injective: mod p
    # its row keeps its E part and still gets a pivot, so (a) holds, but N
    # loses rank into weight 4 and (c) sends the class back over Z
    chain = build_chain(Family.KL_Z, 3, 5)
    j = next(j for j in chain._by_weight[3] if chain.emat[j])
    broken = _scaled(chain, j, "nmat", PRIME)
    for d, image in class_image_echelons(broken, PRIME):
        offered = sum(len(broken._by_weight.get(e - 1, ())) for e in range(d % 4, d + 1, 4))
        assert image.rank == offered, d
    made = spy_moduli(monkeypatch)
    assert chains._walk_images(broken) == exact_walk(broken)
    assert fallbacks(made, PRIME) == (3, 1)
