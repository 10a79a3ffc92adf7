"""Exact diagonalization: finite chains, sectors, Lanczos, observables."""

import tracemalloc

import numpy as np
import pytest

from su3chain import ed
from su3chain.tensors import expectations
from test_tensors import kron_site_permutations, partial_trace_last_site


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ed.ChainSpec(4)
    with pytest.raises(ValueError):
        ed.ChainSpec(15)


def test_balanced_sector_sizes():
    assert len(ed.balanced_sector(3)) == 6
    assert len(ed.balanced_sector(6)) == 90
    assert len(ed.balanced_sector(9)) == 1680


@pytest.mark.parametrize("L", [3, 6, 9])
def test_balanced_sector_matches_brute_force_filter(L):
    # the oracle digitises every one of the 3^L states and keeps the balanced
    states = np.arange(3**L, dtype=np.int64)
    digits = (states[:, None] // 3 ** np.arange(L - 1, -1, -1)) % 3
    k = L // 3
    keep = ((digits == 0).sum(axis=1) == k) & ((digits == 1).sum(axis=1) == k)
    assert np.array_equal(ed.balanced_sector(L), states[keep])


def test_balanced_sector_l12():
    # checked from the sector's own states, with no 3^12 array
    states = ed.balanced_sector(12)
    assert len(states) == 34650
    assert (np.diff(states) > 0).all()
    digits = (states[:, None] // 3 ** np.arange(11, -1, -1)) % 3
    for color in range(3):
        assert ((digits == color).sum(axis=1) == 4).all()


def _sector_partners(L, states):
    """Per bond, the index in ``states`` of each state's bond-swapped partner,
    from the digits themselves (no code from ``ed``)."""
    pw = 3 ** np.arange(L - 1, -1, -1)
    digits = states[:, None] // pw % 3
    partners = []
    for j in range(L):
        k = (j + 1) % L
        swapped = digits.copy()
        swapped[:, [j, k]] = digits[:, [k, j]]
        partners.append(np.searchsorted(states, swapped @ pw))
    return partners


@pytest.mark.parametrize(
    "L, sector_dim, block_dim",
    [(3, 6, 2), (6, 90, 16), (9, 1680, 188), (12, 34650, 2896)],
)
def test_orbit_sizes_sum_to_sector(L, sector_dim, block_dim):
    ham = ed.build_hamiltonian(ed.ChainSpec(L))
    assert len(ham.states) == sector_dim
    assert ham.dim == block_dim
    assert ham.size.sum() == sector_dim
    # each orbit is represented by its smallest state
    first = np.unique(ham.orbit, return_index=True)[1]
    assert np.array_equal(ham.states[first], ham.reps)


def test_orbit_operator_is_symmetric_l12():
    import scipy.sparse as sp

    ham = ed.build_hamiltonian(ed.ChainSpec(12))
    rows = np.tile(np.arange(ham.dim), 12)
    cols = np.concatenate(ham.bond_targets)
    h = sp.csr_matrix((np.concatenate(ham.bond_weights), (rows, cols)))
    assert abs(h - h.T).max() < 1e-14


@pytest.mark.parametrize("L", [6, 9, 12])
def test_orbit_operator_intertwines_with_sector(L):
    # H on the expanded vector equals the expansion of the block's H v
    ham = ed.build_hamiltonian(ed.ChainSpec(L))
    v = np.random.default_rng(L).standard_normal(ham.dim)
    x = ham.expand(v)
    hx = sum(x[partner] for partner in _sector_partners(L, ham.states))
    assert np.abs(hx - ham.expand(ham.matvec(v))).max() < 1e-12


@pytest.mark.parametrize("L", [3, 9])
def test_orbit_dense_is_symmetric_and_matches_matvec(L):
    ham = ed.build_hamiltonian(ed.ChainSpec(L))
    dense = ham.dense()
    assert np.abs(dense - dense.T).max() < 1e-14
    v = np.random.default_rng(3).standard_normal(ham.dim)
    assert np.abs(ham.matvec(v) - dense @ v).max() < 1e-12


def test_hamiltonian_rejects_states_not_closed_under_swaps():
    # one whole translation orbit of L=3 (012, 120, 201), without its swaps
    with pytest.raises(RuntimeError, match="bond swap left"):
        ed.Hamiltonian(3, np.array([5, 15, 19], dtype=np.int64))


def test_hamiltonian_rejects_broken_sector():
    # the smallest state is cut from its translation orbit
    with pytest.raises(RuntimeError, match="sector broken"):
        ed.Hamiltonian(6, ed.balanced_sector(6)[1:])


def test_build_hamiltonian_peak_memory_l12():
    # tracemalloc sees numpy's buffers; a 3^12 int64 table alone is 4 MiB,
    # and a (3^12, 12) digit table 49 MiB
    tracemalloc.start()
    try:
        ed.build_hamiltonian(ed.ChainSpec(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ground_state_peak_memory_l12():
    # the solve, Lanczos basis and three-site density included; the Lanczos
    # basis preallocated for 400 iterations of the sector was 111 MiB alone
    ed.ground_state(ed.ChainSpec(12))  # imports and one-off set-up
    tracemalloc.start()
    try:
        ed.ground_state(ed.ChainSpec(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hamiltonian_hermitian_and_matvec_consistent():
    spec = ed.ChainSpec(6)
    ham = ed.build_hamiltonian(spec)
    dense = ham.dense()
    assert np.array_equal(dense, dense.T)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ham.dim)
    assert np.allclose(ham.matvec(v), dense @ v)


def spin1_matrices():
    """Spin-1 operators (Sx, Sy, Sz) in the Sz eigenbasis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz


def test_spin1_bond_equals_permutation_plus_identity():
    ss = sum(np.kron(s, s) for s in spin1_matrices())
    bond = (ss + ss @ ss).real
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    assert np.abs(bond - p - np.eye(9)).max() < 1e-12


def test_color_count_conservation():
    # H commutes with each color-number operator (block structure on L=3)
    spec = ed.ChainSpec(3)
    h = ed.full_hamiltonian(spec)
    states = np.arange(27)
    digits = (states[:, None] // 3 ** np.arange(2, -1, -1)) % 3
    for color in range(3):
        number = np.diag((digits == color).sum(axis=1).astype(float))
        assert np.abs(h @ number - number @ h).max() == 0


def test_l3_ground_state(ed_results):
    result = ed_results[3]
    assert result.method == "dense"
    assert abs(result.energy_per_bond + 1) < 1e-13
    assert abs(result.observables["p12p23"] - 1) < 1e-12
    assert result.degeneracy == 1


def test_l3_singlet_is_antisymmetric():
    # ground state of the 3-site ring is the totally antisymmetric singlet
    h = ed.full_hamiltonian(ed.ChainSpec(3))
    evals, evecs = np.linalg.eigh(h)
    psi = evecs[:, 0]
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    p12 = np.kron(p, np.eye(3))
    assert np.abs(p12 @ psi + psi).max() < 1e-12


def test_l6_dense_matches_reference(ed_results):
    result = ed_results[6]
    ref = ed.REFERENCE_TABLE1[6]
    assert result.method == "dense"
    assert abs(result.energy_per_bond - ref[0]) < 1e-10
    assert abs(result.observables["p12p23"] - ref[1]) < 1e-10


def test_l9_dense(ed_results, l9_full_space_energy):
    result = ed_results[9]
    # the zero-momentum block of L=9 has 188 states, inside the dense rule
    assert result.method == "dense"
    assert result.k0_dimension == 188
    assert result.residual_norm < 1e-10
    # the published p12p23 entry is reproduced far inside tolerance
    assert abs(result.observables["p12p23"] - ed.REFERENCE_TABLE1[9][1]) < 1e-8
    # the energy is pinned against a full-space solve that shares no code with
    # ed (the published energy per bond is unattainable, see criterion 3)
    assert abs(result.ground_energy - l9_full_space_energy) < 1e-10
    # and against a dense solve of the whole 1680-dimensional balanced sector
    states = ed.balanced_sector(9)
    h = np.zeros((len(states), len(states)))
    rows = np.arange(len(states))
    for partner in _sector_partners(9, states):
        h[rows, partner] += 1.0
    dense_e0 = np.linalg.eigvalsh(h)[0]
    assert abs(result.ground_energy - dense_e0) < 1e-10


def test_l12_balanced_sector_energy_independent():
    """The L=12 zero-momentum energy against the whole balanced sector.

    The sector is filtered from all 3^12 digit strings and H assembled as a
    sparse matrix from digit swaps; ``eigsh`` gives its two lowest levels,
    with nothing taken from ``su3chain.ed``.  The ground level is
    non-degenerate with gap 0.70, so the zero-momentum block (whose own gap
    is 1.86) holds the chain's ground state.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    L = 12
    pw = 3 ** np.arange(L - 1, -1, -1, dtype=np.int32)
    all_states = np.arange(3**L, dtype=np.int32)
    counts = np.zeros((3, 3**L), dtype=np.int8)
    for p in pw:
        digit = all_states // p % 3
        for color in range(3):
            counts[color] += digit == color
    states = all_states[(counts == L // 3).all(axis=0)]
    assert len(states) == 34650
    dim = len(states)
    rows = np.tile(np.arange(dim), L)
    cols = np.concatenate(_sector_partners(L, states.astype(np.int64)))
    h = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    v0 = np.random.default_rng(0).standard_normal(dim)
    levels = np.sort(eigsh(h, k=2, which="SA", v0=v0, return_eigenvectors=False))
    result = ed.ground_state(ed.ChainSpec(L))
    assert abs(result.ground_energy - levels[0]) < 1e-10
    assert abs(levels[1] - levels[0] - 0.70) < 0.01
    assert abs(result.k0_gap - 1.86) < 0.01


@pytest.mark.parametrize("L", [9, 12])
def test_ground_vector_is_translation_invariant(L):
    ham, _, vecs, *_ = ed._ground_space(ed.ChainSpec(L))
    top = 3 ** (L - 1)
    shifted = np.searchsorted(ham.states, ham.states % top * 3 + ham.states // top)
    for v in vecs:
        x = ham.expand(v)
        assert abs(np.linalg.norm(x) - 1) < 1e-12
        assert np.abs(x[shifted] - x).max() < 1e-12


def test_translation_invariance_and_rdm_properties(ed_results):
    for L, result in ed_results.items():
        assert abs(result.observables["p12"] - result.energy_per_bond) < 1e-12
        rdm2 = result.observables["rdm2"]
        rdm3 = result.observables["rdm3"]
        assert abs(np.trace(rdm2) - 1) < 1e-12
        assert abs(np.trace(rdm3) - 1) < 1e-12
        assert np.linalg.eigvalsh((rdm2 + rdm2.T) / 2).min() > -1e-12
        assert np.linalg.eigvalsh((rdm3 + rdm3.T) / 2).min() > -1e-12
        # rdm2 is the partial trace of rdm3
        collapsed = rdm3.reshape(9, 3, 9, 3).trace(axis1=1, axis2=3)
        assert np.abs(collapsed - rdm2).max() < 1e-12


@pytest.mark.parametrize("L", [3, 6, 9, 12])
def test_six_expectations_match_the_kron_readout(L):
    result = ed.ground_state(ed.ChainSpec(L))
    rdm3 = result.observables["rdm3"]
    v = expectations(rdm3)
    # the readout ground_state used before: traces of rdm3 with the Kronecker
    # products, and <P12> from rdm3's partial trace
    kron = kron_site_permutations(3)
    assert np.abs(v - [np.trace(rdm3 @ s) for s in kron]).max() <= 1e-15
    p12 = np.trace(partial_trace_last_site(rdm3) @ kron_site_permutations(2)[1])
    assert abs(result.observables["p12"] - p12) <= 1e-15
    assert abs(result.observables["p12p23"] - np.trace(rdm3 @ kron[1] @ kron[2])) <= 1e-15
    # the neighbour swaps agree by translation invariance, and the two
    # 3-cycles, each the other's transpose, agree because rdm3 is real symmetric
    assert abs(v[1] - v[2]) <= 1e-14
    assert abs(v[4] - v[5]) <= 1e-14
    if L == 3:  # the totally antisymmetric singlet: <s> is the sign of s
        assert v.tolist() == [1, -1, -1, -1, 1, 1]


def test_finite_size_monotonicity(ed_results):
    values_w = [ed_results[L].energy_per_bond for L in (3, 6, 9)]
    values_pp = [ed_results[L].observables["p12p23"] for L in (3, 6, 9)]
    assert values_w[0] < values_w[1] < values_w[2]
    assert values_pp[0] > values_pp[1] > values_pp[2]
    # approach toward the thermodynamic values from the functional equations
    assert values_w[2] < -0.703212076746182
    assert values_pp[2] > 0.191368820116674


def test_lanczos_agrees_with_dense_on_l9_block():
    ham = ed.build_hamiltonian(ed.ChainSpec(9))
    evals = np.linalg.eigvalsh(ham.dense())
    e0, x, residual, iters, gap = ed._lanczos_ground(ham.matvec, ham.dim)
    assert abs(e0 - evals[0]) < 1e-12
    assert residual < 1e-12
    assert abs(gap - (evals[1] - evals[0])) < 1e-8


def test_lanczos_basis_growth_keeps_bits(monkeypatch):
    # the L=12 block converges in 48 iterations: blocks of 7 rows grow the
    # basis six times, 401 rows never
    ham = ed.build_hamiltonian(ed.ChainSpec(12))
    runs = []
    for rows in (7, 401):
        monkeypatch.setattr(ed, "_LANCZOS_BLOCK", rows)
        runs.append(ed._lanczos_ground(ham.matvec, ham.dim))
    (e_a, x_a, *rest_a), (e_b, x_b, *rest_b) = runs
    assert e_a == e_b and rest_a == rest_b
    assert np.array_equal(x_a, x_b)


def test_lanczos_agrees_with_dense_on_l6():
    ham = ed.build_hamiltonian(ed.ChainSpec(6))
    dense_e0 = np.linalg.eigvalsh(ham.dense())[0]
    e0, x, residual, iters, gap = ed._lanczos_ground(ham.matvec, ham.dim)
    assert abs(e0 - dense_e0) < 1e-12
    assert residual < 1e-12
    assert gap > 1

