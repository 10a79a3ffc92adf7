"""Exact diagonalization: finite chains, sectors, Lanczos, observables."""

import math
import tracemalloc
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from su3chain import ed
from su3chain.tensors import from_expectations
from test_tensors import partial_trace_last_site


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ed.ChainSpec(4)
    with pytest.raises(ValueError):
        ed.ChainSpec(15)


@pytest.mark.parametrize("L", [6.0, 6.5, "6", None])
def test_chain_spec_rejects_non_integral_length(L):
    # 6.0 passes the range checks, and range() would refuse it with a TypeError
    with pytest.raises(ValueError, match="L must be an integer"):
        ed.ChainSpec(L)


def test_chain_spec_accepts_numpy_integers():
    assert ed.ChainSpec(np.int64(6)).L == 6


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


@cache
def _balanced_sector_ground(L):
    """The balanced sector filtered from all 3^L digit strings, H on it
    assembled from digit swaps, and its two lowest levels and ground vector:
    dense ``eigh`` for L <= 9, ``eigsh`` at L = 12.  Nothing is taken from
    ``su3chain.ed``."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    pw = 3 ** np.arange(L - 1, -1, -1, dtype=np.int32)
    all_states = np.arange(3**L, dtype=np.int32)
    counts = np.zeros((3, 3**L), dtype=np.int8)
    for p in pw:
        digit = all_states // p % 3
        for color in range(3):
            counts[color] += digit == color
    states = all_states[(counts == L // 3).all(axis=0)].astype(np.int64)
    dim = len(states)
    rows = np.tile(np.arange(dim), L)
    cols = np.concatenate(_sector_partners(L, states))
    h = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    if L <= 9:
        levels, vectors = np.linalg.eigh(h.toarray())
    else:
        v0 = np.random.default_rng(0).standard_normal(dim)
        levels, vectors = eigsh(h, k=2, which="SA", v0=v0)
        order = np.argsort(levels)
        levels, vectors = levels[order], vectors[:, order]
    return states, levels[:2], vectors[:, 0]


def full_hamiltonian(L):
    """H as a dense matrix on all 3^L states, the full-space oracle (L <= 6):
    bond (j, j+1) sends each state to the one with tensor axes j, j+1
    swapped."""
    dim = 3**L
    index = np.arange(dim).reshape((3,) * L)
    rows = np.arange(dim)
    h = np.zeros((dim, dim))
    for j in range(L):
        h[rows, np.swapaxes(index, j, (j + 1) % L).ravel()] += 1.0
    return h


def _ballot_filter(L):
    """The Yamanouchi words of shape (k, k, k) filtered out of the whole
    balanced sector, the oracle of the generated words: a = #0s - #1s and
    b = #1s - #2s of each prefix, site by site, never negative, and 0 at the
    end."""
    states = ed.balanced_sector(L)
    a = b = 0
    ballot = np.ones(len(states), dtype=bool)
    for p in 3 ** np.arange(L - 1, -1, -1, dtype=np.int64):
        digit = states // p % 3
        a = a + np.array([1, -1, 0])[digit]
        b = b + np.array([0, 1, -1])[digit]
        ballot &= (a >= 0) & (b >= 0)
    return states[ballot & (a == 0) & (b == 0)]


def _hook_length_count(L):
    """f^(k,k,k) = L! / prod of hook lengths; the hook of cell (i, j) is
    k - j + 2 - i."""
    k = L // 3
    return math.factorial(L) // math.prod(
        k - j + 2 - i for i in range(3) for j in range(k)
    )


def _dense(ham):
    """H of the singlet sector as a dense matrix, column by column from matvec."""
    return np.array([ham.matvec(e) for e in np.eye(ham.dim)]).T


def _tableau_operators(ham):
    """The swaps s_1 ... s_(L-1) of the singlet sector as dense matrices."""
    return [np.array([ham._swap(e, j) for e in np.eye(ham.dim)]).T for j in range(ham.L - 1)]


@pytest.mark.parametrize(
    "L, sector_dim, singlet_dim",
    [(3, 6, 1), (6, 90, 5), (9, 1680, 42), (12, 34650, 462)],
)
def test_singlet_dimensions_are_hook_lengths(L, sector_dim, singlet_dim):
    assert _hook_length_count(L) == singlet_dim
    assert len(ed.balanced_sector(L)) == sector_dim
    ham = ed.Hamiltonian(L)
    assert ham.dim == singlet_dim
    # the words are ascending ballot sequences: no prefix has more 1s than 0s
    # or more 2s than 1s
    assert (np.diff(ham.words) > 0).all()
    digits = ham.words[:, None] // 3 ** np.arange(L - 1, -1, -1) % 3
    prefix = np.cumsum(digits[:, :, None] == np.arange(3), axis=1)
    assert (prefix[:, :, 0] >= prefix[:, :, 1]).all()
    assert (prefix[:, :, 1] >= prefix[:, :, 2]).all()


@pytest.mark.parametrize("L", [3, 6, 9, 12, 15, 18])
def test_tableau_word_count_is_the_hook_length_formula(L):
    # past ChainSpec's L <= 12 only the generator runs: no sector, no bonds
    assert len(ed._tableau_words(L)) == _hook_length_count(L)


@pytest.mark.parametrize("L", [3, 6, 9, 12])
def test_tableau_words_equal_the_balanced_sector_filter(L):
    words = ed._tableau_words(L)
    assert words.dtype == np.int64
    assert np.array_equal(words, _ballot_filter(L))


@pytest.mark.parametrize("L", [6, 9])
def test_tableau_operators_satisfy_coxeter_relations(L):
    s = _tableau_operators(ed.Hamiltonian(L))
    eye = np.eye(len(s[0]))
    for i in range(L - 1):
        assert np.abs(s[i] @ s[i] - eye).max() <= 1e-15
        if i + 1 < L - 1:
            braid = s[i] @ s[i + 1] @ s[i] - s[i + 1] @ s[i] @ s[i + 1]
            assert np.abs(braid).max() <= 1e-15
        for j in range(i + 2, L - 1):
            assert np.abs(s[i] @ s[j] - s[j] @ s[i]).max() <= 1e-15


def _words_standing_in(monkeypatch, words):
    """``ed.Hamiltonian`` builds on ``words`` in place of the generated list."""
    monkeypatch.setattr(ed, "_tableau_words", lambda L: np.array(words, dtype=np.int64))


def test_hamiltonian_rejects_states_not_closed_under_swaps(monkeypatch):
    # the tableau 12/34/56 (word 001122) alone: s_2 reaches the word 010122
    _words_standing_in(monkeypatch, [44])
    with pytest.raises(RuntimeError, match="bond swap left"):
        ed.Hamiltonian(6)


def test_hamiltonian_rejects_broken_sector(monkeypatch):
    # the smallest word, the tableau 12/34/56, is cut from the list
    _words_standing_in(monkeypatch, ed._tableau_words(6)[1:])
    with pytest.raises(RuntimeError, match="sector broken"):
        ed.Hamiltonian(6)


def test_hamiltonian_rejects_a_list_without_tableaux(monkeypatch):
    _words_standing_in(monkeypatch, [])
    with pytest.raises(RuntimeError, match="no standard tableau"):
        ed.Hamiltonian(6)


def _build_peak(L):
    """tracemalloc's peak over one ``ed.Hamiltonian(L)``, numpy's buffers
    included."""
    tracemalloc.start()
    try:
        ed.Hamiltonian(L)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_hamiltonian_peak_memory_l12():
    # 0.35 MiB measured; filtering the words out of the 34,650-state balanced
    # sector peaked at 2.2 MiB
    assert _build_peak(12) < 2**20


def test_build_hamiltonian_peak_memory_l15():
    # 5.6 MiB measured, nearly all of it the digit, content and bond tables
    # of 6006 words; the balanced-sector filter peaked at 58 MiB
    assert _build_peak(15) < 16 * 2**20


def test_ground_state_peak_memory_l12():
    # the solve, Lanczos basis and readout included; the Lanczos basis
    # preallocated for 400 iterations of the balanced sector was 111 MiB alone
    ed.ground_state(ed.ChainSpec(12))  # imports and one-off set-up
    tracemalloc.start()
    try:
        ed.ground_state(ed.ChainSpec(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hamiltonian_hermitian_and_matvec_consistent():
    ham = ed.Hamiltonian(9)
    h = _dense(ham)
    assert np.abs(h - h.T).max() < 1e-14
    # the translation s_1 s_2 ... s_(L-1) shifts every open bond by one site
    # and the last onto the wrap, so H commutes with it only if matvec's wrap
    # bond is the right one
    translation = np.linalg.multi_dot(_tableau_operators(ham))
    assert np.abs(h @ translation - translation @ h).max() < 1e-13


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
    h = full_hamiltonian(3)
    states = np.arange(27)
    digits = (states[:, None] // 3 ** np.arange(2, -1, -1)) % 3
    for color in range(3):
        number = np.diag((digits == color).sum(axis=1).astype(float))
        assert np.abs(h @ number - number @ h).max() == 0


def test_l3_ground_state(ed_results):
    result = ed_results[3]
    assert result.singlet_dimension == 1
    assert result.singlet_gap == np.inf
    assert abs(result.energy_per_bond + 1) < 1e-13
    assert abs(result.v[4] - 1) < 1e-12
    # the totally antisymmetric singlet: <s> is the sign of s
    assert result.v.tolist() == [1, -1, -1, -1, 1, 1]


def test_l3_singlet_is_antisymmetric():
    # ground state of the 3-site ring is the totally antisymmetric singlet
    h = full_hamiltonian(3)
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
    assert abs(result.energy_per_bond - ref[0]) < 1e-10
    assert abs(result.v[4] - ref[1]) < 1e-10
    # the singlet minimum is the minimum of the dense 729-dim full space
    full = np.linalg.eigvalsh(full_hamiltonian(6))[0]
    assert abs(result.ground_energy - full) < 1e-12


@pytest.mark.parametrize("L", [3, 6])
def test_balanced_sector_minimum_is_the_full_space_minimum(L):
    # every irrep of (C^3)^(3k) has a zero weight, so every level of the full
    # space has a state with L/3 sites of each color
    full = np.linalg.eigvalsh(full_hamiltonian(L))[0]
    assert abs(ed._balanced_minimum(L) - full) <= 1e-12


_HAMILTONIAN = ed.Hamiltonian  # the real class, for stand-ins patched over it


def _raised_singlet_sector(L):
    """The singlet sector with every level raised by 0.1: its gap is intact,
    but its minimum lies above the chain's."""
    ham = _HAMILTONIAN(L)
    return SimpleNamespace(dim=ham.dim, matvec=lambda v: ham.matvec(v) + 0.1 * v)


def test_singlet_sector_above_the_global_minimum_trips_the_gate(monkeypatch):
    monkeypatch.setattr(ed, "Hamiltonian", _raised_singlet_sector)
    with pytest.raises(RuntimeError, match="singlet sector misses the global minimum"):
        ed.ground_state(ed.ChainSpec(6))


def _tilted_first_bond(L):
    """The singlet sector whose ``s_1`` is scaled by 1.01 where the six
    numbers read it, not in H: ``<P12>`` leaves ``E0/L``."""
    ham = _HAMILTONIAN(L)
    return SimpleNamespace(
        dim=ham.dim,
        matvec=ham.matvec,
        _swap=lambda v, j: (1.01 if j == 0 else 1) * ham._swap(v, j),
    )


def test_broken_translation_invariance_trips_the_gate(monkeypatch):
    monkeypatch.setattr(ed, "Hamiltonian", _tilted_first_bond)
    with pytest.raises(
        RuntimeError,
        match=r"translation invariance violated: <P12> = -0\.73835\d*, E0/L = -0\.73104",
    ):
        ed.ground_state(ed.ChainSpec(9))


def test_unconverged_lanczos_raises(monkeypatch):
    monkeypatch.setattr(ed, "_LANCZOS_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match="Lanczos did not converge in 3 iterations"):
        ed.ground_state(ed.ChainSpec(12))


def test_l9_dense(ed_results, l9_full_space_energy):
    result = ed_results[9]
    assert result.singlet_dimension == 42
    assert result.residual_norm < 1e-10
    # the published p12p23 entry is reproduced far inside tolerance
    assert abs(result.v[4] - ed.REFERENCE_TABLE1[9][1]) < 1e-8
    # the energy is pinned against a full-space solve that shares no code with
    # ed (the published energy per bond is unattainable, see criterion 3)
    assert abs(result.ground_energy - l9_full_space_energy) < 1e-10
    # and against a dense solve of the whole 1680-dimensional balanced sector
    assert abs(result.ground_energy - _balanced_sector_ground(9)[1][0]) < 1e-10


def test_l12_balanced_sector_energy_independent():
    """The L=12 singlet energy against the whole balanced sector.

    The sector is filtered from all 3^12 digit strings and H assembled as a
    sparse matrix from digit swaps; ``eigsh`` gives its two lowest levels,
    with nothing taken from ``su3chain.ed``.  The ground level is
    non-degenerate with gap 0.70, so the singlet sector (whose own gap is
    1.13) holds the chain's ground state.
    """
    levels = _balanced_sector_ground(12)[1]
    result = ed.ground_state(ed.ChainSpec(12))
    assert abs(result.ground_energy - levels[0]) < 1e-10
    assert abs(levels[1] - levels[0] - 0.70) < 0.01
    assert abs(result.singlet_gap - 1.13) < 0.01


@pytest.mark.parametrize("L", [9, 12])
def test_ground_vector_is_translation_invariant(L):
    ham = ed.Hamiltonian(L)
    e0, x, *_ = ed._lanczos_ground(ham.matvec, ham.dim)
    assert abs(x @ x - 1) < 1e-12
    # <s_j> on the L - 1 open bonds, and on the wrap as what matvec adds to them
    bonds = [x @ ham._swap(x, j) for j in range(L - 1)]
    bonds.append(x @ ham.matvec(x) - sum(bonds))
    assert np.ptp(bonds) < 1e-12
    assert abs(bonds[0] - e0 / L) < 1e-12


def test_translation_invariance_and_rdm_properties(ed_results):
    for L, result in ed_results.items():
        assert abs(result.v[1] - result.energy_per_bond) < 1e-12
        rdm2 = from_expectations(result.v[:2])
        rdm3 = from_expectations(result.v)
        assert abs(np.trace(rdm2) - 1) < 1e-12
        assert abs(np.trace(rdm3) - 1) < 1e-12
        assert np.linalg.eigvalsh((rdm2 + rdm2.T) / 2).min() > -1e-12
        assert np.linalg.eigvalsh((rdm3 + rdm3.T) / 2).min() > -1e-12
        # the operator of the six numbers has rdm2 as its partial trace
        assert np.abs(partial_trace_last_site(rdm3) - rdm2).max() < 1e-12


@pytest.mark.parametrize("L", [3, 6, 9, 12])
def test_six_expectations_match_the_kron_readout(L):
    """The six numbers against the ground vector of the whole balanced sector,
    solved independently, read as <x| p (x) 1 |x> for each permutation p of
    sites 0, 1, 2 in the order I, P12, P23, P13, P12 P23, P23 P12: the
    Kronecker product with the identity on the other L - 3 sites acts on x by
    permuting the first three digits of each state."""
    states, _, x = _balanced_sector_ground(L)
    pw = 3 ** np.arange(L - 1, -1, -1)
    digits = states[:, None] // pw % 3
    expected = []
    for p in [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0)]:
        moved = digits.copy()
        moved[:, :3] = digits[:, list(p)]
        expected.append(x @ x[np.searchsorted(states, moved @ pw)])
    v = ed.ground_state(ed.ChainSpec(L)).v
    assert np.abs(v - expected).max() <= 1e-12
    # the two 3-cycles, each the other's transpose, agree for a real vector
    assert v[4] == v[5]


def test_finite_size_monotonicity(ed_results):
    values_w = [ed_results[L].energy_per_bond for L in (3, 6, 9)]
    values_pp = [ed_results[L].v[4] for L in (3, 6, 9)]
    assert values_w[0] < values_w[1] < values_w[2]
    assert values_pp[0] > values_pp[1] > values_pp[2]
    # approach toward the thermodynamic values from the functional equations
    assert values_w[2] < -0.703212076746182
    assert values_pp[2] > 0.191368820116674


def test_lanczos_agrees_with_dense_on_l9_block():
    ham = ed.Hamiltonian(9)
    evals = np.linalg.eigvalsh(_dense(ham))
    e0, x, residual, iters = ed._lanczos_ground(ham.matvec, ham.dim)
    assert abs(e0 - evals[0]) < 1e-12
    assert residual < 1e-12
    gap = ed.ground_state(ed.ChainSpec(9)).singlet_gap
    assert abs(gap - (evals[1] - evals[0])) < 1e-8


def test_lanczos_basis_growth_keeps_bits(monkeypatch):
    # the L=12 singlet sector converges in 48 iterations: blocks of 7 rows
    # grow the basis six times, 401 rows never
    ham = ed.Hamiltonian(12)
    runs = []
    for rows in (7, 401):
        monkeypatch.setattr(ed, "_LANCZOS_BLOCK", rows)
        runs.append(ed._lanczos_ground(ham.matvec, ham.dim))
    (e_a, x_a, *rest_a), (e_b, x_b, *rest_b) = runs
    assert e_a == e_b and rest_a == rest_b
    assert rest_a[1] == 48
    assert np.array_equal(x_a, x_b)


def test_lanczos_agrees_with_dense_on_l6():
    ham = ed.Hamiltonian(6)
    evals = np.linalg.eigvalsh(_dense(ham))
    e0, x, residual, iters = ed._lanczos_ground(ham.matvec, ham.dim)
    assert abs(e0 - evals[0]) < 1e-12
    assert residual < 1e-12
    gap = ed.ground_state(ed.ChainSpec(6)).singlet_gap
    assert abs(gap - (evals[1] - evals[0])) < 1e-12


def test_degenerate_ground_level_trips_the_gate(monkeypatch):
    # one Krylov space sees one vector of the degenerate pair, and its next
    # Ritz value (0) would pass for a gap of 1; L = 9 skips the balanced-sector
    # check
    levels = np.array([-1, -1, 0, 0.5, 2])
    sector = SimpleNamespace(dim=len(levels), matvec=lambda v: levels * v)
    monkeypatch.setattr(ed, "Hamiltonian", lambda L: sector)
    with pytest.raises(RuntimeError, match="degenerate singlet ground level"):
        ed.ground_state(ed.ChainSpec(9))
