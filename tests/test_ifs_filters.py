import json
import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import random_cylinder
from wavelab import jsonio
from wavelab.cli import run
from wavelab.code_space import (
    CylinderFn,
    IfsSpec,
    adjoint_sigma,
    compose_sigma,
    integrate,
    multiply,
    sup_distance,
)
from wavelab.errors import InputError, VerificationError
from wavelab.ifs_filters import (
    FilterBank,
    MatrixField,
    analysis,
    apply_loop_group,
    build_indicator,
    build_roots_of_unity,
    connecting_unitary,
    endomorphism_check,
    leaf_energies,
    multires_decompose,
    multires_reconstruct,
    synthesis,
    tree_json,
    verify_filter,
)


def broken_bank(spec):
    ones = compose_sigma(CylinderFn.ones(spec))
    return FilterBank.from_cylinders(spec, (ones,) * spec.N)


def fourier_matrix(n):
    eps = np.exp(2j * np.pi / n)
    return np.array(
        [[eps ** (k * j) for k in range(1, n + 1)] for j in range(1, n + 1)]
    ) / np.sqrt(n)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_roots_bank_values(spec2, spec3):
    bank = build_roots_of_unity(spec2)
    assert np.allclose(bank.filters[0].values, [-1, 1])
    assert np.allclose(bank.filters[1].values, [1, 1])
    bank3 = build_roots_of_unity(spec3)
    for n in range(1, 4):
        expected = [np.exp(2j * np.pi * n * l / 3) for l in (1, 2, 3)]
        assert np.allclose(bank3.filters[n - 1].values, expected)
    # branch-averaged cross product vanishes: (m_1 conj(m_2)) averaged
    cross = adjoint_sigma(multiply(bank.filters[0], bank.filters[1].conj()))
    assert abs(cross.values[0]) < 1e-15


def test_roots_bank_rejects_nonuniform(spec_weighted):
    with pytest.raises(InputError, match="only for uniform weights"):
        build_roots_of_unity(spec_weighted)


def test_indicator_bank_values(spec2, spec_weighted):
    bank = build_indicator(spec2)
    assert np.allclose(bank.filters[0].values, [np.sqrt(2), 0])
    assert np.allclose(bank.filters[1].values, [0, np.sqrt(2)])
    wbank = build_indicator(spec_weighted)
    assert np.allclose(wbank.filters[0].values, [2.0, 0])
    assert np.allclose(wbank.filters[1].values, [0, 2.0 / np.sqrt(3)])


def test_indicator_bank_cuntz_on_probes(rng, spec_weighted):
    bank = build_indicator(spec_weighted)
    f = random_cylinder(rng, spec_weighted, 2)
    for j, mj in enumerate(bank.filters):
        for k, mk in enumerate(bank.filters):
            # S_j* S_k f = delta_jk f
            out = adjoint_sigma(multiply(mj.conj(), multiply(mk, compose_sigma(f))))
            target = f if j == k else 0.0 * f
            assert sup_distance(out, target) < 1e-13


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_builtin_banks(spec2, spec3):
    for spec in (spec2, spec3):
        for builder in (build_indicator, build_roots_of_unity):
            report = verify_filter(builder(spec), probe_depth=4, tol=1e-13)
            assert report.passed
            assert report.orthonormality_residual < 1e-14
            assert report.completeness < 1e-13


def test_verify_rejects_broken_bank(spec2):
    report = verify_filter(broken_bank(spec2), probe_depth=3, tol=1e-12)
    assert not report.passed
    assert report.orthonormality_residual == pytest.approx(1.0)


def test_verify_report_json(spec2):
    report = verify_filter(build_indicator(spec2), probe_depth=2, tol=1e-12)
    obj = report.to_json()
    assert obj["pass"] is True
    assert len(obj["orthonormality_matrix"]) == 2


def test_completeness_against_oracle(rng, spec2):
    """Batched completeness scan equals the word-by-word reconstruction."""
    bank = build_roots_of_unity(spec2)
    report = verify_filter(bank, probe_depth=3, tol=1e-12)
    distances = []
    for w in oracle.words(2, 3):
        probe = oracle.indicator(spec2, w)
        recon = 0.0 * probe
        for m in bank.filters:
            recon = recon + multiply(m, oracle.conditional_expectation(multiply(m.conj(), probe)))
        distances.append(sup_distance(recon, probe))
    assert report.completeness == pytest.approx(np.max(distances), abs=1e-15)  # NaN fails


def _oracle_bank(rng, spec, kind, depth):
    """A verified bank of the given depth, a random one, or one with a NaN."""
    if kind == "verified":
        field = _random_unitary_field(rng, spec, depth - 1)
        return apply_loop_group(build_indicator(spec), field)
    filters = [random_cylinder(rng, spec, depth) for _ in range(spec.N)]
    if kind == "nan":
        values = filters[0].values.copy()
        values[-1] = np.nan
        filters[0] = CylinderFn(spec, depth, values)
    return FilterBank.from_cylinders(spec, filters)


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


ORACLE_SPECS = [
    IfsSpec(2), IfsSpec(2, (0.25, 0.75)),
    IfsSpec(3), IfsSpec(3, (0.5, 0.125, 0.375)),
    IfsSpec(4), IfsSpec(4, (0.1, 0.2, 0.3, 0.4)),
]


@pytest.mark.parametrize("kind", ["verified", "random", "nan"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"N{s.N}-{'u' if s.uniform else 'w'}")
def test_closed_forms_equal_probe_oracle(spec, kind):
    """Both residuals equal the probe-by-probe oracle exactly, at every probe depth."""
    rng = np.random.default_rng(spec.N + 10 * len(kind))
    for bank_depth in (1, 2):
        bank = _oracle_bank(rng, spec, kind, bank_depth)
        for probe in (1, 2, 3):
            if spec.N ** (2 * probe) > 4096:
                continue
            report = verify_filter(bank, probe_depth=probe)
            assert _same(report.completeness, oracle.probe_block_completeness(bank, probe))
            assert report.passed == (kind == "verified")
            for f_depth in (0, bank_depth, bank_depth + 1):
                f = random_cylinder(rng, spec, f_depth)
                got = endomorphism_check(bank, f, probe)
                assert _same(got, oracle.probe_endomorphism(bank, f, probe))
                assert (got < 1e-13) == (kind == "verified")


def test_residuals_flat_in_probe_depth(rng, spec3, tmp_path, capsys):
    """Probe depth 20 would need 3**40 probe cells; the per-tail array needs 3**3.
    The CLI echoes --depth beside the residuals, which do not move."""
    bank = _oracle_bank(rng, spec3, "random", 2)
    f = random_cylinder(rng, spec3, 1)
    shallow, deep = verify_filter(bank, 3), verify_filter(bank, 20)
    assert deep.completeness == shallow.completeness
    assert np.array_equal(deep.orthonormality, shallow.orthonormality)
    assert endomorphism_check(bank, f, 20) == endomorphism_check(bank, f, 3)
    path = str(tmp_path / "bank.json")
    jsonio.dump_file(path, bank.to_json())
    printed = {}
    for depth in ("1", "20"):
        run(["ifs", "verify-filter", "--bank", path, "--depth", depth])
        printed[depth] = json.loads(capsys.readouterr().out)["residuals"]
    assert printed["20"].pop("probe_depth") == 20 and printed["1"].pop("probe_depth") == 1
    assert printed["20"] == printed["1"]


def test_verify_respects_cell_cap(monkeypatch, spec2):
    bank = build_indicator(spec2)
    free = verify_filter(bank, 9)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "1000")
    tracemalloc.start()
    capped = verify_filter(bank, 9)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert capped.completeness == free.completeness
    assert np.array_equal(capped.orthonormality, free.orthonormality)
    assert peak < 1000 * 16  # bytes of 1000 complex cells


def test_tail_array_counts_against_cell_cap(monkeypatch, spec2):
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "1000")
    # 2**9 filter values fit, the 2**11 products behind the residuals do not
    bank = FilterBank(spec2, np.ones((2, 512)))
    with pytest.raises(InputError, match="exceed the cap"):
        verify_filter(bank, 1)
    with pytest.raises(InputError, match="exceed the cap"):
        endomorphism_check(bank, CylinderFn.ones(spec2), 1)


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def test_analysis_examples(spec2):
    ind = build_indicator(spec2)
    f = oracle.indicator(spec2, [1])
    parts = analysis(ind, f.values[None])
    assert parts.shape == (2, 1)  # one function, two subbands of depth 0
    assert parts[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert np.all(parts[1] == 0)
    assert np.max(np.abs(synthesis(ind, parts)[0] - f.values)) < 1e-15

    roots = build_roots_of_unity(spec2)
    parts = analysis(roots, np.ones((1, 2)))
    assert np.max(np.abs(parts[0])) < 1e-15  # the constant rides on m_2 = 1
    assert parts[1, 0] == pytest.approx(1.0)

    assert np.all(analysis(ind, np.zeros((1, 2))) == 0)


def test_roundtrip_random(rng, spec2, spec3):
    for spec in (spec2, spec3):
        for builder in (build_indicator, build_roots_of_unity):
            bank = builder(spec)
            f = random_cylinder(rng, spec, 3)
            back = synthesis(bank, analysis(bank, f.values[None]))
            assert back.shape == (1, spec.N**3)
            assert np.max(np.abs(back[0] - f.values)) < 1e-13


# ---------------------------------------------------------------------------
# multiresolution: one array per level
# ---------------------------------------------------------------------------

def test_multires_level_zero(spec2, rng):
    bank = build_roots_of_unity(spec2)
    f = random_cylinder(rng, spec2, 2)
    for mode in ("packet", "single"):
        (leaves,) = multires_decompose(bank, f, 0, mode)
        assert np.array_equal(leaves, f.values[None])
        assert np.array_equal(multires_reconstruct(bank, [leaves]).values, f.values)


def test_multires_packet(spec2, rng):
    bank = build_roots_of_unity(spec2)
    f = random_cylinder(rng, spec2, 2)
    (leaves,) = multires_decompose(bank, f, 2)
    assert leaves.shape == (4, 1)  # four depth-0 leaves
    assert sup_distance(multires_reconstruct(bank, [leaves]), f) < 1e-13
    energy = sum(leaf_energies(spec2, [leaves]))
    assert energy == pytest.approx(integrate(f.abs2()).real, abs=1e-12)


def test_multires_single_branch(spec3, rng):
    bank = build_indicator(spec3)
    f = random_cylinder(rng, spec3, 3)
    leaves = multires_decompose(bank, f, 3, mode="single")
    # cascade on branch 1: 3 levels leave 2 details per level plus one core
    assert [g.shape for g in leaves] == [(1, 1), (2, 1), (2, 3), (2, 9)]
    assert sup_distance(multires_reconstruct(bank, leaves), f) < 1e-13


def test_multires_levels_too_large(spec2, rng):
    bank = build_indicator(spec2)
    f = random_cylinder(rng, spec2, 1)
    with pytest.raises(InputError, match="cannot run 2 levels"):
        multires_decompose(bank, f, 2)
    with pytest.raises(InputError, match="unknown mode"):
        multires_decompose(bank, f, 1, mode="wavelets")
    with pytest.raises(InputError, match="levels must be"):
        multires_decompose(bank, f, -1)


def test_multires_checks_the_spec_before_the_first_level(spec2, rng):
    bank = build_indicator(spec2)
    other = random_cylinder(rng, IfsSpec(2, (0.25, 0.75)), 1)
    for levels in (0, 1):
        with pytest.raises(InputError, match="^operands live over different systems: "):
            multires_decompose(bank, other, levels)


def test_tree_json_roundtrip(spec2, rng):
    bank = build_indicator(spec2)
    f = random_cylinder(rng, spec2, 2)
    back = oracle.coefficient_tree(tree_json(spec2, multires_decompose(bank, f, 1)))
    assert sup_distance(oracle.multires_reconstruct(bank, back), f) < 1e-13


def _multires_cases():
    """(bank, function, levels) over N = 2, 3, 4, uniform and nonuniform weights,
    indicator, roots and acted banks, some deeper than the function."""
    rng = np.random.default_rng(13)
    for spec in ORACLE_SPECS:
        banks = [build_indicator(spec)]
        if spec.uniform:
            banks.append(build_roots_of_unity(spec))
        for field_depth in (1, 2):  # acted banks of depth 2 and 3
            banks.append(apply_loop_group(banks[0], _random_unitary_field(rng, spec, field_depth)))
        for bank in banks:
            for fn_depth in (1, 4 if spec.N == 2 else 2):
                f = random_cylinder(rng, spec, fn_depth)
                for levels in range(fn_depth + 1):
                    yield bank, f, levels


def test_level_loop_equals_per_node_recursion():
    """Leaves, reconstruction, leaf integrals and the tree JSON equal the
    per-node recursion of tests/oracle.py bit for bit."""
    cases = 0
    for bank, f, levels in _multires_cases():
        for mode in ("packet", "single"):
            leaves = multires_decompose(bank, f, levels, mode)
            tree = oracle.multires_decompose(bank, f, levels, mode)
            want = list(tree.leaves())
            got = [row for group in leaves for row in group]
            assert len(got) == len(want)
            for row, leaf in zip(got, want):
                assert row.shape == leaf.values.shape and np.array_equal(row, leaf.values)
            recon, want_recon = multires_reconstruct(bank, leaves), oracle.multires_reconstruct(bank, tree)
            assert recon.depth == want_recon.depth
            assert np.array_equal(recon.values, want_recon.values)
            integrals = [integrate(leaf.abs2()).real for leaf in want]
            assert np.array_equal(leaf_energies(bank.spec, leaves), integrals)
            assert jsonio.dumps(tree_json(bank.spec, leaves)) == jsonio.dumps(tree.to_json())
            cases += 1
    assert cases > 100


# ---------------------------------------------------------------------------
# module Gram-Schmidt (the oracle's), judged by the package's filter check
# ---------------------------------------------------------------------------

def test_gram_schmidt_fixes_orthonormal_input(spec2):
    bank = build_indicator(spec2)
    out = oracle.gram_schmidt_module(bank.filters)
    for a, b in zip(out.filters, bank.filters):
        assert sup_distance(a, b) < 1e-13


def test_gram_schmidt_example(spec2):
    g1 = CylinderFn(spec2, 1, [1, 1])
    g2 = CylinderFn(spec2, 1, [1, -1])
    out = oracle.gram_schmidt_module([g1, g2])
    assert np.allclose(out.filters[0].values, [1, 1])
    assert np.allclose(out.filters[1].values, [1, -1])
    assert verify_filter(out, 3, 1e-12).passed


def test_gram_schmidt_dependent_generators(spec2):
    g1 = CylinderFn(spec2, 1, [1, 1])
    with pytest.raises(VerificationError, match="module span"):
        oracle.gram_schmidt_module([g1, g1])


def test_gram_schmidt_random_generators(rng, spec2, spec3):
    for spec in (spec2, spec3):
        gens = [random_cylinder(rng, spec, 2) for _ in range(spec.N)]
        bank = oracle.gram_schmidt_module(gens)
        report = verify_filter(bank, probe_depth=3, tol=1e-10)
        assert report.passed
        # output spans the same module: each generator reconstructs from it
        for g in gens:
            recon = 0.0 * g
            for m in bank.filters:
                recon = recon + multiply(
                    m, oracle.conditional_expectation(multiply(m.conj(), g))
                )
            assert sup_distance(recon, g) < 1e-10


# ---------------------------------------------------------------------------
# connecting unitaries and the loop-group action
# ---------------------------------------------------------------------------

def test_connecting_unitary_identity(spec2):
    bank = build_indicator(spec2)
    field = connecting_unitary(bank, bank)
    assert field.unitarity_residual() < 1e-14
    eye = oracle.identity_field(spec2)
    assert field.depth == eye.depth == 0
    assert np.max(np.abs(field.values - eye.values)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_connecting_unitary_is_fourier_matrix(n):
    spec = IfsSpec(n)
    field = connecting_unitary(build_indicator(spec), build_roots_of_unity(spec))
    assert np.max(np.abs(field.values[:, :, 0] - fourier_matrix(n))) < 1e-13


def test_connecting_unitary_requires_verified_banks(spec2):
    with pytest.raises(VerificationError, match="fails filter verification"):
        connecting_unitary(broken_bank(spec2), build_indicator(spec2))


def test_loop_group_identity_and_hadamard(spec2):
    bank = build_indicator(spec2)
    assert all(
        sup_distance(a, b) < 1e-15
        for a, b in zip(
            apply_loop_group(bank, oracle.identity_field(spec2)).filters, bank.filters
        )
    )
    hadamard = MatrixField.from_matrix(spec2, fourier_matrix(2))
    acted = apply_loop_group(bank, hadamard)
    roots = build_roots_of_unity(spec2)
    for a, b in zip(acted.filters, roots.filters):
        assert sup_distance(a, b) < 1e-14


def test_loop_group_non_unitary_fails_verification(spec2):
    bank = build_indicator(spec2)
    bad = MatrixField.from_matrix(spec2, np.diag([2.0, 1.0]))
    acted = apply_loop_group(bank, bad)
    assert not verify_filter(acted, 3, 1e-12).passed


def test_loop_group_adopts_its_result_and_copies_a_callers_array(spec2):
    """The action's sum becomes the bank without a copy, and its terms reuse one array.

    On a depth-8 identity field the result is 2 * 2**9 = 1,024 complex cells.
    The sum, a tiled input, a product and numpy's buffer for the broadcast
    filter were live at the peak, 4.17 results; now the sum, one term and
    that buffer are, 3.16 results.  Above 8,192 cells the buffer stays at
    that size, so the peak tends to two results.
    """
    bank = build_indicator(spec2)
    field = MatrixField(spec2, np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 2**8)))
    tracemalloc.start()
    acted = apply_loop_group(bank, field)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert acted.values.shape == (2, 2**9)
    assert peak < 3.2 * acted.values.nbytes, peak / acted.values.nbytes
    assert np.array_equal(acted.values, oracle.stacked(
        oracle.tuple_apply(bank.filters, oracle.entries_of(field))
    ))
    assert not acted.values.flags.writeable
    mine = np.ones((2, 4), dtype=complex)
    held = FilterBank(spec2, mine)
    mine[0, 0] = 5.0
    assert mine.flags.writeable and held.values[0, 0] == 1.0


def _random_unitary_field(rng, spec, depth):
    """Pointwise unitary with genuinely word-dependent entries."""
    size = spec.N**depth
    entries = np.empty((spec.N, spec.N, size), dtype=complex)
    for w in range(size):
        a = rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N))
        q, r = np.linalg.qr(a)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        entries[:, :, w] = q
    return MatrixField(spec, entries)


def test_loop_group_group_law(rng, spec2):
    bank = build_indicator(spec2)
    u = _random_unitary_field(rng, spec2, 1)
    v = _random_unitary_field(rng, spec2, 1)
    lhs = apply_loop_group(apply_loop_group(bank, u), v)
    rhs = apply_loop_group(bank, oracle.field_product(u, v))
    for a, b in zip(lhs.filters, rhs.filters):
        assert sup_distance(a, b) < 1e-12


def test_connect_recovers_applied_unitary(rng, spec2, spec3):
    for spec in (spec2, spec3):
        bank = build_roots_of_unity(spec)
        u = _random_unitary_field(rng, spec, 1)
        acted = apply_loop_group(bank, u)
        assert verify_filter(acted, 3, 1e-12).passed
        recovered = connecting_unitary(bank, acted)
        assert recovered.depth == u.depth
        assert np.max(np.abs(recovered.values - u.values)) < 1e-13


def _star(u):
    """The pointwise inverse U* of a unitary field."""
    return MatrixField(u.spec, np.conj(u.values.transpose(1, 0, 2)))


def _max_diff(a, b):
    return max(sup_distance(x, y) for x, y in zip(a.filters, b.filters))


@pytest.mark.parametrize("spec", [s for s in ORACLE_SPECS if not s.uniform], ids=lambda s: f"N{s.N}")
def test_loop_group_laws_on_verified_banks(spec):
    """(U V).m = V.(U.m), U*.(U.m) = m and connect(m, U.m) = U for depth-2 fields."""
    rng = np.random.default_rng(spec.N)
    for _ in range(3):
        bank = apply_loop_group(build_indicator(spec), _random_unitary_field(rng, spec, 1))
        assert verify_filter(bank).passed
        u, v = _random_unitary_field(rng, spec, 2), _random_unitary_field(rng, spec, 2)
        acted = apply_loop_group(bank, u)
        product = oracle.field_product(u, v)
        assert _max_diff(apply_loop_group(bank, product), apply_loop_group(acted, v)) < 1e-12
        assert _max_diff(apply_loop_group(acted, _star(u)), bank) < 1e-12
        recovered = connecting_unitary(bank, acted)
        assert recovered.depth == u.depth == 2
        assert np.max(np.abs(recovered.values - u.values)) < 1e-12


def _random_bank(rng, spec, depth):
    size = (spec.N, spec.N**depth)
    return FilterBank(spec, rng.normal(size=size) + 1j * rng.normal(size=size))


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"N{s.N}-{'u' if s.uniform else 'w'}")
def test_array_forms_equal_tuple_oracle(spec, depth):
    """Every bank and field operation equals its former filter-by-filter form bit for bit."""
    rng = np.random.default_rng(10 * spec.N + depth + (0 if spec.uniform else 5))
    for _ in range(5):
        verified = apply_loop_group(
            build_indicator(spec), _random_unitary_field(rng, spec, depth - 1)
        )
        for bank in (verified, _random_bank(rng, spec, depth)):
            m = bank.filters
            report = verify_filter(bank)
            assert np.array_equal(report.orthonormality, oracle.tuple_orthonormality(m))
            assert report.completeness == oracle.tuple_tail_residual(m, depth)
            f = random_cylinder(rng, spec, depth + 1)
            assert endomorphism_check(bank, f) == oracle.tuple_tail_residual(m, depth + 2, f)
            u = _random_unitary_field(rng, spec, depth)
            want = oracle.stacked(oracle.tuple_apply(m, oracle.entries_of(u)))
            assert np.array_equal(apply_loop_group(bank, u).values, want)
            parts = analysis(bank, f.values[None])  # one function: a level of K = 1
            assert np.array_equal(parts, oracle.stacked(oracle.tuple_analysis(m, f)))
            subbands = [CylinderFn(spec, depth, part) for part in parts]
            got, want = synthesis(bank, parts), oracle.tuple_synthesis(m, subbands)
            assert got.shape == (1, spec.N**want.depth) and np.array_equal(got[0], want.values)
        target = apply_loop_group(verified, _random_unitary_field(rng, spec, depth))
        want = oracle.stacked(oracle.tuple_connecting(verified.filters, target.filters))
        assert np.array_equal(connecting_unitary(verified, target).values, want)


def test_mixed_depth_bank_loads_at_common_depth(spec_weighted):
    """A bank file whose filters differ in depth is lifted to the deepest one.

    Completeness was already computed at the common depth, so it is
    unchanged to the bit.  Each orthonormality entry used to be averaged at
    the depth of its own pair; at the common depth the same sum can round
    differently, so it agrees to a few units in the last place.
    """
    spec = spec_weighted
    m1, m2 = build_indicator(spec).filters
    phase = CylinderFn(spec, 1, np.exp([0.3j, -1.1j]))
    mixed = (m1, multiply(m2, compose_sigma(phase)))  # depths 1 and 2
    obj = {"spec": spec.to_json(), "filters": [m.to_json() for m in mixed]}
    bank = FilterBank.from_json(obj)
    assert bank.depth == 2 and [m.depth for m in mixed] == [1, 2]
    for got, m in zip(bank.filters, mixed):
        assert got.depth == 2 and sup_distance(got, m) == 0
    report = verify_filter(bank)
    assert report.passed
    assert report.completeness == oracle.tuple_tail_residual(mixed, 2)
    assert np.allclose(report.orthonormality, oracle.tuple_orthonormality(mixed), rtol=0, atol=1e-15)
    # written back at one depth, the bank reads back to the same residuals
    again = verify_filter(FilterBank.from_json(bank.to_json()))
    assert again.to_json() == report.to_json()
    assert {f["depth"] for f in bank.to_json()["filters"]} == {2}


def test_module_inner_product_identity(rng, spec2):
    # <m (h o sigma), n (g o sigma)> = int conj(g o sigma) E(conj(n) m) (h o sigma)
    m = random_cylinder(rng, spec2, 1)
    n = random_cylinder(rng, spec2, 1)
    h = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 1)
    lhs = oracle.inner_product(
        multiply(m, compose_sigma(h)), multiply(n, compose_sigma(g))
    )
    weight = oracle.conditional_expectation(multiply(n.conj(), m))
    rhs = integrate(
        multiply(compose_sigma(g).conj(), multiply(weight, compose_sigma(h)))
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_branch_orthogonality_implies_l2(rng, spec3):
    # E(conj(m1) m2) = 0 forces <m1, m2> = 0
    bank = build_roots_of_unity(spec3)
    m1, m2 = bank.filters[0], bank.filters[1]
    assert oracle.conditional_expectation(multiply(m1.conj(), m2)).sup_norm() < 1e-14
    assert abs(oracle.inner_product(m2, m1)) < 1e-14


# ---------------------------------------------------------------------------
# branch-sample matrix and endomorphism extension
# ---------------------------------------------------------------------------

def test_matrix_field_examples(spec2):
    ind = oracle.matrix_field(build_indicator(spec2))
    assert ind.unitarity_residual() < 1e-14
    assert np.allclose(ind.values[:, :, 0], np.eye(2))
    roots = oracle.matrix_field(build_roots_of_unity(spec2))
    eps = -1.0
    expected = np.array([[eps, eps**2], [eps**2, eps**4]]) / np.sqrt(2)
    assert np.allclose(roots.values[:, :, 0], expected)
    assert roots.unitarity_residual() < 1e-14
    broken = oracle.matrix_field(broken_bank(spec2))
    assert broken.unitarity_residual() > 0.99


def test_matrix_field_weighted(rng, spec_weighted):
    """sqrt(p_k) weighting makes M unitary for verified weighted banks."""
    ind = oracle.matrix_field(build_indicator(spec_weighted))
    assert ind.unitarity_residual() < 1e-14
    for depth in (1, 2):
        acted = apply_loop_group(
            build_indicator(spec_weighted), _random_unitary_field(rng, spec_weighted, depth)
        )
        assert verify_filter(acted, 3).passed
        assert oracle.matrix_field(acted).unitarity_residual() < 1e-14
    spec = IfsSpec(3, (0.5, 0.125, 0.375))
    assert oracle.matrix_field(build_indicator(spec)).unitarity_residual() < 1e-14


def test_matrix_field_json_roundtrip(spec3):
    field = oracle.matrix_field(build_roots_of_unity(spec3))
    back = MatrixField.from_json(field.to_json())
    assert back.unitarity_residual() < 1e-13


def test_endomorphism_check(rng, spec2):
    one = CylinderFn.ones(spec2)
    ind = build_indicator(spec2)
    assert endomorphism_check(ind, one, 2) < 1e-15
    f = random_cylinder(rng, spec2, 1)
    assert endomorphism_check(ind, f, 2) < 1e-14
    roots = build_roots_of_unity(spec2)
    assert endomorphism_check(roots, f, 3) < 1e-13
    assert endomorphism_check(broken_bank(spec2), f, 2) > 0.5


def test_bank_json_roundtrip(spec_weighted):
    bank = build_indicator(spec_weighted)
    back = FilterBank.from_json(bank.to_json())
    assert back.spec == bank.spec
    for a, b in zip(back.filters, bank.filters):
        assert sup_distance(a, b) == 0
