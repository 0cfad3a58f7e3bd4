"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance is literal equality), with the stated runtime budgets asserted.

Every expected value is either forced structurally, hand-derived in the
unit suites, or verified by an independent brute-force oracle; this
module exercises the full set at desk scale and prints one line per
criterion.
"""

import itertools
import json
import pathlib
import random
import time

import pytest

from conftest import carried_yd
from homyd.cli import main as cli_main
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    conjugation_yd,
    crossed_gset,
    cyclic_bicharacter_sigma,
    cyclic_endo_twist,
    cyclic_graded_yd,
    cyclic_group,
    cyclic_r_matrix,
    group_bialgebra,
    inner_automorphism,
    symmetric_group,
)
from homyd.linmap import LinearMap
from homyd.modules import (
    ComoduleStruct,
    ModuleStruct,
    check_comodule,
    check_module,
    induce_comodule,
    induce_module,
)
from homyd.quasitri import (
    RElement,
    SigmaForm,
    check_cqt,
    check_cqt_tensor_coincide,
    check_qt,
    check_qt_tensor_coincide,
    check_r_invariance,
    check_sigma_invariance,
    cqt_B,
    cqt_braiding,
    qt_B,
    qt_braiding,
    yd_from_comodule,
    yd_from_module,
)
from homyd.reports import CheckReport
from homyd.structures import (
    HomBialgebra,
    check_classical_bialgebra,
    check_hom_bialgebra,
)
from homyd.yd import (
    YDModule,
    associator_a,
    associator_frak_a,
    b_from_c,
    braiding_B,
    braiding_c,
    check_braid_implies_hybe,
    check_braid_relation_for,
    check_classical_yd,
    check_hexagons,
    check_hybe,
    check_hybe_for,
    check_pentagon,
    check_yd,
    hat_tensor,
    tilde_tensor,
    yd_suite,
)

Q = RATIONALS
SUITES = pathlib.Path(__file__).parents[1] / "suites"
MUTATION_SEED = 20240810  # frozen; the ten sampled mutations are all caught


def _announce(number, elapsed, detail):
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def s3_fixture():
    s3 = symmetric_group(3)
    transposition = next(
        t for t in range(6) if t != s3.identity and s3.cayley[t][t] == s3.identity
    )
    return conjugation_yd(s3, inner_automorphism(s3, transposition), Q)


@pytest.fixture(scope="module")
def c5_pair():
    return cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)


def test_criterion_01_twisting_closure():
    start = time.perf_counter()
    for n in range(1, 9):
        for k in range(n):
            twisted = cyclic_endo_twist(n, k, Q)
            report = check_hom_bialgebra(twisted)
            assert report.passed, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(1, elapsed, "all cyclic endomorphism twists n<=8 pass the "
              "Hom-bialgebra laws")


def test_criterion_02_s3_conjugation_yd(s3_fixture):
    start = time.perf_counter()
    report = check_yd(s3_fixture)
    assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, elapsed, "twisted S3 conjugation fixture satisfies the "
              "compatibility law on all 36 pairs")


def test_criterion_03_hybe_on_fixture_triples(s3_fixture, c5_pair):
    start = time.perf_counter()
    a, b = c5_pair
    for triple in itertools.product((a, b), repeat=3):
        assert check_hybe_for(*triple).passed
    assert check_hybe_for(s3_fixture, s3_fixture, s3_fixture).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(3, elapsed, "HYBE holds exactly for the braidings B of all "
              "compatible fixture triples")


def test_criterion_04_pentagon_with_diagonal(c5_pair):
    start = time.perf_counter()
    a, b = c5_pair
    for quad in ((a, a, a, a), (a, b, a, b)):
        report = check_pentagon(*quad, "hat")
        assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(4, elapsed, "both pentagon composites agree and equal the "
              "structure-map diagonal on the order-5 fixtures")


def test_criterion_05_hexagons_and_braid_relation(s3_fixture, c5_pair):
    start = time.perf_counter()
    a, b = c5_pair
    triples = list(itertools.product((a, b), repeat=3))
    triples.append((s3_fixture, s3_fixture, s3_fixture))
    for triple in triples:
        for flavor in ("hat", "tilde"):
            assert check_hexagons(*triple, flavor).passed, flavor
        assert check_braid_relation_for(*triple).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(5, elapsed, "hexagons (both tensor flavors) and the braid "
              "relation hold on every fixture triple")


def test_criterion_06_bridge_and_braid_implies_hybe(s3_fixture, c5_pair):
    start = time.perf_counter()
    a, b = c5_pair
    pairs = list(itertools.product((a, b), repeat=2)) + [(s3_fixture, s3_fixture)]
    for x, y in pairs:
        c = braiding_c(x, y)
        assert braiding_B(x, y) == b_from_c(c, x.alpha, y.alpha)
    for m, n, p in [(a, b, a), (s3_fixture, s3_fixture, s3_fixture)]:
        report = check_braid_implies_hybe(
            braiding_c(m, n), braiding_c(m, p), braiding_c(n, p),
            m.alpha, n.alpha, p.alpha,
        )
        assert report.passed
        # the derived maps agree with the directly defined braidings B
        assert b_from_c(braiding_c(m, n), m.alpha, n.alpha) == braiding_B(m, n)
    elapsed = time.perf_counter() - start
    _announce(6, elapsed, "B = (alpha⊗alpha)∘c on every fixture pair and the "
              "braid relation implies the HYBE with hypotheses verified")


def _regular_module(base, field, n, k, shift=0):
    classical_base = group_bialgebra(cyclic_group(n), field)
    act = [
        [[field.one if p == (i + j) % n else field.zero for p in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    classical = ModuleStruct.from_constants(classical_base, act)
    alpha_a = LinearMap.basis_map(field, tuple((k * j) % n for j in range(n)))
    alpha_m = LinearMap.basis_map(field, tuple((k * j + shift) % n for j in range(n)))
    out = induce_module(classical, alpha_a, alpha_m)
    return ModuleStruct(base, out.act, out.alpha)


def _graded_comodule(base, field, n, k, grade=1):
    classical_base = group_bialgebra(cyclic_group(n), field)
    coact = [
        [[field.one if i == (grade * m) % n and p == m else field.zero
          for p in range(n)]
         for i in range(n)]
        for m in range(n)
    ]
    classical = ComoduleStruct.from_constants(classical_base, coact)
    alpha = LinearMap.basis_map(field, tuple((k * j) % n for j in range(n)))
    out = induce_comodule(classical, alpha, alpha)
    return ComoduleStruct(base, out.coact, out.alpha)


def test_criterion_07_quasitriangular_route():
    start = time.perf_counter()
    cases = [
        (2, Q, -1, 1, [0, 0]),
        (5, PrimeField(11), 3, 4, [0, 1]),
    ]
    for n, field, omega, k, shifts in cases:
        base, r = cyclic_r_matrix(n, field, field.normalize(omega) if field.characteristic else omega, k)
        assert check_qt(r).passed
        assert check_r_invariance(r).passed
        mods = [_regular_module(base, field, n, k, s) for s in shifts]
        induced = [yd_from_module(m, r) for m in mods]
        for yd in induced:
            assert check_yd(yd).passed
        m, nmod = mods[0], mods[-1]
        assert check_qt_tensor_coincide(m, nmod, r).passed
        assert qt_braiding(m, nmod, r) == braiding_c(induced[0], induced[-1])
        assert qt_B(m, nmod, r) == braiding_B(induced[0], induced[-1])
        assert check_hybe(
            qt_B(m, nmod, r), qt_B(m, m, r), qt_B(nmod, m, r),
            m.alpha, nmod.alpha, m.alpha,
        ).passed
    elapsed = time.perf_counter() - start
    _announce(7, elapsed, "R-matrix fixtures: axioms, invariance, induced "
              "Yetter-Drinfeld structures, coincidence, braiding equality, HYBE")


def test_criterion_08_coquasitriangular_route():
    start = time.perf_counter()
    cases = [(3, 7, 2, 1, [1, 2]), (5, 11, 3, 4, [1, 2])]
    for n, p, omega, k, grades in cases:
        base, s = cyclic_bicharacter_sigma(n, p, omega, k)
        field = base.field
        assert check_cqt(s).passed
        assert check_sigma_invariance(s).passed
        coms = [_graded_comodule(base, field, n, k, g) for g in grades]
        induced = [yd_from_comodule(c, s) for c in coms]
        for yd in induced:
            assert check_yd(yd).passed
        m, nmod = coms[0], coms[-1]
        assert check_cqt_tensor_coincide(m, nmod, s).passed
        assert cqt_braiding(m, nmod, s) == braiding_c(induced[0], induced[-1])
        assert cqt_B(m, nmod, s) == braiding_B(induced[0], induced[-1])
        assert check_hybe(
            cqt_B(m, nmod, s), cqt_B(m, m, s), cqt_B(nmod, m, s),
            m.alpha, nmod.alpha, m.alpha,
        ).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(8, elapsed, "sigma-form fixtures mirror the R-matrix route "
              "through the tilde tensor structure")


def test_criterion_09_classical_limit_regression():
    start = time.perf_counter()
    fixtures = [
        crossed_gset(cyclic_group(4), Q),
        crossed_gset(symmetric_group(3), Q),
    ]
    # also a failing pair: trivial action with diagonal coaction, nonabelian
    s3 = symmetric_group(3)
    base = group_bialgebra(s3, Q)
    n = 6
    trivial_act = [
        [[Q.one if p == m else Q.zero for p in range(n)] for m in range(n)]
        for _ in range(n)
    ]
    mod = ModuleStruct.from_constants(base, trivial_act)
    failing = YDModule(base, mod.act, fixtures[1].coact, mod.alpha)
    for fixture in fixtures + [failing]:
        gated = check_yd(fixture)
        classical = check_classical_yd(fixture)
        assert gated.passed == classical.passed
        assert [f.index for f in gated.failures] == [f.index for f in classical.failures]
        assert [f.lhs for f in gated.failures] == [f.lhs for f in classical.failures]

    for m, n_ in itertools.product(fixtures, repeat=2):
        if m.over.mu != n_.over.mu:
            continue
        hat = hat_tensor(m, n_)
        tilde = tilde_tensor(m, n_)
        assert hat.act == tilde.act and hat.coact == tilde.coact
    for hom in fixtures:
        assert associator_a(hom, hom, hom) == LinearMap.identity(Q, (hom.dim,) * 3)
        assert associator_frak_a(hom, hom, hom) == LinearMap.identity(Q, (hom.dim,) * 3)
        # classical braiding m_(-1)·n ⊗ m_(0), built without any inverses
        ident = LinearMap.identity(Q, (hom.dim,))
        classical_braiding = (
            hom.act.tensor(ident)
            @ hom.coact.tensor(ident).permute_codomain((0, 2, 1))
        )
        assert braiding_c(hom, hom) == classical_braiding
        assert braiding_B(hom, hom) == classical_braiding
    elapsed = time.perf_counter() - start
    _announce(9, elapsed, "with identity structure maps the gated and classical "
              "checkers, both tensor flavors, both associators and the braiding "
              "all collapse to the classical theory")


def _mutation_fixtures():
    f7 = PrimeField(7)
    f11 = PrimeField(11)
    s3 = symmetric_group(3)
    transposition = next(
        t for t in range(6) if t != s3.identity and s3.cayley[t][t] == s3.identity
    )

    def bialgebra_case(build):
        h = build()
        return (
            {"mu": h.mu, "delta": h.delta, "alpha": h.alpha},
            lambda maps: check_hom_bialgebra(
                HomBialgebra(maps["mu"], maps["delta"], maps["alpha"])
            ),
        )

    def classical_case(build):
        h = build()
        return (
            {"mu": h.mu, "delta": h.delta},
            lambda maps: check_classical_bialgebra(
                HomBialgebra(maps["mu"], maps["delta"], h.alpha)
            ),
        )

    def yd_case(build):
        yd = build()
        return (
            {"act": yd.act, "coact": yd.coact, "alpha": yd.alpha},
            lambda maps, over=yd.over: yd_suite(
                YDModule(over, maps["act"], maps["coact"], maps["alpha"])
            ),
        )

    def r_case(build):
        base, r = build()
        return (
            {"r": r.element},
            lambda maps, over=base: CheckReport.combine(
                "qt_suite",
                [
                    check_qt(RElement(over, maps["r"])),
                    check_r_invariance(RElement(over, maps["r"])),
                ],
            ),
        )

    def sigma_case(build):
        base, s = build()
        return (
            {"sigma": s.form},
            lambda maps, over=base: CheckReport.combine(
                "cqt_suite",
                [
                    check_cqt(SigmaForm(over, maps["sigma"])),
                    check_sigma_invariance(SigmaForm(over, maps["sigma"])),
                ],
            ),
        )

    return [
        ("c6_twist", *bialgebra_case(lambda: cyclic_endo_twist(6, 5, Q))),
        ("c4_twist", *bialgebra_case(lambda: cyclic_endo_twist(4, 2, Q))),
        ("s3_classical", *classical_case(lambda: group_bialgebra(s3, Q))),
        ("s3_yd", *yd_case(
            lambda: conjugation_yd(s3, inner_automorphism(s3, transposition), Q)
        )),
        ("c5_graded_1", *yd_case(lambda: cyclic_graded_yd(5, 4, 1, Q))),
        ("c5_graded_2", *yd_case(lambda: cyclic_graded_yd(5, 4, 2, Q))),
        ("r_gf7", *r_case(lambda: cyclic_r_matrix(3, f7, 2, 1))),
        ("r_gf11", *r_case(lambda: cyclic_r_matrix(5, f11, 3, 4))),
        ("sigma_gf7", *sigma_case(lambda: cyclic_bicharacter_sigma(3, 7, 2, 1))),
        ("sigma_gf11", *sigma_case(lambda: cyclic_bicharacter_sigma(5, 11, 3, 4))),
    ]


def test_criterion_10_mutation_soundness():
    start = time.perf_counter()
    rng = random.Random(MUTATION_SEED)
    fixtures = _mutation_fixtures()
    assert len(fixtures) == 10
    for label, maps, suite in fixtures:
        assert suite(maps).passed, f"{label} must pass before mutation"
        key = rng.choice(sorted(maps))
        target = maps[key]
        i = rng.randrange(target.nrows)
        j = rng.randrange(target.ncols)
        entries = target.entries.copy()
        entries[i, j] = target.field.normalize(entries[i, j] + 1)
        mutated = dict(maps)
        mutated[key] = LinearMap(target.field, target.dom, target.cod, entries)
        report = suite(mutated)
        assert not report.passed, f"{label}: bump of {key}[{i},{j}] was not caught"
        assert all(f.lhs != f.rhs for f in report.failures)
    elapsed = time.perf_counter() - start
    _announce(10, elapsed, f"ten seeded single-entry mutations (seed "
              f"{MUTATION_SEED}) are all caught with differing sides")


def test_criterion_11_cli_contract(tmp_path, capsys):
    start = time.perf_counter()
    for name in ("standard_rational.json", "standard_gf7.json", "standard_gf11.json"):
        assert cli_main(["check", str(SUITES / name)]) == 0, name
    assert cli_main(["check", str(SUITES / "perturbed.json")]) == 1
    assert cli_main(["check", str(SUITES / "malformed.json")]) == 2
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    target = str(SUITES / "standard_rational.json")
    assert cli_main(["report", target, "--json", str(first)]) == 0
    assert cli_main(["report", target, "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["all_passed"] is True
    elapsed = time.perf_counter() - start
    _announce(11, elapsed, "exit codes 0/1/2 and byte-identical machine reports")


@pytest.mark.parametrize("n, budget", [(9, 1.0), (16, 2.0)])
def test_sparse_pentagon_on_cyclic_ladder(n, budget):
    # n = 16 is the largest example order: the pentagon composites are
    # 65536 x 65536 maps, out of reach for dense storage
    start = time.perf_counter()
    a, b = cyclic_graded_yd(n, n - 1, 1, Q), cyclic_graded_yd(n, n - 1, 2, Q)
    report = check_pentagon(a, b, a, b, "hat")
    elapsed = time.perf_counter() - start
    assert report.passed
    assert elapsed < budget
    print(f"PENTAGON n={n}: PASS ({elapsed:.2f}s)")


def test_dense_pentagon_at_the_dimension_guard():
    # structure maps dense 16 x 16 over GF(11), the largest example order: the
    # composites would be dense 65536 x 65536 maps, checked factor by factor
    # within the work limits of linmap (test_work_limits refuses the HYBE
    # and hexagons of this pair)
    field = PrimeField(11)
    rng = random.Random(20261018)
    q = None
    while q is None or not q.is_invertible():
        rows = [[rng.randrange(11) for _ in range(16)] for _ in range(16)]
        q = LinearMap.from_rows(field, (16,), (16,), rows)
    a, b = (carried_yd(cyclic_graded_yd(16, 15, g, field), q) for g in (1, 2))
    assert min(len(a.alpha.values), len(b.alpha.values)) > 0.8 * 256
    start = time.perf_counter()
    reports = [check_pentagon(a, b, a, b, flavor) for flavor in ("hat", "tilde")]
    elapsed = time.perf_counter() - start
    assert all(report.passed for report in reports)
    assert elapsed < 1.0
    print(f"DENSE PENTAGON dim=16: PASS ({elapsed:.2f}s)")
