import json
import operator
from fractions import Fraction

import numpy as np
import pytest

from puremeasure.fa_lattice import (
    AlgebraSet,
    FAMeasure,
    GroundSet,
    MeasurabilityMismatch,
    NegativeMeasure,
    NotInAlgebra,
    SimpleFunction,
    SubAlgebra,
    TooLarge,
    band_decompose,
    constant_tail,
    continuity_check,
    converges_in_measure,
    decay_tail,
    evaluate,
    integrate_simple,
    jordan_decompose,
    lattice_meet,
    lattice_meet_oracle,
    measure_from_json,
    measure_to_json,
    outer_measure,
    restrict,
    sigma_additive_part,
    total_variation,
    total_variation_measure,
    tv_partition_oracle,
)

ABC = GroundSet(("a", "b", "c"))


def mu_abc(*vals):
    return FAMeasure.on_atoms(ABC, [Fraction(v) for v in vals])


def seeded_family(max_atoms=5, count=200, seed=20260808):
    """Fixed seeded family of rational measures on random partitions."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_atoms + 1))
        ground = GroundSet(tuple(f"a{i}" for i in range(n)))
        # random partition: assign each atom to one of up to n buckets
        labels = rng.integers(0, n, size=n)
        buckets = {}
        for atom, lab in enumerate(labels):
            buckets.setdefault(int(lab), []).append(atom)
        blocks = tuple(sum(1 << a for a in atoms) for atoms in buckets.values())
        algebra = SubAlgebra(ground, blocks)
        values = tuple(
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
            for _ in blocks
        )
        out.append(FAMeasure(algebra, values))
    return out


FAMILY = seeded_family()


# ------------------------------------------------------------------ evaluate

def test_evaluate_additivity():
    mu = mu_abc(2, -3, 1)
    assert evaluate(mu, ABC.subset("ab")) == -1
    assert evaluate(mu, ABC.empty) == 0


def test_evaluate_rejects_non_measurable():
    ground = GroundSet(("a", "b", "c"))
    algebra = SubAlgebra.from_blocks(ground, [["a", "b"], ["c"]])
    mu = FAMeasure(algebra, (Fraction(5), Fraction(2)))
    with pytest.raises(NotInAlgebra):
        evaluate(mu, ground.subset("a"))


def test_evaluate_additive_over_disjoint_unions():
    for mu in FAMILY[:40]:
        sets = list(mu.algebra.members())
        for s in sets[: min(len(sets), 8)]:
            t = s.complement()
            assert evaluate(mu, s) + evaluate(mu, t) == evaluate(mu, s.union(t))


# ------------------------------------------------------- total variation

def test_total_variation_examples():
    mu = mu_abc(2, -3, 1)
    full = ABC.full
    assert tv_partition_oracle(mu, full) == 6
    assert total_variation(mu, full) == 6
    assert tv_partition_oracle(mu, ABC.subset("ab")) == 5
    assert total_variation(mu, ABC.subset("ab")) == 5


def test_total_variation_of_positive_measure_is_the_measure():
    mu = mu_abc(1, 1, 2)
    for s in ABC.all_subsets():
        assert total_variation(mu, s) == evaluate(mu, s)


def test_tv_oracle_single_block_and_positive():
    ground = GroundSet(("a",))
    mu = FAMeasure.on_atoms(ground, [Fraction(-7)])
    assert tv_partition_oracle(mu, ground.full) == 7
    two = GroundSet(("a", "b"))
    nu = FAMeasure.on_atoms(two, [1, 1])
    assert tv_partition_oracle(nu, two.full) == 2


def test_tv_oracle_bound():
    ground = GroundSet(tuple("abcdefg"))
    mu = FAMeasure.on_atoms(ground, [1] * 7)
    with pytest.raises(TooLarge):
        tv_partition_oracle(mu, ground.full)


def test_total_variation_matches_oracle_on_family():
    for mu in FAMILY:
        for s in mu.algebra.members():
            assert total_variation(mu, s) == tv_partition_oracle(mu, s)


def test_tv_subadditive_and_additive_when_orthogonal():
    for mu, nu in zip(FAMILY[:60], FAMILY[60:120]):
        if mu.algebra != nu.algebra:
            continue
        full = mu.algebra.ground.full
        for s in mu.algebra.members():
            assert total_variation(mu + nu, s) <= total_variation(mu, s) + total_variation(nu, s)
    # orthogonal pair: disjoint supports give equality everywhere
    mu = mu_abc(2, 0, 0)
    nu = mu_abc(0, -3, 1)
    assert lattice_meet(total_variation_measure(mu), total_variation_measure(nu), ABC.full) == 0
    for s in ABC.all_subsets():
        assert total_variation(mu + nu, s) == total_variation(mu, s) + total_variation(nu, s)


# ------------------------------------------------------------------- meet

def test_meet_example_attained_inside():
    mu = mu_abc(2, 0, 1)
    nu = mu_abc(1, 4, 0)
    assert lattice_meet(mu, nu, ABC.full) == 1


def test_meet_orthogonal_and_idempotent():
    mu = mu_abc(2, 0, 0)
    nu = mu_abc(0, 3, 1)
    assert lattice_meet(mu, nu, ABC.full) == 0
    pos = mu_abc(1, 2, 3)
    for s in ABC.all_subsets():
        assert lattice_meet(pos, pos, s) == evaluate(pos, s)


def test_meet_of_nonnegative_atom_measures_is_atomwise_min():
    rng = np.random.default_rng(7)
    for _ in range(25):
        vals1 = [Fraction(int(rng.integers(0, 9))) for _ in range(3)]
        vals2 = [Fraction(int(rng.integers(0, 9))) for _ in range(3)]
        mu, nu = mu_abc(*vals1), mu_abc(*vals2)
        expected = sum(min(a, b) for a, b in zip(vals1, vals2))
        assert lattice_meet(mu, nu, ABC.full) == expected


def test_meet_matches_oracle_on_family():
    for mu, nu in zip(FAMILY, FAMILY[1:]):
        if mu.algebra != nu.algebra:
            nu = FAMeasure(mu.algebra, tuple(reversed(mu.values)))
        for s in mu.algebra.members():
            assert lattice_meet(mu, nu, s) == lattice_meet_oracle(mu, nu, s)


def test_meet_matches_oracle_on_random_signed_measures():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        ground = GroundSet(tuple(f"a{i}" for i in range(n)))
        mu, nu = (
            FAMeasure.on_atoms(ground, [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(n)])
            for _ in range(2)
        )
        subsets = [ground.full, ground.empty, AlgebraSet(ground, int(rng.integers(0, 1 << n)))]
        for s in subsets:
            assert lattice_meet(mu, nu, s) == lattice_meet_oracle(mu, nu, s)


# ------------------------------------------------------------------ jordan

def test_jordan_examples():
    mu = mu_abc(2, -3, 1)
    pos, neg = jordan_decompose(mu)
    assert pos.values == (2, 0, 1)
    assert neg.values == (0, 3, 0)
    nonneg = mu_abc(1, 0, 5)
    pos, neg = jordan_decompose(nonneg)
    assert pos == nonneg and neg.is_zero
    single = FAMeasure.on_atoms(GroundSet(("a",)), [-1])
    pos, neg = jordan_decompose(single)
    assert pos.values == (0,) and neg.values == (1,)


def test_jordan_sup_formula_on_family():
    for mu in FAMILY[:80]:
        pos, _ = jordan_decompose(mu)
        for s in mu.algebra.members():
            sup = max(
                evaluate(mu, t)
                for t in mu.algebra.members()
                if t.issubset(s)
            )
            assert evaluate(pos, s) == sup


def test_jordan_identities_on_family():
    for mu in FAMILY:
        pos, neg = jordan_decompose(mu)
        full = mu.algebra.ground.full
        assert pos - neg == mu
        for s in mu.algebra.members():
            assert evaluate(pos, s) + evaluate(neg, s) == total_variation(mu, s)
        assert lattice_meet(pos, neg, full) == 0


# ------------------------------------------------------ restrict and bands

def test_restrict_examples():
    mu = mu_abc(2, -3, 1)
    r = restrict(mu, ABC.subset("ab"))
    assert evaluate(r, ABC.subset("bc")) == -3
    assert restrict(mu, ABC.full) == mu
    assert restrict(mu, ABC.empty).is_zero


def test_band_decompose_examples():
    mu = mu_abc(2, -3, 1)
    inside, outside = band_decompose(mu, ABC.subset("a"))
    assert inside.values == (2, 0, 0)
    assert outside.values == (0, -3, 1)
    inside, outside = band_decompose(mu, ABC.full)
    assert inside == mu and outside.is_zero


def test_band_parts_orthogonal_and_unique():
    for mu in FAMILY[:80]:
        for band in list(mu.algebra.members())[:8]:
            inside, outside = band_decompose(mu, band)
            assert inside + outside == mu
            assert lattice_meet(
                total_variation_measure(inside), total_variation_measure(outside),
                mu.algebra.ground.full,
            ) == 0
            # re-decomposing either part is stable: the projection is idempotent
            assert band_decompose(inside, band) == (inside, FAMeasure(mu.algebra, (0,) * mu.algebra.block_count))


def test_orthogonal_complement_characterisation():
    # any candidate supported in the band and dominated by |outside| is zero
    for mu in FAMILY[:60]:
        algebra = mu.algebra
        full = algebra.ground.full
        for band in list(algebra.members())[:6]:
            _, outside = band_decompose(mu, band)
            tv_out = total_variation_measure(outside)
            candidate_values = {Fraction(0)}
            for v in mu.values:
                candidate_values |= {v, abs(v), abs(v) / 2}
            for v in candidate_values:
                for i, block in enumerate(algebra.blocks):
                    if block & ~band.mask:
                        continue  # candidate must be supported in the band
                    vals = [Fraction(0)] * algebra.block_count
                    vals[i] = v
                    sigma = FAMeasure(algebra, tuple(vals))
                    tv_sigma = total_variation_measure(sigma)
                    dominated = all(
                        evaluate(tv_sigma, s) <= evaluate(tv_out, s) for s in algebra.members()
                    )
                    if dominated:
                        assert sigma.is_zero


def test_nested_bands_exhaustive_small():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        ground = GroundSet(tuple(f"a{i}" for i in range(n)))
        mu = FAMeasure.on_atoms(
            ground, [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n)]
        )
        for big in ground.all_subsets():
            for small in ground.all_subsets():
                if not small.issubset(big):
                    continue
                first, _ = band_decompose(mu, big)
                nested, nested_rest = band_decompose(first, small)
                direct, direct_rest = band_decompose(mu, small)
                assert nested == direct
                # complement of the small band inside the big one
                assert nested_rest == restrict(mu, big.intersection(small.complement()))
                del direct_rest


def test_pure_part_is_zero_on_finite_algebras():
    for mu in FAMILY:
        sigma_part, pure = sigma_additive_part(mu)
        assert sigma_part == mu
        assert pure.is_zero


# -------------------------------------------------------------- continuity

def test_continuity_examples():
    mu = mu_abc(2, -3, 1)
    nu = mu_abc(1, 4, 0)
    assert continuity_check(mu, nu) is False
    assert continuity_check(mu_abc(2, -3, 0), nu) is True
    everywhere_positive = mu_abc(1, 1, 1)
    assert continuity_check(mu, everywhere_positive) is True


def test_continuity_modes_agree_on_family():
    for mu, nu in zip(FAMILY[:50], FAMILY[50:100]):
        if mu.algebra != nu.algebra:
            continue
        # the definition, set by set; continuity_check raises if its two criteria disagree
        nu_null = [s for s in mu.algebra.members() if total_variation(nu, s) == 0]
        assert continuity_check(mu, nu) == all(evaluate(mu, s) == 0 for s in nu_null)


# ------------------------------------------------------------ outer measure

def test_outer_measure_examples():
    ground = GroundSet(("a", "b", "c"))
    algebra = SubAlgebra.from_blocks(ground, [["a", "b"], ["c"]])
    mu = FAMeasure(algebra, (Fraction(5), Fraction(2)))
    assert outer_measure(mu, ground.subset("a")) == 5
    assert outer_measure(mu, ground.subset("ac")) == 7
    assert outer_measure(mu, ground.empty) == 0


def test_outer_measure_rejects_signed():
    mu = mu_abc(1, -1, 0)
    with pytest.raises(NegativeMeasure):
        outer_measure(mu, ABC.subset("a"))


def test_outer_measure_properties():
    for mu in FAMILY[:60]:
        tv = total_variation_measure(mu)
        ground = mu.algebra.ground
        subsets = list(ground.all_subsets())
        for s in subsets[: min(len(subsets), 10)]:
            for t in subsets[: min(len(subsets), 10)]:
                if s.issubset(t):
                    assert outer_measure(tv, s) <= outer_measure(tv, t)
                assert outer_measure(tv, s.union(t)) <= outer_measure(tv, s) + outer_measure(tv, t)
        for s in mu.algebra.members():
            assert outer_measure(tv, s) == evaluate(tv, s)


# -------------------------------------------------------------- integration

def test_integrate_examples():
    f = SimpleFunction.on_atoms(ABC, [1, 2, 3])
    mu = mu_abc(2, -3, 1)
    assert integrate_simple(f, mu) == -1
    one = SimpleFunction.constant(mu.algebra, 1)
    assert integrate_simple(one, mu) == evaluate(mu, ABC.full)
    ind = SimpleFunction.indicator(mu.algebra, ABC.subset("ac"))
    assert integrate_simple(ind, mu) == evaluate(mu, ABC.subset("ac"))


def test_integrate_requires_measurability():
    ground = GroundSet(("a", "b"))
    coarse = SubAlgebra.from_blocks(ground, [["a", "b"]])
    fine_fn = SimpleFunction.on_atoms(ground, [1, 2])
    mu = FAMeasure(coarse, (Fraction(1),))
    with pytest.raises(MeasurabilityMismatch):
        integrate_simple(fine_fn, mu)
    # coarse function against a fine measure is fine
    coarse_fn = SimpleFunction(coarse, (Fraction(7),))
    fine_mu = FAMeasure.on_atoms(ground, [1, 2])
    assert integrate_simple(coarse_fn, fine_mu) == 21


def test_integrate_linearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vals = lambda: [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(3)]
        f, g = SimpleFunction.on_atoms(ABC, vals()), SimpleFunction.on_atoms(ABC, vals())
        mu = mu_abc(*vals())
        a, b = Fraction(3, 2), Fraction(-2, 5)
        combo = f.scaled(a) + g.scaled(b)
        assert integrate_simple(combo, mu) == a * integrate_simple(f, mu) + b * integrate_simple(g, mu)
        assert integrate_simple(f - g, mu) == integrate_simple(f, mu) - integrate_simple(g, mu)
        # linear in the measure too: sums, differences and scalings of FAMeasures
        nu = mu_abc(*vals())
        mix = mu.scaled(a) + nu.scaled(b)
        assert integrate_simple(f, mix) == a * integrate_simple(f, mu) + b * integrate_simple(f, nu)
        assert integrate_simple(f, mu - nu) == integrate_simple(f, mu) - integrate_simple(f, nu)
        assert all(type(m) is FAMeasure for m in (mix, mu - nu, mu.scaled(a)))
        assert all(type(h) is SimpleFunction for h in (combo, f - g, f.scaled(a)))
    coarse = SubAlgebra.from_blocks(ABC, [["a", "b"], ["c"]])
    for fine, other in ((mu, FAMeasure(coarse, (1, 2))), (f, SimpleFunction(coarse, (1, 2)))):
        for op in (operator.add, operator.sub):
            with pytest.raises(NotInAlgebra):
                op(fine, other)


# --------------------------------------------------- convergence in measure

def test_convergence_null_difference():
    mu = mu_abc(2, -3, 0)
    f = SimpleFunction.on_atoms(ABC, [1, 1, 1])
    bump = SimpleFunction.indicator(SubAlgebra.atoms(ABC), ABC.subset("c"))
    seq = constant_tail(f + bump)
    assert converges_in_measure(seq, f, mu, Fraction(1, 2)) is True


def test_convergence_decay_tail():
    mu = mu_abc(2, -3, 1)
    f = SimpleFunction.on_atoms(ABC, [0, 0, 0])
    seq = decay_tail(SimpleFunction.constant(f.algebra, 1))
    assert converges_in_measure(seq, f, mu, Fraction(1, 100)) is True


def test_convergence_fails_on_charged_set():
    mu = mu_abc(2, -3, 1)
    f = SimpleFunction.on_atoms(ABC, [0, 0, 0])
    bump = SimpleFunction.indicator(SubAlgebra.atoms(ABC), ABC.subset("a"))
    seq = constant_tail(f + bump)
    assert converges_in_measure(seq, f, mu, Fraction(1, 2)) is False


# ----------------------------------------------------------------- fixtures

def test_json_round_trip():
    for mu in FAMILY[:20]:
        blob = json.dumps(measure_to_json(mu))
        back = measure_from_json(json.loads(blob))
        assert back == mu
