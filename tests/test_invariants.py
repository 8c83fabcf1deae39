"""Automorphism search and the multiplicative invariant.

Core claims:
    - the chain admits exactly the shifts (reflection breaks weights)
    - the flat cycle admits all rotations and reflections, scaling by 1
    - grid translations within range are found, nothing else
    - the identity map and inverse closure always hold
    - certified weights shrink (weakly) as the radius grows
    - composition multiplies the scaling factors
    - non-tracial inputs are refused with a witness
"""

import pytest

from deltagraph import (
    NonTracialGraphError,
    deformed_chain,
    grid,
    partial_automorphisms,
    single_chain,
    t0,
)


class TestPartialAutomorphisms:
    def test_chain_shifts_only(self, chain):
        autos = partial_automorphisms(chain, 3, 3)
        assert len(autos) == 7
        lams = sorted(a.star_image_weight.value for a in autos)
        assert lams == pytest.approx(sorted(2.0 ** m for m in range(-3, 4)))
        for a in autos:
            m = a.mapping[0]
            assert all(a.mapping[v] == v + m for v in a.mapping)

    def test_flat_cycle_dihedral(self, cycle4_flat):
        autos = partial_automorphisms(cycle4_flat, 3, 3)
        assert len(autos) == 8  # 4 rotations + 4 reflections
        assert all(a.star_image_weight.is_identity() for a in autos)

    def test_grid_translations(self, grid23):
        autos = partial_automorphisms(grid23, 2, 2)
        assert len(autos) == 13
        shifts = set()
        for a in autos:
            (i, j) = a.mapping[(0, 0)]
            assert abs(i) + abs(j) <= 2
            assert a.star_image_weight == grid23.context.exact(a=i, b=j)
            assert all(
                a.mapping[v] == (v[0] + i, v[1] + j) for v in a.mapping
            )
            shifts.add((i, j))
        assert len(shifts) == 13

    @pytest.mark.parametrize("a, b", [(2, 3), (5, 2)])
    @pytest.mark.parametrize("r, s", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_grid_translations_by_radius_and_shift(self, a, b, r, s):
        # the matcher's order is its stored-edge order; the set it finds is
        # one translation per lattice point within distance s, and no other map
        g = grid(a, b)
        autos = partial_automorphisms(g, r, s)
        assert len(autos) == 2 * s * s + 2 * s + 1
        shifts = set()
        for auto in autos:
            i, j = auto.mapping[(0, 0)]
            assert all(auto.mapping[v] == (v[0] + i, v[1] + j) for v in auto.mapping)
            assert auto.star_image_weight == g.context.exact(a=i, b=j)
            shifts.add((i, j))
        assert shifts == {
            (i, j) for i in range(-s, s + 1) for j in range(-s, s + 1) if abs(i) + abs(j) <= s
        }
        assert {w.text() for w in t0(g, r, s).generators} == {"a^1", "b^1"}

    def test_identity_present(self, chain):
        autos = partial_automorphisms(chain, 2, 2)
        assert any(
            a.star_image_weight.is_identity()
            and all(a.mapping[v] == v for v in a.mapping)
            for a in autos
        )

    def test_certified_radius_recorded(self, chain):
        autos = partial_automorphisms(chain, 2, 1)
        assert all(a.certified_radius == 2 for a in autos)

    def test_composition_multiplies(self, chain):
        autos = {a.mapping[0]: a for a in partial_automorphisms(chain, 3, 3)}
        a1, a2 = autos[1], autos[2]
        composed = {v: a1.mapping[a2.mapping[v]] for v in a2.mapping if a2.mapping[v] in a1.mapping}
        a3 = autos[3]
        for v, img in composed.items():
            assert a3.mapping[v] == img
        assert (a1.star_image_weight * a2.star_image_weight) == a3.star_image_weight


class TestReports:
    def test_chain_generators(self, chain):
        rep = t0(chain, 3, 3)
        assert [w.text() for w in rep.generators] == ["q^1"]
        assert rep.label == "T0"
        assert rep.certified_radius == 3

    def test_grid_generators(self, grid23):
        rep = t0(grid23, 2, 2)
        assert [w.text() for w in rep.generators] == ["a^1", "b^1"]
        assert sorted(w.value for w in rep.generators) == [2.0, 3.0]

    def test_cayley_generators(self):
        from deltagraph import cayley

        rep = t0(cayley((2, 3)), 2, 2)
        assert sorted(w.value for w in rep.generators) == [2.0, 3.0]

    def test_finite_flat_cycle_trivial(self, cycle4_flat):
        rep = t0(cycle4_flat, 3, 3)
        assert rep.generators == ()
        assert [w.text() for w in rep.certified_weights] == ["1"]

    def test_chain_generators_deep_ball(self):
        # 1401 vertices to map, past the default recursion limit
        rep = t0(single_chain(2), 700, 1)
        assert [w.text() for w in rep.generators] == ["q^1"]

    def test_identity_weight_always_certified(self, grid23):
        rep = t0(grid23, 1, 1)
        assert any(w.is_identity() for w in rep.certified_weights)

    def test_inverse_closure(self, chain, grid23):
        for g, r, s in ((chain, 3, 3), (grid23, 2, 2)):
            rep = t0(g, r, s)
            values = sorted(round(w.value, 9) for w in rep.certified_weights)
            invs = sorted(round(1.0 / w.value, 9) for w in rep.certified_weights)
            assert values == invs

    def test_monotone_in_radius(self, chain, grid23):
        for g, s in ((chain, 2), (grid23, 2)):
            small = {w.key() for w in t0(g, 1, s).certified_weights}
            bigger = {w.key() for w in t0(g, 2, s).certified_weights}
            assert bigger <= small

    def test_deformed_chain_shrinks_strictly(self):
        g = deformed_chain(1.05, 0.3)
        r0 = t0(g, 0, 1)
        r1 = t0(g, 1, 1)
        assert len(r0.certified_weights) == 3  # unconstrained candidates
        assert [w.text() for w in r1.certified_weights] == ["1"]
        assert r1.generators == ()

    def test_nontracial_refused_with_witness(self, dchain):
        with pytest.raises(NonTracialGraphError) as exc:
            t0(dchain, 2, 2)
        assert exc.value.witness is not None
        assert not exc.value.witness.weight.is_identity()
