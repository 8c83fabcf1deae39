"""Builders: domains, validation of every output, and the builder registry."""

import pytest

from deltagraph import (
    ball,
    build,
    cayley,
    cycle,
    deformed_chain,
    double_chain,
    grid,
    iso_check,
    single_chain,
    spec_from_text,
    validate,
)
from deltagraph.builders import GraphSpec, chain_shift_action, lattice_shift_action

ALL_BUILDERS = (
    lambda: single_chain(2),
    lambda: double_chain(2, 3),
    lambda: grid(2, 3),
    lambda: cycle(3, 2),
    lambda: cycle(4, 1),
    lambda: cayley((2, 3)),
    lambda: cayley((2.0,)),
    lambda: deformed_chain(1.05, 0.3),
)


@pytest.mark.parametrize("maker", ALL_BUILDERS)
def test_every_builder_validates_at_radius_6(maker):
    report = validate(maker(), 6)
    assert report.passed, report.failures()


class TestDomains:
    def test_single_chain_needs_delta_above_2(self):
        with pytest.raises(ValueError):
            single_chain(1)
        with pytest.raises(ValueError):
            single_chain(0)

    def test_double_chain_needs_delta_above_4(self):
        with pytest.raises(ValueError):
            double_chain(1, 1)
        assert double_chain(1, 2).delta == pytest.approx(4.5)

    def test_cycle_domain(self):
        with pytest.raises(ValueError):
            cycle(0, 2)
        with pytest.raises(ValueError):
            cycle(3, -1)
        assert len(ball(cycle(1, 2), 2).vertices) == 1

    @pytest.mark.parametrize("n", [2.5, float("inf"), float("nan")])
    def test_cycle_length_is_integral(self, n):
        with pytest.raises(ValueError, match="cycle needs an integral n"):
            cycle(n, 2)
        assert len(ball(cycle(2.0, 2), 2).vertices) == 2

    @pytest.mark.parametrize("steps", [1.5, float("inf"), float("nan")])
    def test_chain_shift_is_integral(self, steps):
        g = single_chain(2)
        with pytest.raises(ValueError, match="chain shift needs an integral step count"):
            chain_shift_action(g, steps)
        (gen,) = chain_shift_action(g, 2.0).generators
        assert gen.weight == g.context.gen("q", 2) and gen.act(0) == 2
        # an int past the float range is integral and stays exact
        (gen,) = chain_shift_action(g, 10 ** 400).generators
        assert gen.weight == g.context.gen("q", 10 ** 400)

    @pytest.mark.parametrize("vec", [(1.5, 0), (0, -0.5)])
    def test_lattice_shift_is_integral(self, vec):
        g = grid(2, 3)
        with pytest.raises(ValueError, match="lattice shift needs an integral coordinate"):
            lattice_shift_action(g, vec)
        (gen,) = lattice_shift_action(g, (2.0, -1)).generators
        assert gen.weight.text() == "a^2 * b^-1" and gen.act((0, 0)) == (2, -1)

    def test_cayley_domain(self):
        with pytest.raises(ValueError):
            cayley(())
        with pytest.raises(ValueError):
            cayley((2, -3))

    def test_deformed_domain(self):
        with pytest.raises(ValueError):
            deformed_chain(1.0, 0.3)

    def test_delta_values(self):
        assert single_chain(2).delta == pytest.approx(2.5)
        assert double_chain(2, 3).delta == pytest.approx(2 + 0.5 + 3 + 1 / 3)
        assert cycle(4, 1).delta == pytest.approx(2.0)


class TestRegistry:
    def test_cayley_is_the_grid(self):
        m = iso_check(ball(cayley((2, 3)), 2), ball(grid(2, 3), 2))
        assert m is not None

    def test_build_dispatch(self):
        g = build(GraphSpec("cycle", {"n": 3, "q": 2}))
        assert len(ball(g, 3).vertices) == 3
        g = build(GraphSpec("cayley", {"k": 2, "w1": 2, "w2": 3}))
        assert g.basepoint == (0, 0)

    def test_build_cayley_rank_is_integral(self):
        with pytest.raises(ValueError, match="cayley needs an integral k, got 2.5"):
            build(GraphSpec("cayley", {"k": 2.5, "w1": 2, "w2": 3}))
        g = build(GraphSpec("cayley", {"k": 2.0, "w1": 2, "w2": 3}))
        assert g.basepoint == (0, 0)

    def test_build_missing_parameter(self):
        with pytest.raises(ValueError):
            build(GraphSpec("single_chain", {}))
        with pytest.raises(ValueError):
            build(GraphSpec("unknown", {}))

    def test_build_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameter w3"):
            build(GraphSpec("cayley", {"k": 2, "w1": 2, "w2": 3, "w3": 5}))
        g = build(GraphSpec("grid", {"a": 2, "b": 3, "tolerance": 1e-6}))
        assert g.context.tolerance == 1e-6

    def test_spec_from_text(self):
        spec = spec_from_text("double_chain:a=2,b=3")
        assert spec.variant == "double_chain"
        assert spec.params == {"a": 2.0, "b": 3.0}
        with pytest.raises(ValueError):
            spec_from_text("nope:x=1")
        with pytest.raises(ValueError):
            spec_from_text("grid:a2")
