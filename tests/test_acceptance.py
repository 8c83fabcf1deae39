"""Acceptance suite: one test per exit criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

All checks are exact-combinatorial or tolerance-pinned at 1e-9; the three
timed criteria assert their stated wall-clock budgets.
"""

import time

import pytest

from deltagraph import (
    Coefficient,
    ball,
    basis,
    cap,
    cayley,
    chain_shift_action,
    cup,
    cycle,
    deformed_chain,
    double_chain,
    enumerate_loops,
    grid,
    inner,
    iso_check,
    lattice_shift_action,
    lift_loop,
    loop_vector,
    modular_spectrum,
    quotient,
    recover,
    single_chain,
    t0,
    tracial_cover,
)


def _ok(num, msg):
    print("ACCEPTANCE %d PASS: %s" % (num, msg))


def _delta_sum(g):
    total = Coefficient.zero(g.context)
    for e in g.out_edges(g.basepoint):
        total = total + Coefficient.of_weight(e.weight)
    return total


def test_1_tl_relations():
    start = time.perf_counter()
    for g in (single_chain(2), double_chain(2, 3)):
        dv = _delta_sum(g)
        assert dv.value().real == pytest.approx(g.delta)
        for n in range(0, 7):
            for v in basis(g, n):
                for i in range(0, n + 1):
                    up = cup(g, v, i)
                    assert cap(up, i + 1).eq(v.scaled(dv))  # delooping, exact
                    if i >= 1:
                        assert cap(up, i).eq(v)  # zig-zag, exact
                    if i <= n - 1:
                        assert cap(up, i + 2).eq(v)  # other zig-zag, exact
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(1, "TL delooping and zig-zags exact for n <= 6 (%.2fs)" % elapsed)


def test_2_modular_spectrum():
    sp = modular_spectrum(double_chain(2, 3), 2, verify=True)
    got = {round(w.value, 12): m for w, m in sp.eigenvalues}
    assert got == {1.0: 4, round(2 / 3, 12): 2, 1.5: 2}
    assert sp.verified  # the defining relation held on every basis pair
    ch = single_chain(2)
    for n in range(0, 7):
        sp = modular_spectrum(ch, n, verify=True)
        assert sp.is_trivial()
        assert sp.verified
    _ok(2, "spectrum {1x4, (2/3)x2, (3/2)x2} at n=2; chain all-1 to n=6; relation exact")


def test_3_tracial_cover():
    cov, _ = tracial_cover(double_chain(2, 3), 3)
    assert iso_check(cov, ball(grid(2, 3), 3), interior_only=True)
    for g in (single_chain(2), cycle(4, 1), deformed_chain(1.05, 0.3)):
        cov, _ = tracial_cover(g, 3)
        assert iso_check(cov, ball(g, 3)) is not None
    _ok(3, "cover(double chain) = grid on interiors; tracial inputs are fixed points")


def test_4_mu_bijection():
    g = double_chain(2, 3)
    for n in (2, 4, 6):
        unit = [l for l in enumerate_loops(g, n) if l.weight.is_identity()]
        cov, _ = tracial_cover(g, n)
        assert len(unit) == len(enumerate_loops(cov, n))
        lifted = [lift_loop(g, l, cover=cov) for l in unit]
        assert len(set(lifted)) == len(unit)  # injective
    cov, _ = tracial_cover(g, 4)
    units = [l for l in enumerate_loops(g, 2) if l.weight.is_identity()]
    for l1 in units:
        for l2 in units:
            assert lift_loop(g, l1 * l2, cover=cov) == lift_loop(
                g, l1, cover=cov
            ) * lift_loop(g, l2, cover=cov)
    _ok(4, "weight-1 loop counts match the cover at n=2,4,6; lift injective, multiplicative")


def test_5_quotients():
    ch = single_chain(2)
    q3 = quotient(ch, chain_shift_action(ch, 3), 4)
    assert iso_check(q3, ball(cycle(3, 2), 4)) is not None
    q1 = quotient(ch, chain_shift_action(ch, 1), 4)
    assert len(q1.vertices) == 1
    gr = grid(2, 3)
    qd = quotient(gr, lattice_shift_action(gr, (1, -1)), 4)
    assert iso_check(qd, ball(double_chain(2, 3), 4), interior_only=True)
    for base, q in ((ch, q3), (ch, q1), (gr, qd)):
        cov, _ = tracial_cover(q, 4)
        assert iso_check(cov, ball(base, 4), interior_only=True)
    _ok(5, "chain/<q^3> = 3-cycle; chain/<q> a point; cover(quotient) = original at r=4")


def test_6_recovery():
    for g in (double_chain(2, 3), single_chain(2), cycle(3, 2)):
        rec = recover(g, 4)
        assert iso_check(rec, ball(g, 4), interior_only=True)
    _ok(6, "recover(g, 4) = ball(g, 4) on interiors for the three example graphs")


def test_7_invariants():
    cases = (
        (single_chain(2), 3, 3, [2.0]),
        (grid(2, 3), 2, 2, [2.0, 3.0]),
        (cycle(4, 1), 3, 3, []),
        (cayley((2, 3)), 2, 2, [2.0, 3.0]),
    )
    for g, r, s, expected in cases:
        start = time.perf_counter()
        rep = t0(g, r, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert sorted(w.value for w in rep.generators) == pytest.approx(expected)
        if not expected:
            assert [w.text() for w in rep.certified_weights] == ["1"]
    _ok(7, "T0: chain <q>, grid {a,b}, flat 4-cycle {1}, Cayley Z^2 {2,3}; each < 5s")


def test_8_inner_product_oracle():
    examples = (
        single_chain(2),
        double_chain(2, 3),
        grid(2, 3),
        cycle(3, 2),
        cycle(4, 1),
        cayley((2, 3)),
        deformed_chain(1.05, 0.3),
    )
    for g in examples:
        for n in range(0, 5):
            loops = enumerate_loops(g, n)
            exact = all(l.weight.is_exact for l in loops)
            for lf in loops:
                f = loop_vector(g, lf)
                for lg in loops:
                    h = loop_vector(g, lg)
                    left = inner(g, f, h, "left")
                    right = inner(g, f, h, "right")
                    if lf == lg:
                        want_l = Coefficient.one(g.context)
                        want_r = Coefficient.of_weight(lf.weight.inverse())
                    else:
                        want_l = want_r = Coefficient.zero(g.context)
                    if exact:
                        assert left == want_l and right == want_r
                    else:
                        assert left.isclose(want_l) and right.isclose(want_r)
    _ok(8, "left Gram = identity, right Gram = diag(1/w(l)) by nested caps, n <= 4")


def test_9_deformed_family():
    g = deformed_chain(1.05, 0.3)
    delta = 1.05 + 1 / 1.05
    b = ball(g, 6)
    assert b.interior
    for v in b.interior:
        total = sum(e.weight.value for e in b.out_edges(v))
        assert abs(total - delta) <= 1e-9 * delta
    _ok(9, "deformed chain outgoing sums within 1e-9 of q + 1/q on the radius-6 ball")


def test_10_verified_spectrum_past_limit():
    start = time.perf_counter()
    sp = modular_spectrum(double_chain(2, 3), 6, verify=True)
    elapsed = time.perf_counter() - start
    assert sp.verified
    assert sp.total_multiplicity == 1280
    assert elapsed < 5.0
    _ok(10, "double chain n=6: modular relation on all 1280^2 basis pairs (%.2fs)" % elapsed)
