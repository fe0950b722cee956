"""Internal invariants fail with typed errors, never with a bare assert:
`python -O` strips asserts, and the command line maps CrossCheckMismatch,
not AssertionError, to exit code 3."""

import ast
from pathlib import Path

import pytest

import ellcover as ec
import ellcover.cli as cli
import ellcover.coverparam as cp
import ellcover.fqpoly as fqpoly
import ellcover.gf as gf
from ellcover.coverparam import Regime
import ellcover.lseries as ls


def _frozen_frobenius(ctx, base_order):
    """A Frobenius literal table that fixes every literal."""
    return range(ctx.order)


@pytest.mark.parametrize("qell, degree", [((2, 3), 2), ((3, 5), 4)])
def test_broken_frobenius_orbit_raises_a_typed_error(monkeypatch, qell, degree):
    reg = Regime(*qell)  # a private regime: the broken split must not be cached
    monkeypatch.setattr(cp, "_frobenius_table", _frozen_frobenius)
    prime = ec.primes_with_degree(reg.base, degree)[0]
    with pytest.raises(ec.CrossCheckMismatch):
        ec.split_prime(reg, prime)
    assert reg._split_cache == {}


@pytest.mark.parametrize("degree", [4, 8])
def test_wrong_gf4_factor_fails_the_packed_product_check(monkeypatch, degree):
    # x**m + rho has the degree m of the true factor, but times its conjugate
    # it gives x**(2m) + x**m + 1, which is not prime for m > 1
    from ellcover import _gf2

    def wrong_remainder(p, y):
        # r = 1 and t = x**m + 1 make the factor (r + t) + rho*r = x**m + rho
        return 1, 1 << (p.bit_length() - 1) // 2 | 1

    reg = Regime(2, 3)  # a private regime: the broken classes must not be cached
    monkeypatch.setattr(_gf2, "_half_remainder", wrong_remainder)
    prime = ec.primes_with_degree(reg.base, degree)[0]
    with pytest.raises(ec.CrossCheckMismatch, match="does not give the prime"):
        ec.prime_classes(reg, prime)
    assert reg._class_cache == {"least": {}, "greatest": {}}


@pytest.mark.parametrize("remainder, message", [
    (lambda m: (1, 1 << m - 1 | 1), "does not have half the degree"),
    (lambda m: (1 << m, 1 << m | 1), "does not have half the degree"),
    (lambda m: (0, 1 << m), "does not give the prime"),  # hi = 0
], ids=["low-cofactor", "high-remainder", "zero-remainder"])
def test_wrong_half_remainder_fails_a_factor_check(monkeypatch, remainder, message):
    from ellcover import _gf2

    monkeypatch.setattr(_gf2, "_half_remainder",
                        lambda p, y: remainder((p.bit_length() - 1) // 2))
    with pytest.raises(ec.CrossCheckMismatch, match=message):
        _gf2.conjugate_factor_coeffs(0b100011011)  # a prime of degree 8


@pytest.mark.parametrize("bits, check", [
    (0b100, "no power of x has trace 1"),  # x**2
    (0b110, "the chosen power of x does not have trace 1"),  # x*(x + 1)
])
def test_reducible_input_fails_a_trace_check(bits, check):
    # prime_factor refuses each at the check named, and the factor that
    # prime_classes reads must not be asked of a composite
    from ellcover import _gf2

    assert _gf2.prime_factor(bits) is None, check
    with pytest.raises(ec.CrossCheckMismatch, match="the input is not prime"):
        _gf2.conjugate_factor_coeffs(bits)


def test_broken_frobenius_orbit_exits_3_from_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(cp, "_frobenius_table", _frozen_frobenius)
    monkeypatch.setattr(cli, "make_regime", Regime)
    rc = cli.main(["count-points", "--q", "2", "--ell", "3", "--tuple", "1,1,1;1"])
    assert rc == 3
    assert "verification failure" in capsys.readouterr().err


def test_wrong_twist_exponents_raise_a_typed_error():
    reg = Regime(2, 3)
    reg.v_exps = (1, 1)  # degree of F_1 * F_2 is 2, not 0 mod 3
    fs = (ec.Poly(reg.base, [1, 1, 1]), ec.Poly.one(reg.base))
    with pytest.raises(ec.CrossCheckMismatch):
        ec.twisted_model(ec.CoverParams(reg, fs, reg.ext.elem(1)))


@pytest.mark.parametrize("value", [0, 1])
def test_l_polynomial_checks_raise_typed_errors(monkeypatch, value):
    # one monic of class 0 at every degree leaves a nonvanishing coefficient
    # above the degree bound; none leaves c_0 = 0
    def fake(regime, points, terms):
        for _ in range(terms):
            yield {(0,) * len(points): value}

    monkeypatch.setattr(ls, "_horner_counts", fake)
    reg = ec.Regime(2, 3)  # three points of F_4: the fake transfer runs
    with pytest.raises(ec.CrossCheckMismatch):
        ec.l_polynomial(reg, [reg.ext.elem(v) for v in range(3)], [1, 1, 1])


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_assert_in_the_package():
    modules = sorted(Path(ec.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


@pytest.mark.parametrize("pk", [(2, 3), (3, 2)])
def test_failed_field_construction_raises_a_typed_error(monkeypatch, pk):
    # a private context: make_field's cache must not see the broken search
    monkeypatch.setattr(fqpoly, "_monic_irreducible", lambda *args: False)
    with pytest.raises(ec.CrossCheckMismatch, match="no irreducible modulus"):
        gf.FieldCtx(*pk)
