import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prefixnorm.monoid import (
    MonoidKind,
    MonoidValue,
    combine,
    compare,
    format_payload,
    identity,
    parse_payload,
    parse_value,
    payload_combine,
    payload_identity,
    payload_residual,
)


def test_identity_values():
    assert identity(MonoidKind.NAT_SUM).payload == 0
    assert identity(MonoidKind.NAT_PRODUCT).payload == 1
    assert identity(MonoidKind.VEC2_LEX).payload == (0, 0)


def test_combine_examples():
    assert combine(MonoidValue(MonoidKind.NAT_SUM, 2), MonoidValue(MonoidKind.NAT_SUM, 3)).payload == 5
    assert combine(
        MonoidValue(MonoidKind.VEC2_LEX, (0, 2)), MonoidValue(MonoidKind.VEC2_LEX, (1, 1))
    ).payload == (1, 3)
    assert combine(
        MonoidValue(MonoidKind.NAT_PRODUCT, 2), MonoidValue(MonoidKind.NAT_PRODUCT, 6)
    ).payload == 12


def test_compare_examples():
    assert compare(MonoidValue(MonoidKind.VEC2_LEX, (0, 2)), MonoidValue(MonoidKind.VEC2_LEX, (1, 1))) < 0
    assert compare(MonoidValue(MonoidKind.NAT_SUM, 7), MonoidValue(MonoidKind.NAT_SUM, 7)) == 0
    assert compare(MonoidValue(MonoidKind.VEC2_LEX, (2, 0)), MonoidValue(MonoidKind.VEC2_LEX, (1, 99))) > 0


def test_kind_mismatch_is_an_error():
    x = MonoidValue(MonoidKind.NAT_SUM, 2)
    y = MonoidValue(MonoidKind.NAT_PRODUCT, 2)
    with pytest.raises(ValueError):
        combine(x, y)
    with pytest.raises(ValueError):
        compare(x, y)
    with pytest.raises(ValueError):
        x < y  # noqa: B015


@pytest.mark.parametrize(
    "kind,payload",
    [
        (MonoidKind.NAT_SUM, -1),
        (MonoidKind.NAT_PRODUCT, 0),
        (MonoidKind.VEC2_LEX, (1, -1)),
        (MonoidKind.VEC2_LEX, (1,)),
        (MonoidKind.NAT_SUM, (1, 2)),
        (MonoidKind.VEC2_LEX, 3),
    ],
)
def test_carrier_validation(kind, payload):
    with pytest.raises(ValueError):
        MonoidValue(kind, payload)


@pytest.mark.parametrize(
    "kind,text,payload",
    [
        (MonoidKind.NAT_SUM, "17", 17),
        (MonoidKind.NAT_PRODUCT, "2", 2),
        (MonoidKind.VEC2_LEX, "(0,2)", (0, 2)),
    ],
)
def test_parse_format_roundtrip(kind, text, payload):
    assert parse_payload(kind, text) == payload
    assert format_payload(kind, payload) == text
    assert str(parse_value(kind, text)) == text


@pytest.mark.parametrize(
    "kind,text",
    [
        (MonoidKind.NAT_SUM, "-1"),
        (MonoidKind.NAT_SUM, "x"),
        (MonoidKind.NAT_PRODUCT, "0"),
        (MonoidKind.VEC2_LEX, "(1, 2)"),
        (MonoidKind.VEC2_LEX, "1,2"),
    ],
)
def test_parse_rejects_bad_text(kind, text):
    with pytest.raises(ValueError):
        parse_payload(kind, text)


def _payloads(kind):
    if kind is MonoidKind.NAT_SUM:
        return st.integers(min_value=0, max_value=10**9)
    if kind is MonoidKind.NAT_PRODUCT:
        return st.integers(min_value=1, max_value=10**9)
    small = st.integers(min_value=0, max_value=10**9)
    return st.tuples(small, small)


kinds = st.sampled_from(list(MonoidKind))
triples = kinds.flatmap(
    lambda k: st.tuples(st.just(k), _payloads(k), _payloads(k), _payloads(k))
)


@given(triples)
def test_algebra_laws(data):
    kind, a, b, c = data
    comb = payload_combine(kind)
    ident = payload_identity(kind)
    assert comb(comb(a, b), c) == comb(a, comb(b, c))
    assert comb(a, b) == comb(b, a)
    assert comb(ident, a) == a


@given(triples)
def test_order_totality_and_translation(data):
    kind, a, b, c = data
    comb = payload_combine(kind)
    assert (a < b) + (a == b) + (a > b) == 1
    if a < b:
        assert comb(c, a) < comb(c, b)


@given(triples)
def test_strictly_increasing_when_other_exceeds_identity(data):
    kind, a, b, _ = data
    comb = payload_combine(kind)
    ident = payload_identity(kind)
    if b > ident:
        assert comb(a, b) > a


@given(triples)
def test_residual_undoes_combine(data):
    kind, a, x, _ = data
    assert payload_residual(kind)(a, payload_combine(kind)(a, x)) == x


def _carrier_up_to(kind, b):
    """Every carrier element componentwise at most ``b``: all candidates for a . x == b."""
    if kind is MonoidKind.NAT_SUM:
        return range(b + 1)
    if kind is MonoidKind.NAT_PRODUCT:
        return range(1, b + 1)
    return itertools.product(range(b[0] + 1), range(b[1] + 1))


def _small_payloads(kind):
    if kind is MonoidKind.NAT_SUM:
        return st.integers(min_value=0, max_value=40)
    if kind is MonoidKind.NAT_PRODUCT:
        return st.integers(min_value=1, max_value=60)
    small = st.integers(min_value=0, max_value=8)
    return st.tuples(small, small)


small_pairs = kinds.flatmap(
    lambda k: st.tuples(st.just(k), _small_payloads(k), _small_payloads(k))
)


@given(small_pairs)
@example((MonoidKind.NAT_SUM, 5, 3))  # b < a
@example((MonoidKind.NAT_PRODUCT, 4, 6))  # not divisible
@example((MonoidKind.NAT_PRODUCT, 6, 3))  # b < a
@example((MonoidKind.VEC2_LEX, (1, 3), (2, 0)))  # second component falls
@example((MonoidKind.VEC2_LEX, (2, 0), (1, 3)))  # first component falls
@example((MonoidKind.VEC2_LEX, (1, 1), (1, 1)))  # the identity step
def test_residual_is_none_exactly_when_no_element_fits(data):
    kind, a, b = data
    comb = payload_combine(kind)
    found = [x for x in _carrier_up_to(kind, b) if comb(a, x) == b]
    assert len(found) <= 1
    assert payload_residual(kind)(a, b) == (found[0] if found else None)
