import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge.descriptor import (
    ANGLES,
    ChainDescriptor,
    ChainEntry,
    ChainSyntaxError,
    is_type_code,
    parse,
    serialize,
)
from chainforge.module_db import default_database
from chainforge.synth import forward_poses


class TestParsePaperStrings:
    def test_manipulator(self):
        d = parse("I-T0-T0-A0-i0-t180-g90")
        assert len(d.entries) == 7
        assert d.entries[0] == ChainEntry("I", False, None)
        assert d.entries[5] == ChainEntry("t", False, 180.0)
        assert d.entries[6] == ChainEntry("g", False, 90.0)

    def test_climbing_robot(self):
        d = parse("G'-I0-T'0-L0-T'90-T180-I'0-G0")
        assert len(d.entries) == 8
        assert d.entries[0] == ChainEntry("G", True, None)
        assert d.entries[4] == ChainEntry("T", True, 90.0)

    def test_parenthesized_negative(self):
        d = parse("G'-I0-T'0-T'180-L'(-90)-T0-I'0-G0")
        assert d.entries[4] == ChainEntry("L", True, -90.0)

    def test_bare_negative(self):
        d = parse("I-T-90-G0")
        assert d.entries[1] == ChainEntry("T", False, -90.0)

    def test_missing_mid_chain_angle_warns(self):
        with pytest.warns(UserWarning, match="assuming 0"):
            d = parse("I-T0-T0-A-i0-t180-g90")
        assert d.entries[3] == ChainEntry("A", False, 0.0)


class TestParseErrors:
    def test_unknown_code_position(self):
        with pytest.raises(ChainSyntaxError) as exc:
            parse("9-T0")
        assert exc.value.position == 0

    def test_out_of_set_angle(self):
        with pytest.raises(ChainSyntaxError, match="45"):
            parse("I-T45-G0")

    def test_base_token_with_angle(self):
        with pytest.raises(ChainSyntaxError):
            parse("I0-T0-G0")

    def test_empty_string(self):
        with pytest.raises(ChainSyntaxError) as exc:
            parse("")
        assert exc.value.position == 0

    def test_trailing_delimiter(self):
        with pytest.raises(ChainSyntaxError):
            parse("I-T0-")

    def test_unterminated_paren(self):
        with pytest.raises(ChainSyntaxError, match="unterminated"):
            parse("I-L(-90-G0")

    def test_mid_chain_tool(self, db):
        # The grammar admits it; forward_poses rejects it against the catalog: an
        # upright tool has no connector to carry a child.
        desc = parse("I-G0-T0")
        message = r"^chain position 2: no connector mates 'G' \(upright\) to 'T' \(upright\)$"
        with pytest.raises(ValueError, match=message):
            forward_poses(desc, [0.0, 0.0], db)

    def test_garbage_after_token(self):
        with pytest.raises(ChainSyntaxError):
            parse("I^T0")

    @pytest.mark.parametrize("text", ["I-T(9_0)", "I-T(+90)", "I-T( 90)", "I-T\u0669\u0660",
                                      "I-T(\u0669\u0660)", "I-T(-\u0669\u0660)"])
    def test_angle_takes_ascii_digits_only(self, text):
        with pytest.raises(ChainSyntaxError, match="malformed connection angle") as exc:
            parse(text)
        assert exc.value.position == (3 if text[3] != "(" else 4)

    @pytest.mark.parametrize("text, angle", [("I-T090", 90.0), ("I-T-0", 0.0), ("I-T(-0)", 0.0)])
    def test_leading_zeros_and_negative_zero_accepted(self, text, angle):
        assert parse(text).entries[1].connection_angle == angle


class TestSerialize:
    def test_canonical_round_trip(self):
        s = "I-T'0-T'0-A0-t0-i0-g0"
        assert serialize(parse(s)) == s

    def test_negative_uses_parens(self):
        d = ChainDescriptor((ChainEntry("I"), ChainEntry("T", False, -90.0)))
        assert serialize(d) == "I-T(-90)"

    def test_single_entry(self):
        assert serialize(ChainDescriptor((ChainEntry("G"),))) == "G"

    def test_missing_angle_serializes_as_zero(self):
        with pytest.warns(UserWarning):
            d = parse("I-T0-T0-A-i0-t180-g90")
        assert serialize(d) == "I-T0-T0-A0-i0-t180-g90"


class TestDescriptorValidation:
    def test_needs_entries(self):
        with pytest.raises(ValueError):
            ChainDescriptor(())

    def test_base_angle_must_be_absent(self):
        with pytest.raises(ValueError):
            ChainDescriptor((ChainEntry("I", False, 0.0),))

    def test_non_base_angle_required(self):
        with pytest.raises(ValueError):
            ChainDescriptor((ChainEntry("I"), ChainEntry("T", False, None)))

    def test_tools_at_both_ends_allowed(self):
        d = parse("G'-I0-G0")
        assert [e.type_code for e in d.entries] == ["G", "I", "G"]


class TestTypeCodes:
    @pytest.mark.parametrize("code", ["g", "Z", "h"])
    def test_any_ascii_letter(self, code):
        assert is_type_code(code)
        assert serialize(parse(f"I-{code}0")) == f"I-{code}0"

    @pytest.mark.parametrize("code", ["g-", "TT", "", "9", "é", "'"])
    def test_rejected(self, code):
        assert not is_type_code(code)
        with pytest.raises(ValueError, match="invalid module code"):
            ChainDescriptor((ChainEntry(code),))


_TYPES = default_database().types.values()
MID = sorted(mt.code for mt in _TYPES if not mt.is_tool)
TOOLS = sorted(mt.code for mt in _TYPES if mt.is_tool)


@st.composite
def descriptors(draw):
    length = draw(st.integers(1, 12))
    entries = []
    for k in range(length):
        if k == length - 1:
            code = draw(st.sampled_from(TOOLS + MID))
        elif k == 0:
            code = draw(st.sampled_from(MID + TOOLS))
        else:
            code = draw(st.sampled_from(MID))
        inverted = draw(st.booleans())
        angle = None if k == 0 else float(draw(st.sampled_from(ANGLES)))
        entries.append(ChainEntry(code, inverted, angle))
    return ChainDescriptor(tuple(entries))


class TestProperties:
    @given(descriptors())
    @settings(max_examples=300, deadline=None)
    def test_parse_serialize_round_trip(self, d):
        assert parse(serialize(d)) == d

    @given(descriptors())
    @settings(max_examples=300, deadline=None)
    def test_serialize_parse_is_canonical(self, d):
        s = serialize(d)
        assert serialize(parse(s)) == s

    @given(st.binary(min_size=32, max_size=32))
    @example(b"L" + b"-G" * 15 + b"0")
    @settings(max_examples=500, deadline=None)
    def test_parse_total_on_random_bytes(self, blob):
        # A token without an angle parses with the documented warning, and with
        # no other.
        text = blob.decode("latin-1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                parse(text)
            except ChainSyntaxError as exc:
                assert 0 <= exc.position <= len(text)
        for w in caught:
            assert w.category is UserWarning
            assert re.fullmatch(
                r"token at position \d+ has no connection angle; assuming 0", str(w.message)
            )

    def test_parse_total_bulk(self):
        rng = np.random.default_rng(99)
        outcomes = 0
        for _ in range(10_000):
            text = bytes(rng.integers(32, 127, size=32)).decode("ascii")
            try:
                parse(text)
            except ChainSyntaxError:
                outcomes += 1
        assert outcomes > 0  # and nothing else ever escaped
