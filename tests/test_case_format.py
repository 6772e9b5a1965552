"""The ``.grid`` row layout: each row section's columns are its row
class's fields in declaration order, read and written from those fields."""

from __future__ import annotations

import dataclasses

import pytest

from gridimpact.dynamics import parse_schedule
from gridimpact.model import (
    Branch,
    Bus,
    CaseFormatError,
    Generator,
    dumps_case,
    load_case,
    loads_case,
)

from conftest import CASE_PATH
from toys import two_bus_case

MINIMAL_CASE = """
base_mva 100.0
[BUS]
1 slack 1.0 0.0 138.0 0.0 0.0
2 PQ 1.0 0.0 138.0 50.0 20.0
[BRANCH]
1 2 0.01 0.10 0.0 120.0 1.0 0 1
[GEN]
1 50.0 0.0 -9999.0 9999.0 1.0 100.0 0
"""
BUS_ROW = "2 PQ 1.0 0.0 138.0 50.0 20.0"
BRANCH_ROW = "1 2 0.01 0.10 0.0 120.0 1.0 0 1"
GEN_ROW = "1 50.0 0.0 -9999.0 9999.0 1.0 100.0 0"


def test_fixture_dump_is_the_shipped_file():
    text = CASE_PATH.read_text()
    assert dumps_case(load_case(CASE_PATH)) == text[text.index("base_mva"):]


# a value of each declared type that differs from every column of the rows above
_OTHER = {"int": "7", "float": "0.125", "bool": None, "str": "PV"}


@pytest.mark.parametrize("section, cls, row, index", [
    ("[BUS]", Bus, BUS_ROW, 1),
    ("[BRANCH]", Branch, BRANCH_ROW, 0),
    ("[GEN]", Generator, GEN_ROW, 0),
])
def test_columns_are_the_fields_in_order(section, cls, row, index):
    """Changing column i of a row changes field i of its record and no
    other; the written row holds the field values in order."""
    fields = dataclasses.fields(cls)
    toks = row.split()
    assert len(toks) == len(fields)
    attr = {Bus: "buses", Branch: "branches", Generator: "generators"}[cls]

    def parse(tokens):
        case = loads_case(MINIMAL_CASE.replace(row, " ".join(tokens)), check=False)
        return dataclasses.asdict(getattr(case, attr)[index])

    base = parse(toks)
    for i, f in enumerate(fields):
        other = _OTHER[f.type] or ("1" if toks[i] == "0" else "0")
        changed = parse(toks[:i] + [other] + toks[i + 1:])
        assert [name for name in base if changed[name] != base[name]] == [f.name]

    lines = dumps_case(loads_case(MINIMAL_CASE)).splitlines()
    header = lines.index(section) + 1
    assert len(lines[header].split()) == 1 + len(fields)  # "#" and one name a column
    formats = {"float": repr, "bool": lambda v: str(int(v))}
    assert lines[header + 1 + index].split() == [
        formats.get(f.type, str)(base[f.name]) for f in fields
    ]


# (row replaced, replacement, the message the text format has always given)
MALFORMED = [
    (BUS_ROW, "2 PQ 1.0 0.0 138.0 50.0", "line 5: [BUS] rows take 7 columns, got 6"),
    (BUS_ROW, "2 PQ 1.0 0.0 138.0 50.0 20.0 7", "line 5: [BUS] rows take 7 columns, got 8"),
    (BRANCH_ROW, "1 2 0.01 0.10 0.0 120.0 1.0 0",
     "line 7: [BRANCH] rows take 9 columns, got 8"),
    (GEN_ROW, "1 50.0 0.0 -9999.0 9999.0 1.0 100.0 0 0",
     "line 9: [GEN] rows take 8 columns, got 9"),
    (BUS_ROW, "two PQ 1.0 0.0 138.0 50.0 20.0", "line 5: expected an integer, got 'two'"),
    (BRANCH_ROW, "1 2.0 0.01 0.10 0.0 120.0 1.0 0 1",
     "line 7: expected an integer, got '2.0'"),
    (GEN_ROW, "g1 50.0 0.0 -9999.0 9999.0 1.0 100.0 0",
     "line 9: expected an integer, got 'g1'"),
    (BUS_ROW, "2 PQ 1.0 0.0 138.0 fifty 20.0", "line 5: expected a number, got 'fifty'"),
    (BRANCH_ROW, "1 2 0.01 0.10 0.0 120.0 1,0 0 1", "line 7: expected a number, got '1,0'"),
    (BUS_ROW, "2 PQ x 0.0 138.0 fifty 20.0", "line 5: expected a number, got 'x'"),
    (GEN_ROW, "1 50.0 0.0 -9999.0 9999.0 1.0 100.0 1.0",
     "line 9: expected 0/1 flag, got '1.0'"),
    (BRANCH_ROW, "1 2 0.01 0.10 0.0 120.0 1.0 0 2", "line 7: expected 0/1 flag, got '2'"),
    (BRANCH_ROW, "1 2 0.01 0.10 0.0 120.0 1.0 true 1",
     "line 7: expected 0/1 flag, got 'true'"),
    (BUS_ROW, "2 load 1.0 0.0 138.0 50.0 20.0", "line 5: unknown bus kind 'load'"),
    (BUS_ROW, "two load 1.0 0.0 138.0 50.0 20.0", "line 5: unknown bus kind 'load'"),
    ("[GEN]", "[GENERATOR]", "line 8: unknown section [GENERATOR]"),
    ("base_mva 100.0", "1 slack 1.0 0.0 138.0 0.0 0.0",
     "line 2: data before any section: '1 slack 1.0 0.0 138.0 0.0 0.0'"),
    ("base_mva 100.0", "base_mva hundred", "line 2: expected a number, got 'hundred'"),
    ("base_mva 100.0", "base_mva 100.0 MVA",
     "line 2: data before any section: 'base_mva 100.0 MVA'"),
    (GEN_ROW, GEN_ROW + "\n[SUBSTATION]\nnorth",
     "line 11: [SUBSTATION] rows take an id plus member buses"),
    (GEN_ROW, GEN_ROW + "\n[SUBSTATION]\nnorth x", "line 11: expected an integer, got 'x'"),
    (GEN_ROW, GEN_ROW + "\n[SUBSTATION]\nnorth 1 two",
     "line 11: expected an integer, got 'two'"),
]


@pytest.mark.parametrize("old, new, message", MALFORMED)
def test_malformed_rows_keep_their_messages(old, new, message):
    text = MINIMAL_CASE.replace(old, new, 1)
    assert text != MINIMAL_CASE
    with pytest.raises(CaseFormatError) as err:
        loads_case(text)
    assert str(err.value) == message


@pytest.mark.parametrize("token, expected", [
    ("7", 7), ("-3", -3), ("-", "-"), ("--5", "--5"), ("²", "²"),
])
def test_substation_ids_read_by_one_rule(token, expected):
    """An ASCII ``-?[0-9]+`` token is an int id, any other token a name,
    in the case file and in a schedule alike."""
    case = loads_case(MINIMAL_CASE + f"[SUBSTATION]\n{token} 1\nother 2\n", check=False)
    (sub,) = (s for s in case.substations if s.member_buses == {1})
    assert sub.id == expected and type(sub.id) is type(expected)
    (event,) = parse_schedule(f"1.0 remove_substation {token}\n").events
    assert event[1].substation == expected and type(event[1].substation) is type(expected)


# tokens that int() reads as an integer but the ASCII -?[0-9]+ rule does not
NOT_IDS = ["1_0", "١", "+5", "²"]  # underscore, Arabic-Indic one, sign, superscript


@pytest.mark.parametrize("token", NOT_IDS)
@pytest.mark.parametrize("old, new, line", [
    (BUS_ROW, "{} PQ 1.0 0.0 138.0 50.0 20.0", 5),
    (BRANCH_ROW, "{} 2 0.01 0.10 0.0 120.0 1.0 0 1", 7),
    (BRANCH_ROW, "1 {} 0.01 0.10 0.0 120.0 1.0 0 1", 7),
    (GEN_ROW, "{} 50.0 0.0 -9999.0 9999.0 1.0 100.0 0", 9),
    (GEN_ROW, GEN_ROW + "\n[SUBSTATION]\nnorth 1 {}", 11),
])
def test_bus_ids_read_by_the_id_rule(token, old, new, line):
    """Every bus id column, and a substation's member buses, take only an
    ASCII ``-?[0-9]+`` token, whatever else the row holds."""
    with pytest.raises(CaseFormatError) as err:
        loads_case(MINIMAL_CASE.replace(old, new.format(token), 1))
    assert str(err.value) == f"line {line}: expected an integer, got {token!r}"


def test_bus_ids_with_a_sign_or_leading_zeros_still_read():
    """The "+" in the bus row's load sends that row through the id rule's
    converter; the branch row, without one, through the builtin int()."""
    case = loads_case(MINIMAL_CASE.replace(BUS_ROW, "-2 PQ 1.0 0.0 138.0 5e+1 20.0")
                      .replace(BRANCH_ROW, "01 -2 0.01 0.10 0.0 120.0 1.0 0 1"), check=False)
    assert [b.id for b in case.buses] == [1, -2]
    assert case.buses[1].load_p == 50.0
    assert (case.branches[0].from_bus, case.branches[0].to_bus) == (1, -2)


@pytest.mark.parametrize("token", NOT_IDS)
def test_schedule_bus_ids_read_by_the_id_rule(token):
    line = f"1.0 open_branch 1 {token}"
    with pytest.raises(ValueError) as err:
        parse_schedule(f"0.5 open_branch 1 2\n{line}\n")
    assert str(err.value) == f"line 2: bad bus id in {line!r}"


# (line, column, token) of a number in the two-bus toy's dump, replaced by
# a token float() reads but no case may hold
NON_FINITE = [
    (1, 1, "nan"),  # base_mva
    (6, 5, "nan"),  # a bus's load_mw
    (10, 2, "nan"),  # resistance
    (10, 3, "inf"),  # reactance
    (10, 3, "-inf"),
    (10, 3, "1e999"),
    (10, 4, "inf"),  # charging
    (10, 5, "nan"),  # rating
    (10, 6, "nan"),  # tap ratio
    (14, 1, "nan"),  # a generator's p_mw
]


def with_token(text: str, line: int, column: int, token: str) -> str:
    """``text`` with the ``column``-th token of line ``line`` (both from
    1 and 0) replaced by ``token``."""
    lines = text.splitlines()
    toks = lines[line - 1].split()
    toks[column] = token
    lines[line - 1] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("line, column, token", NON_FINITE)
def test_non_finite_numbers_refused_at_their_line(line, column, token, check):
    """``nan`` and the infinities are refused where the token is read,
    with its line, whether or not the case is then validated."""
    text = dumps_case(two_bus_case())
    float(text.splitlines()[line - 1].split()[column])  # the token replaced is a number
    with pytest.raises(CaseFormatError) as err:
        loads_case(with_token(text, line, column, token), check=check)
    assert str(err.value) == f"line {line}: expected a finite number, got {token!r}"
