"""Case data model: parsing, validation, serialization, summaries."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridimpact.model import (
    Branch,
    Bus,
    CaseFormatError,
    CaseValidationError,
    Generator,
    GridCase,
    Substation,
    dumps_case,
    load_case,
    loads_case,
    summarize,
    validate,
)

from conftest import REPO_ROOT
from test_island_admittance import cancelling_pair
import toys
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


class TestParsing:
    def test_minimal_case(self):
        case = loads_case(MINIMAL_CASE)
        assert len(case.buses) == 2
        assert len(case.branches) == 1
        assert len(case.generators) == 1
        assert case.base_mva == 100.0
        assert case.bus(2).load_p == 50.0

    def test_default_substations_one_per_bus(self):
        case = loads_case(MINIMAL_CASE)
        assert len(case.substations) == 2
        assert case.substation_index[1].member_buses == frozenset({1})

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL_CASE.replace("[BUS]", "# leading comment\n\n[BUS]")
        assert loads_case(text).bus(1).kind == "slack"

    def test_unknown_section_rejected(self):
        with pytest.raises(CaseFormatError) as err:
            loads_case(MINIMAL_CASE + "\n[WEATHER]\n")
        assert "unknown section" in str(err.value)

    def test_bad_number_reports_line(self):
        text = MINIMAL_CASE.replace("50.0 20.0", "fifty 20.0")
        with pytest.raises(CaseFormatError) as err:
            loads_case(text)
        assert "expected a number" in str(err.value)

    def test_wrong_column_count_rejected(self):
        text = MINIMAL_CASE.replace("1 2 0.01 0.10 0.0 120.0 1.0 0 1",
                                    "1 2 0.01 0.10 0.0 120.0 1.0 0")
        with pytest.raises(CaseFormatError):
            loads_case(text)

    def test_data_before_section_rejected(self):
        with pytest.raises(CaseFormatError):
            loads_case("1 slack 1.0 0.0 138.0 0.0 0.0\n")

    def test_named_substation_section(self):
        text = MINIMAL_CASE + "\n[SUBSTATION]\nnorth 1\nsouth 2\n"
        case = loads_case(text)
        assert case.substation_index["north"].member_buses == frozenset({1})


class TestValidation:
    def test_clean_case_validates(self):
        assert validate(two_bus_case()) == []

    def test_fixture_validates(self, case118):
        assert validate(case118) == []

    def test_duplicate_bus_id(self):
        case = two_bus_case()
        bad = case.with_(buses=case.buses + (Bus(id=1),))
        assert any("duplicate id" in v for v in validate(bad))

    def test_branch_to_unknown_bus(self):
        case = two_bus_case()
        bad = case.with_(
            branches=case.branches
            + (Branch(from_bus=1, to_bus=99, resistance=0.01, reactance=0.1),)
        )
        assert any("endpoint bus does not exist" in v for v in validate(bad))

    def test_missing_slack(self):
        case = two_bus_case()
        bad = case.with_(buses=tuple(
            Bus(id=b.id, kind="PQ", load_p=b.load_p, load_q=b.load_q)
            for b in case.buses
        ))
        assert any("exactly one slack" in v for v in validate(bad))

    def test_condenser_with_active_output(self):
        case = two_bus_case()
        bad = case.with_(
            generators=case.generators
            + (Generator(bus=2, p_output=5.0, is_condenser=True),)
        )
        assert any("condenser must have zero active output" in v for v in validate(bad))

    def test_substation_coverage_gap(self):
        case = two_bus_case()
        bad = case.with_(substations=(Substation(id=1, member_buses=frozenset({1})),))
        assert any("belong to no substation" in v for v in validate(bad))

    def test_repeated_substation_id_refused(self):
        """The named-substation case with its "1-2" substation renamed 1
        lists substation 1 twice, whose combinations would print alike."""
        text = (REPO_ROOT / "tests" / "data" / "named_substations.grid").read_text()
        assert "\n1-2 3\n" in text
        with pytest.raises(CaseValidationError, match="^substation 1: duplicate id$"):
            loads_case(text.replace("\n1-2 3\n", "\n1 3\n"))

    def test_substation_name_that_reads_as_an_integer_refused(self):
        """A substation named "1" beside id 1 prints as it does, and a case
        file reads it back as the same id."""
        case = two_bus_case()
        bad = case.with_(substations=(case.substations[0],
                                      Substation(id="1", member_buses=frozenset({2}))))
        assert validate(bad) == ["substation '1': a name must not read as an integer"]
        with pytest.raises(CaseValidationError, match="^substation 1: duplicate id$"):
            loads_case(dumps_case(bad))
        named = case.with_(substations=(case.substations[0],
                                        Substation(id="1a", member_buses=frozenset({2}))))
        assert validate(named) == []

    def test_cancelling_parallel_circuits_refused(self):
        """Circuits 1-2 at z and -z are an open circuit, which islanding
        would read as a connection: validate names the pair, and the case
        does not load."""
        case = GridCase(
            base_mva=100.0,
            buses=(Bus(id=1, kind="slack"), Bus(id=2, load_p=5.0), Bus(id=3, load_p=5.0)),
            branches=(
                Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.1),
                Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=-0.1),
                Branch(from_bus=1, to_bus=3, resistance=0.01, reactance=0.1),
            ),
            generators=(Generator(bus=1, p_output=10.0),),
            substations=(),
        )
        message = "branches 1-2: the in-service circuits' admittances cancel exactly"
        assert validate(case) == [message]
        assert validate(cancelling_pair()) == [message]
        with pytest.raises(CaseValidationError, match=message):
            loads_case(dumps_case(case))

    def test_cancelling_pair_sums_both_orientations(self):
        """A circuit listed 2->1 adds its to-from entry to the pair's sum;
        an out-of-service circuit adds nothing, and a pair that does not
        cancel is accepted."""
        base = two_bus_case()
        line = base.branches[0]
        assert (line.from_bus, line.to_bus) == (1, 2)
        reversed_negative = Branch(from_bus=2, to_bus=1, resistance=-line.resistance,
                                   reactance=-line.reactance)
        bad = base.with_(branches=(line, reversed_negative))
        assert validate(bad) == [
            "branches 1-2: the in-service circuits' admittances cancel exactly"
        ]
        off = replace(reversed_negative, status=False)
        assert validate(base.with_(branches=(line, off))) == []
        assert validate(base.with_(branches=(line, line))) == []

    def test_loads_case_raises_on_invalid(self):
        text = MINIMAL_CASE.replace("1 slack", "1 PQ")
        with pytest.raises(CaseValidationError):
            loads_case(text)
        loads_case(text, check=False)  # opt-out parses anyway


class TestRoundTrip:
    def test_dump_load_exact(self):
        case = two_bus_case()
        again = loads_case(dumps_case(case))
        assert again == case

    def test_fixture_round_trip(self, case118):
        again = loads_case(dumps_case(case118))
        assert again == case118

    @pytest.mark.parametrize("name", ["two_bus_case", "two_island_case", "star_case",
                                      "two_machine_case"])
    def test_every_toy_round_trips(self, name):
        case = getattr(toys, name)()
        assert loads_case(dumps_case(case)) == case

    @given(
        load_p=st.floats(0.0, 500.0, allow_nan=False),
        load_q=st.floats(-200.0, 200.0, allow_nan=False),
        rating=st.floats(0.0, 1000.0, allow_nan=False),
        tap=st.floats(0.8, 1.2, allow_nan=False),
    )
    def test_round_trip_preserves_floats(self, load_p, load_q, rating, tap):
        case = two_bus_case()
        case = case.with_(
            buses=(case.buses[0],
                   Bus(id=2, kind="PQ", load_p=load_p, load_q=load_q)),
            branches=(Branch(from_bus=1, to_bus=2, resistance=0.01,
                             reactance=0.10, rating=rating, tap_ratio=tap,
                             is_transformer=True),),
        )
        assert loads_case(dumps_case(case)) == case


class TestSummaryAndAccess:
    def test_summarize_toy(self):
        s = summarize(two_bus_case())
        assert (s.buses, s.branches, s.lines, s.transformers) == (2, 1, 1, 0)
        assert (s.generators, s.condensers, s.loads) == (1, 0, 1)

    def test_reactive_only_bus_is_not_a_load_bus(self):
        bus = Bus(id=7, load_p=0.0, load_q=12.0)
        assert not bus.has_load

    def test_fixture_counts(self, case118):
        s = summarize(case118)
        assert s.buses == 118
        assert s.branches == 186
        assert s.lines == 177
        assert s.transformers == 9
        assert s.generators == 19
        assert s.condensers == 35
        assert s.loads == 91

    def test_endpoints_orientation_free(self):
        br = Branch(from_bus=9, to_bus=4, resistance=0.01, reactance=0.1)
        assert br.endpoints == (4, 9)

    def test_fixture_pre_out_branches(self, case118):
        out = {br.endpoints for br in case118.branches if not br.status}
        assert out == {(17, 30), (34, 36)}
