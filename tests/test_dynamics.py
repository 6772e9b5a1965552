"""Sequential-switching simulation: schedules, integration, verdicts."""

from __future__ import annotations

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact.dynamics import (
    DetectionThresholds,
    ExciterParams,
    GovernorParams,
    MachineModel,
    ScenarioOptions,
    SwitchingSchedule,
    default_machine_models,
    detect_instability,
    dumps_schedule,
    parse_schedule,
    run_scenario,
    trace_to_csv,
)
from gridimpact.model import Branch, Bus, Generator, Substation
from gridimpact.topology import OutageAction

from toys import two_machine_case


def split_schedule():
    """Cuts bus 1 away from the rest: islands {1} and {2, 3}."""
    return SwitchingSchedule(
        (
            (1.0, OutageAction.open_branch(1, 2)),
            (1.01, OutageAction.open_branch(1, 3)),
        )
    )


class TestScheduleParsing:
    def test_round_trip(self):
        text = "0 open_branch 17 113\n5 remove_substation 34\n10.5 open_branch 11 13\n"
        sched = parse_schedule(text)
        assert len(sched) == 3
        assert dumps_schedule(sched) == text

    def test_comments_and_blanks_ignored(self):
        sched = parse_schedule("# header\n\n1.0 open_branch 1 2  # trailing\n")
        assert len(sched) == 1
        t, action = sched.events[0]
        assert t == 1.0
        assert (action.from_bus, action.to_bus) == (1, 2)

    def test_named_substation(self):
        sched = parse_schedule("2 remove_substation west_ring\n")
        assert sched.events[0][1].substation == "west_ring"

    def test_numeric_substation_becomes_int(self):
        sched = parse_schedule("2 remove_substation 100\n")
        assert sched.events[0][1].substation == 100

    def test_bad_time_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_schedule("1 open_branch 1 2\nsoon open_branch 2 3\n")

    def test_unknown_action_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_schedule("1 close_breaker 4\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            parse_schedule("1 open_branch 4\n")


class TestScheduleValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SwitchingSchedule(((-1.0, OutageAction.open_branch(1, 2)),))

    def test_non_increasing_rejected(self):
        a = OutageAction.open_branch(1, 2)
        b = OutageAction.open_branch(1, 3)
        with pytest.raises(ValueError):
            SwitchingSchedule(((2.0, a), (2.0, b)))

    def test_evenly_spaced(self):
        actions = [OutageAction.remove_substation(s) for s in (5, 9, 12)]
        sched = SwitchingSchedule.evenly_spaced(actions, interval=5.0)
        assert [t for t, _ in sched] == [0.0, 5.0, 10.0]
        assert sched.end_time == 10.0

    def test_evenly_spaced_start_offset(self):
        sched = SwitchingSchedule.evenly_spaced(
            [OutageAction.open_branch(1, 2)], interval=2.0, start=3.0
        )
        assert sched.events[0][0] == 3.0

    def test_evenly_spaced_bad_interval(self):
        with pytest.raises(ValueError):
            SwitchingSchedule.evenly_spaced([OutageAction.open_branch(1, 2)], 0.0)

    @given(times=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_ordering_invariant(self, times):
        events = tuple(
            (t, OutageAction.open_branch(1, 2)) for t in times
        )
        strictly_increasing = all(b > a for a, b in zip(times, times[1:]))
        if strictly_increasing:
            assert len(SwitchingSchedule(events)) == len(times)
        else:
            with pytest.raises(ValueError):
                SwitchingSchedule(events)


class TestModelDefaults:
    def test_one_model_per_machine(self, case118, models118):
        assert len(models118) == len(case118.generators) == 54
        assert [m.bus for m in models118] == [g.bus for g in case118.generators]

    def test_condensers_have_no_governor(self, case118, models118):
        for g, m in zip(case118.generators, models118):
            if g.is_condenser:
                assert m.governor is None
            else:
                assert m.governor is not None
                assert m.governor.p_max == pytest.approx(
                    1.5 * g.p_output / g.mva_base
                )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MachineModel(bus=1, inertia_H=0.0)
        with pytest.raises(ValueError):
            MachineModel(bus=1, transient_reactance_xd=-0.1)
        with pytest.raises(ValueError):
            ExciterParams(gain=0.0)
        with pytest.raises(ValueError):
            ExciterParams(e_min=2.0, e_max=1.0)
        with pytest.raises(ValueError):
            GovernorParams(droop=0.0)


class TestEquilibrium:
    def test_no_event_hold_is_flat(self):
        case = two_machine_case()
        trace, verdict = run_scenario(
            case, SwitchingSchedule(()), options=ScenarioOptions(t_end=2.0)
        )
        assert verdict.overall == "stable"
        drift = np.nanmax(np.abs(trace.angles_deg[-1] - trace.angles_deg[0]))
        assert drift < 1e-9
        assert abs(trace.island_freq[1][-1] - 60.0) < 1e-9
        assert np.max(np.abs(trace.voltages[-1] - trace.voltages[0])) < 1e-9

    def test_inertia_weighted_speed_stays_zero(self):
        """Without events or damping torque imbalance, the COI speed of the
        single island is conserved at zero to integration precision."""
        case = two_machine_case()
        trace, _ = run_scenario(
            case, SwitchingSchedule(()), options=ScenarioOptions(t_end=1.0)
        )
        f = trace.island_freq[1]
        assert np.nanmax(np.abs(f - 60.0)) < 1e-9

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ScenarioOptions(dt=0.0)
        with pytest.raises(ValueError):
            ScenarioOptions(sample_every=0)

    def test_t_end_must_cover_schedule(self):
        case = two_machine_case()
        sched = SwitchingSchedule(((5.0, OutageAction.open_branch(1, 2)),))
        with pytest.raises(ValueError, match="t_end"):
            run_scenario(case, sched, options=ScenarioOptions(t_end=3.0))


class TestIslandingRun:
    def test_island_split_yields_mixed_verdict(self):
        """Cutting the stressed machine loose: its island has 40 MW of
        dispatch against 80 MW of load, and the governor ceiling cannot
        close the gap, so frequency collapses while island 1 rides on."""
        case = two_machine_case()
        trace, verdict = run_scenario(
            case, split_schedule(), options=ScenarioOptions(t_end=10.0)
        )
        assert verdict.overall == "islanded_mixed"
        assert verdict.per_island == {1: "stable", 2: "frequency_unstable"}
        assert verdict.time_of_first_violation == pytest.approx(3.94, abs=0.2)
        assert np.nanmin(trace.island_freq[2]) < 57.5
        assert sorted(trace.island_freq) == [1, 2]

    def test_events_after_halt_are_skipped(self):
        case = two_machine_case()
        sched = SwitchingSchedule(
        	split_schedule().events + ((20.0, OutageAction.open_branch(2, 3)),)
        )
        trace, verdict = run_scenario(case, sched, options=ScenarioOptions(t_end=25.0))
        assert verdict.unstable
        last = trace.events[-1]
        assert last.status == "skipped"
        assert last.cause == "instability_halt"
        assert trace.times[-1] < 20.0

    def test_island_membership_recorded_per_sample(self):
        case = two_machine_case()
        trace, _ = run_scenario(
            case, split_schedule(), options=ScenarioOptions(t_end=5.0)
        )
        assert tuple(trace.machine_island[0]) == (1, 1)
        assert tuple(trace.machine_island[-1]) == (1, 2)

    def test_dead_island_deenergizes_bus(self):
        case = two_machine_case()
        sched = SwitchingSchedule(
            (
                (1.0, OutageAction.open_branch(1, 3)),
                (1.01, OutageAction.open_branch(2, 3)),
            )
        )
        trace, verdict = run_scenario(case, sched, options=ScenarioOptions(t_end=4.0))
        j = trace.bus_ids.index(3)
        assert trace.voltages[0, j] > 0.9
        assert trace.voltages[-1, j] == 0.0
        # shedding the whole load is survivable for the machines here
        assert verdict.overall == "stable"

    def test_condenser_only_island_drops_machine(self):
        base = two_machine_case()
        case = base.with_(
            buses=base.buses + (Bus(id=4),),
            branches=base.branches
            + (Branch(from_bus=3, to_bus=4, resistance=0.01, reactance=0.06),),
            generators=base.generators
            + (Generator(bus=4, p_output=0.0, is_condenser=True),),
            substations=tuple(
                Substation(id=i, member_buses=(i,)) for i in (1, 2, 3, 4)
            ),
        )
        sched = SwitchingSchedule(((1.0, OutageAction.open_branch(3, 4)),))
        trace, verdict = run_scenario(case, sched, options=ScenarioOptions(t_end=3.0))
        assert verdict.overall == "stable"
        assert trace.events[0].island_count == 2
        assert tuple(trace.machine_island[-1]) == (1, 1, -1)
        assert np.isnan(trace.angles_deg[-1, 2])
        assert trace.voltages[-1, trace.bus_ids.index(4)] == 0.0

    def test_unknown_branch_is_skipped_not_fatal(self):
        case = two_machine_case()
        sched = SwitchingSchedule(((1.0, OutageAction.open_branch(1, 99)),))
        trace, verdict = run_scenario(case, sched, options=ScenarioOptions(t_end=2.0))
        ev = trace.events[0]
        assert ev.status == "skipped"
        assert "no branch" in ev.cause
        assert verdict.overall == "stable"


class TestDetection:
    def test_replay_matches_online_verdict(self):
        case = two_machine_case()
        trace, online = run_scenario(
            case, split_schedule(), options=ScenarioOptions(t_end=10.0)
        )
        replay = detect_instability(trace)
        assert replay.overall == online.overall
        assert replay.per_island == online.per_island
        assert replay.time_of_first_violation == online.time_of_first_violation

    def test_dwell_requirement(self):
        """A frequency excursion must persist for the dwell time; a replay
        with a huge dwell never fires on the same trace."""
        case = two_machine_case()
        trace, online = run_scenario(
            case, split_schedule(), options=ScenarioOptions(t_end=6.0)
        )
        assert online.unstable
        lenient = detect_instability(
            trace, DetectionThresholds(freq_band_hz=20.0, dwell_s=1e9)
        )
        assert lenient.overall == "stable"

    def test_tight_band_fires_earlier(self):
        case = two_machine_case()
        trace, online = run_scenario(
            case, split_schedule(), options=ScenarioOptions(t_end=10.0)
        )
        tight = detect_instability(trace, DetectionThresholds(freq_band_hz=0.5))
        assert tight.unstable
        assert tight.time_of_first_violation < online.time_of_first_violation


class TestTraceCsv:
    def test_header_and_decimation(self):
        case = two_machine_case()
        trace, _ = run_scenario(
            case, SwitchingSchedule(()), options=ScenarioOptions(t_end=1.0)
        )
        text = trace_to_csv(trace, decimate=10)
        lines = text.splitlines()
        assert lines[0] == "time,ang_1,ang_2,freq_1,v_1,v_2,v_3"
        n = trace.times.shape[0]
        assert len(lines) - 1 == len(range(0, n, 10))

    def test_nan_cells_for_dropped_machines(self):
        base = two_machine_case()
        case = base.with_(
            buses=base.buses + (Bus(id=4),),
            branches=base.branches
            + (Branch(from_bus=3, to_bus=4, resistance=0.01, reactance=0.06),),
            generators=base.generators
            + (Generator(bus=4, p_output=0.0, is_condenser=True),),
            substations=tuple(
                Substation(id=i, member_buses=(i,)) for i in (1, 2, 3, 4)
            ),
        )
        sched = SwitchingSchedule(((1.0, OutageAction.open_branch(3, 4)),))
        trace, _ = run_scenario(case, sched, options=ScenarioOptions(t_end=2.0))
        last = trace_to_csv(trace).splitlines()[-1].split(",")
        ang4 = last[3]  # time, ang_1, ang_2, ang_4, ...
        assert ang4 == "nan"
        assert last[-1] == "0.000000"

    @pytest.mark.parametrize("decimate", [1, 3, 10])
    def test_matches_per_cell_formatting(self, decimate):
        # island 2 forms at t = 1 s, so freq_2 is NaN before it; -0.0, a
        # value that rounds to -0.000000 and a negative NaN are planted
        trace, _ = run_scenario(
            two_machine_case(), split_schedule(), options=ScenarioOptions(t_end=2.0)
        )
        assert np.isnan(trace.island_freq[2][0])
        voltages = trace.voltages.copy()
        voltages[0, 0], voltages[3, 1], voltages[6, 2] = -0.0, -4e-7, -np.nan
        trace = dataclasses.replace(trace, voltages=voltages)
        assert trace_to_csv(trace, decimate) == _per_cell_csv(trace, decimate)

    def test_bad_decimation_rejected(self):
        case = two_machine_case()
        trace, _ = run_scenario(
            case, SwitchingSchedule(()), options=ScenarioOptions(t_end=0.5)
        )
        with pytest.raises(ValueError):
            trace_to_csv(trace, decimate=0)


def _per_cell_csv(trace, decimate):
    """The reference: every cell formatted on its own."""

    def fmt(x):
        return "nan" if np.isnan(x) else f"{x:.6f}"

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    keys = sorted(trace.island_freq)
    w.writerow(
        ["time"]
        + [f"ang_{b}" for b in trace.machine_buses]
        + [f"freq_{k}" for k in keys]
        + [f"v_{b}" for b in trace.bus_ids]
    )
    for si in range(0, trace.times.shape[0], decimate):
        row = [f"{trace.times[si]:.4f}"]
        row += [fmt(x) for x in trace.angles_deg[si]]
        row += [fmt(trace.island_freq[k][si]) for k in keys]
        row += [fmt(x) for x in trace.voltages[si]]
        w.writerow(row)
    return buf.getvalue()


class TestNetworkScale:
    """Short runs on the 118-bus fixture; the long scenarios live in the
    acceptance tests."""

    def test_equilibrium_hold_short(self, case118, models118):
        trace, verdict = run_scenario(
            case118,
            SwitchingSchedule(()),
            models=models118,
            options=ScenarioOptions(t_end=1.0),
        )
        assert verdict.overall == "stable"
        drift = np.nanmax(np.abs(trace.angles_deg[-1] - trace.angles_deg[0]))
        assert drift < 1e-6

    def test_single_substation_event_executes(self, case118, models118):
        sched = SwitchingSchedule(((0.5, OutageAction.remove_substation(34),),))
        trace, verdict = run_scenario(
            case118, sched, models=models118, options=ScenarioOptions(t_end=3.0)
        )
        ev = trace.events[0]
        assert ev.status == "executed"
        assert ev.island_count == 1  # the rest of the network stays whole
        assert verdict.overall == "stable"
        # the condenser at bus 34 goes with its substation
        m = trace.machine_buses.index(34)
        assert trace.machine_island[0, m] == 1
        assert trace.machine_island[-1, m] == -1
        assert np.isnan(trace.angles_deg[-1, m])
        assert trace.voltages[-1, trace.bus_ids.index(34)] == 0.0
