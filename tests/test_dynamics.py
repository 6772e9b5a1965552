"""Sequential-switching simulation: schedules, integration, verdicts."""

from __future__ import annotations

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridimpact import dynamics
from gridimpact.dynamics import (
    ANGLE_SEPARATION_DEG,
    DWELL_S,
    F_NOMINAL,
    FREQ_BAND_HZ,
    ExciterParams,
    GovernorParams,
    MachineModel,
    ScenarioOptions,
    SwitchingSchedule,
    default_machine_models,
    initial_state,
    load_schedule,
    parse_schedule,
    run_scenario,
    trace_to_csv,
)
from gridimpact.model import Branch, Bus, Generator, Substation
from gridimpact.pipeline import combination_branch_set
from gridimpact.screening import OutageCombination
from gridimpact.topology import OutageAction

from conftest import REPO_ROOT
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
        assert sched.events == (
            (0.0, OutageAction.open_branch(17, 113)),
            (5.0, OutageAction.remove_substation(34)),
            (10.5, OutageAction.open_branch(11, 13)),
        )

    def test_comments_and_blanks_ignored(self):
        sched = parse_schedule("# header\n\n1.0 open_branch 1 2  # trailing\n")
        assert len(sched.events) == 1
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

    def test_bad_bus_id_reports_line(self):
        with pytest.raises(ValueError, match="^line 2: bad bus id in '1.0 open_branch a 2'$"):
            parse_schedule("0.5 open_branch 1 2\n1.0 open_branch a 2\n")

    @pytest.mark.parametrize("time", ["inf", "nan", "-inf"])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ValueError, match="finite"):
            parse_schedule(f"{time} open_branch 17 113\n")

    @pytest.mark.parametrize("time", ["inf", "nan", "-inf", "1e999"])
    def test_non_finite_time_reports_its_line(self, time):
        """Rejected at its own line, before the lines after it are read."""
        with pytest.raises(ValueError) as err:
            parse_schedule(f"0.5 open_branch 1 2\n{time} open_branch 17 113\n9 close 1\n")
        assert str(err.value) == f"line 2: event time must be finite, got {time!r}"


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
        assert [t for t, _ in sched.events] == [0.0, 5.0, 10.0]
        assert sched.end_time == 10.0

    def test_evenly_spaced_start_offset(self):
        sched = SwitchingSchedule.evenly_spaced(
            [OutageAction.open_branch(1, 2)], interval=2.0, start=3.0
        )
        assert sched.events[0][0] == 3.0

    def test_evenly_spaced_bad_interval(self):
        with pytest.raises(ValueError):
            SwitchingSchedule.evenly_spaced([OutageAction.open_branch(1, 2)], 0.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_evenly_spaced_non_finite_interval(self, interval):
        with pytest.raises(ValueError, match="finite"):
            SwitchingSchedule.evenly_spaced([OutageAction.open_branch(1, 2)], interval)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        a = OutageAction.open_branch(1, 2)
        with pytest.raises(ValueError, match="finite"):
            SwitchingSchedule(((time, a),))
        with pytest.raises(ValueError, match="finite"):
            SwitchingSchedule(((0.0, a), (time, OutageAction.open_branch(1, 3))))

    @pytest.mark.parametrize("options", [
        dict(dt=float("nan")), dict(dt=float("inf")), dict(dt=0.0),
        dict(t_end=float("nan")), dict(t_end=float("inf")), dict(t_end=float("-inf")),
        dict(t_end=-1.0),
    ])
    def test_scenario_options_need_finite_times(self, options):
        with pytest.raises(ValueError):
            ScenarioOptions(**options)

    @given(times=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_ordering_invariant(self, times):
        events = tuple(
            (t, OutageAction.open_branch(1, 2)) for t in times
        )
        strictly_increasing = all(b > a for a, b in zip(times, times[1:]))
        if strictly_increasing:
            assert len(SwitchingSchedule(events).events) == len(times)
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
        assert verdict.overall != "stable"
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
    """The online monitor's rules at the module's limits, fed synthetic
    samples: (time, island key, angle spread in degrees, frequency in Hz)."""

    OUT = FREQ_BAND_HZ + 0.1  # a frequency deviation outside the band

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frequency_excursion_fires_at_the_dwell(self, sign):
        monitor = dynamics._Monitor()
        f_out = F_NOMINAL + sign * self.OUT
        for t in (2.0, 2.5, 2.0 + 0.99 * DWELL_S):
            assert monitor.update(t, 1, 0.0, f_out) is None
        assert monitor.update(2.0 + DWELL_S, 1, 0.0, f_out) == "frequency_unstable"
        verdict = monitor.verdict()
        assert verdict.per_island == {1: "frequency_unstable"}
        assert verdict.time_of_first_violation == 2.0 + DWELL_S

    def test_reentering_the_band_resets_the_dwell(self):
        monitor = dynamics._Monitor()
        f_out = F_NOMINAL + self.OUT
        assert monitor.update(0.0, 1, 0.0, f_out) is None
        assert monitor.update(0.5, 1, 0.0, F_NOMINAL + 0.99 * FREQ_BAND_HZ) is None
        assert monitor.update(0.6, 1, 0.0, f_out) is None  # the clock restarts
        assert monitor.update(0.6 + 0.99 * DWELL_S, 1, 0.0, f_out) is None
        assert monitor.update(0.6 + DWELL_S, 1, 0.0, f_out) == "frequency_unstable"
        assert monitor.verdict().time_of_first_violation == 0.6 + DWELL_S

    def test_spread_beyond_the_angle_limit_fires_at_once(self):
        monitor = dynamics._Monitor()
        assert monitor.update(0.2, 1, ANGLE_SEPARATION_DEG, F_NOMINAL) is None
        assert monitor.update(0.3, 1, ANGLE_SEPARATION_DEG + 1.0, F_NOMINAL) == (
            "transient_unstable"
        )
        verdict = monitor.verdict()
        assert verdict.overall == "transient_unstable"
        assert verdict.time_of_first_violation == 0.3

    def test_first_violation_is_the_earliest_across_islands(self):
        """Island 2 leaves the band at 0 s and fires at the dwell; island 1
        crosses the angle limit later. A fired island is judged no more."""
        monitor = dynamics._Monitor()
        f_out = F_NOMINAL - self.OUT
        for t in (0.0, 0.5, DWELL_S, DWELL_S + 0.5):
            spread = ANGLE_SEPARATION_DEG + 1.0 if t > DWELL_S else 10.0
            monitor.update(t, 1, spread, F_NOMINAL)
            monitor.update(t, 2, 10.0, f_out)
        verdict = monitor.verdict()
        assert verdict.per_island == {1: "transient_unstable", 2: "frequency_unstable"}
        assert verdict.overall == "islanded_mixed"
        assert verdict.time_of_first_violation == DWELL_S

    @pytest.mark.parametrize("spread, freq", [(np.nan, F_NOMINAL), (0.0, np.nan),
                                              (np.inf, F_NOMINAL), (0.0, -np.inf)])
    def test_non_finite_sample_is_an_error(self, spread, freq):
        """A comparison with NaN is false, so a NaN sample would pass every
        limit: the monitor refuses it, on a fired island too."""
        monitor = dynamics._Monitor()
        with pytest.raises(ValueError, match="non-finite state at t=0.5 s in island 2"):
            monitor.update(0.5, 2, spread, freq)
        monitor.update(1.0, 2, ANGLE_SEPARATION_DEG + 1.0, F_NOMINAL)
        with pytest.raises(ValueError, match="non-finite state"):
            monitor.update(1.5, 2, spread, freq)

    def test_a_run_whose_state_turns_non_finite_raises(self, toy_state):
        """An event at a subnormal time makes a first step whose ``h *
        gamma`` underflows to 0, and the state turns NaN: the run raises
        instead of reading stable."""
        sched = SwitchingSchedule(((5e-324, OutageAction.open_branch(1, 2)),
                                   (0.5, OutageAction.open_branch(1, 3))))
        with pytest.raises(ValueError, match="non-finite state at t=4.94066e-324 s"):
            run_scenario(two_machine_case(), sched, options=ScenarioOptions(t_end=2.0),
                         state=toy_state)


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


class TestTraceBuffers:
    """The run writes each sample in place into buffers sized once from the
    schedule and returns their filled prefixes."""

    @staticmethod
    def _capacity(trace):
        return trace.times.base.shape[0]

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_unhalted_run_fills_its_buffers_exactly(self, every):
        # an event at t = 0, then segments of 0.73 s and 2.005 - 0.73 s:
        # t_end is no multiple of dt
        sched = SwitchingSchedule(
            (
                (0.0, OutageAction.open_branch(1, 2)),
                (0.73, OutageAction.open_branch(1, 99)),
            )
        )
        options = ScenarioOptions(dt=0.01, t_end=2.005, sample_every=every)
        trace, verdict = run_scenario(two_machine_case(), sched, options=options)
        assert verdict.overall == "stable"
        assert trace.events[0].status == "executed"
        # (2.005 - 0.73) / 0.01 is 127.49999999999999: 127 steps would each
        # be longer than dt
        steps = [73, 128]
        n = 1 + sum(-(-k // every) for k in steps)
        assert trace.times.shape[0] == n == self._capacity(trace)
        assert trace.times[-1] == pytest.approx(2.005)
        assert np.all(np.diff(trace.times) > 0)

    def test_halted_run_returns_the_samples_it_recorded(
        self, case118, models118, monkeypatch
    ):
        # every recorded sample solves the bus voltages exactly once
        recorded = []
        solve = dynamics._Engine.bus_voltages
        monkeypatch.setattr(
            dynamics._Engine, "bus_voltages",
            lambda self, e: recorded.append(1) or solve(self, e),
        )
        schedule = load_schedule(REPO_ROOT / "scripts" / "case2_schedule.txt")
        trace, verdict = run_scenario(case118, schedule, models118)
        assert verdict.overall == "islanded_mixed"
        n = trace.times.shape[0]
        assert n == len(recorded) == 1158
        assert n < self._capacity(trace)
        assert trace.times[-1] == verdict.time_of_first_violation
        assert np.all(np.diff(trace.times) > 0)
        for key, freq in trace.island_freq.items():
            assert freq.shape == (n,)
            present = (trace.machine_island == key).any(axis=1)
            assert np.array_equal(np.isfinite(freq), present)

    def test_fields_keep_their_shapes_and_dtypes(self):
        trace, _ = run_scenario(
            two_machine_case(), split_schedule(), options=ScenarioOptions(t_end=2.0)
        )
        n, nm, nb = trace.times.shape[0], len(trace.machine_buses), len(trace.bus_ids)
        assert (trace.times.shape, trace.times.dtype) == ((n,), np.float64)
        assert (trace.angles_deg.shape, trace.angles_deg.dtype) == ((n, nm), np.float64)
        assert trace.machine_island.shape == (n, nm)
        assert trace.machine_island.dtype == np.dtype(int)
        assert (trace.voltages.shape, trace.voltages.dtype) == ((n, nb), np.float64)
        assert sorted(trace.island_freq) == [1, 2]
        for freq in trace.island_freq.values():
            assert (freq.shape, freq.dtype) == ((n,), np.float64)

    def test_peak_memory_is_near_the_trace_size(self, case118, models118):
        """tracemalloc's peak during a run stays within 1.5x the bytes of
        the trace it returns (2.2x when samples were collected in lists and
        stacked at the end)."""
        sched = SwitchingSchedule(((1.0, OutageAction.open_branch(17, 113)),))
        options = ScenarioOptions(dt=0.01, t_end=8.0)
        state = initial_state(case118, models118)
        # a short warm-up run imports what the first run imports
        run_scenario(case118, sched, models118, ScenarioOptions(t_end=1.1), state)
        tracemalloc.start()
        try:
            trace, _ = run_scenario(case118, sched, models118, options, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (trace.times, trace.angles_deg, trace.machine_island,
                  trace.voltages, *trace.island_freq.values())
        assert trace.times.shape[0] == 801
        assert peak <= 1.5 * sum(a.nbytes for a in arrays)


@pytest.fixture(scope="module")
def toy_state():
    case = two_machine_case()
    return initial_state(case, default_machine_models(case))


_TOY_ACTIONS = (
    OutageAction.open_branch(1, 2),
    OutageAction.open_branch(1, 3),
    OutageAction.open_branch(2, 3),
    OutageAction.remove_substation(3),
)


class TestStepRule:
    """Each leg of a run, from one event time to the next or to t_end,
    takes the fewest equal steps no longer than dt."""

    @settings(max_examples=60)
    @given(
        gaps=st.lists(st.floats(0.0005, 0.3), min_size=0, max_size=4),
        first=st.floats(0.0, 0.05),
        tail=st.floats(0.0, 0.3),
        picks=st.lists(st.sampled_from(_TOY_ACTIONS), min_size=4, max_size=4),
    )
    @example(gaps=[0.5], first=5e-324, tail=1.5, picks=list(_TOY_ACTIONS[:2] * 2))
    def test_samples_are_at_most_dt_apart_and_events_are_samples(
        self, toy_state, gaps, first, tail, picks
    ):
        """Or the run raises the non-finite error, which only a leg shorter
        than 1e-300 s may cause (``first`` draws subnormals)."""
        dt = 0.01
        times = np.cumsum([first, *gaps]).tolist()
        sched = SwitchingSchedule(tuple(zip(times, picks)))
        options = ScenarioOptions(dt=dt, t_end=times[-1] + tail, sample_every=1)
        try:
            trace, _ = run_scenario(two_machine_case(), sched, options=options,
                                    state=toy_state)
        except ValueError as exc:
            assert str(exc).startswith("non-finite state at t=")
            legs = np.diff(sorted({0.0, *times, options.t_end}))
            assert np.any(legs < 1e-300)
            return
        assert np.all(np.diff(trace.times) <= dt * (1 + 1e-9))
        for ev in trace.events:
            if ev.status == "executed":
                assert np.min(np.abs(trace.times - ev.time)) <= 1e-12

    @pytest.mark.parametrize("t_ev, t_end, dt, want", [
        (None, 0.025, 0.01, [0.0, 0.025 / 3, 0.05 / 3, 0.025]),  # not 2 of 12.5 ms
        (0.0149, 0.0149, 0.01, [0.0, 0.00745, 0.0149]),  # not 1 of 14.9 ms
    ])
    def test_off_grid_legs(self, toy_state, t_ev, t_end, dt, want):
        events = () if t_ev is None else ((t_ev, OutageAction.open_branch(1, 2)),)
        trace, _ = run_scenario(two_machine_case(), SwitchingSchedule(events),
                                options=ScenarioOptions(dt=dt, t_end=t_end),
                                state=toy_state)
        assert trace.times.tolist() == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("t_end, dt, n_steps", [
        (0.07, 0.01, 7),  # 0.07 / 0.01 is 7.000000000000001
        (5.0, 0.005, 1000),
        (65.0, 0.01, 6500),
    ])
    def test_float_noise_adds_no_step(self, toy_state, t_end, dt, n_steps):
        trace, _ = run_scenario(two_machine_case(), SwitchingSchedule(()),
                                options=ScenarioOptions(dt=dt, t_end=t_end),
                                state=toy_state)
        assert len(trace.times) == n_steps + 1
        assert trace.times[-1] == pytest.approx(t_end)


@pytest.fixture(scope="module")
def run118(case118, models118):
    """Runs the case-2 schedule, the 17-113 opening or combination 100's
    canonical schedule from one base state, the full-trace run of each
    once."""
    pairs = combination_branch_set(case118, OutageCombination((100,)))
    scenarios = {
        "case2": (load_schedule(REPO_ROOT / "scripts" / "case2_schedule.txt"),
                  ScenarioOptions()),
        "disturb_17_113": (SwitchingSchedule(((1.0, OutageAction.open_branch(17, 113)),)),
                           ScenarioOptions(t_end=8.0)),
        "combo100": (SwitchingSchedule.evenly_spaced(
            [OutageAction.open_branch(a, b) for a, b in pairs], interval=5.0),
            ScenarioOptions()),
    }
    state = initial_state(case118, models118)
    full = {}

    def run(name, trace_every=1):
        if trace_every == 1 and name in full:
            return full[name]
        schedule, options = scenarios[name]
        result = run_scenario(case118, schedule, models118, options, state,
                              trace_every=trace_every)
        if trace_every == 1:
            full[name] = result
        return result

    return run


def _same_bytes(a, b):
    return (a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes()


class TestTraceEvery:
    """A run that records every k-th sample, or none, judges every sample
    as the full run does and records exactly the full run's rows 0, k,
    2k, ... in buffers sized for them."""

    SCENARIOS = ["case2", "disturb_17_113", "combo100"]

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_decimated_rows_are_the_full_runs_rows(self, run118, name):
        full, verdict = run118(name)
        for k in (3, 10):
            trace, kept_verdict = run118(name, k)
            assert kept_verdict == verdict
            assert trace.events == full.events
            for field in ("times", "angles_deg", "machine_island", "voltages"):
                assert _same_bytes(getattr(trace, field), getattr(full, field)[::k]), field
            assert trace.island_freq.keys() == full.island_freq.keys()
            for key, freq in full.island_freq.items():
                assert _same_bytes(trace.island_freq[key], freq[::k]), key
            assert trace.times.base.shape[0] == -(-full.times.base.shape[0] // k)
            assert trace_to_csv(trace) == trace_to_csv(full, decimate=k)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_verdict_only_run_records_no_rows(self, run118, name):
        full, verdict = run118(name)
        trace, bare_verdict = run118(name, None)
        assert bare_verdict == verdict  # time_of_first_violation included
        assert trace.events == full.events
        nm, nb = len(full.machine_buses), len(full.bus_ids)
        assert trace.times.shape == (0,)
        assert trace.angles_deg.shape == trace.machine_island.shape == (0, nm)
        assert trace.voltages.shape == (0, nb)
        assert trace.island_freq.keys() == full.island_freq.keys()
        assert all(f.shape == (0,) for f in trace.island_freq.values())

    @pytest.mark.parametrize("trace_every", [1, 4, None])
    def test_bus_voltages_solved_for_recorded_rows_only(self, trace_every, monkeypatch):
        solved = []
        solve = dynamics._Engine.bus_voltages
        monkeypatch.setattr(
            dynamics._Engine, "bus_voltages",
            lambda self, e: solved.append(1) or solve(self, e),
        )
        trace, _ = run_scenario(two_machine_case(), split_schedule(),
                                options=ScenarioOptions(t_end=2.0),
                                trace_every=trace_every)
        assert len(solved) == trace.times.shape[0] == {1: 201, 4: 51, None: 0}[trace_every]

    @pytest.mark.parametrize("trace_every", [0, -1])
    def test_bad_trace_every_rejected(self, trace_every):
        with pytest.raises(ValueError, match="trace_every"):
            run_scenario(two_machine_case(), split_schedule(), trace_every=trace_every)


class TestStateModels:
    """A base state carries the models it is an equilibrium of, and a run
    from it uses them."""

    @staticmethod
    def slow_models(case):
        return tuple(
            dataclasses.replace(m, inertia_H=3.0, exciter=ExciterParams(gain=20.0))
            for m in default_machine_models(case)
        )

    def test_run_without_models_uses_the_state_models(self):
        case = two_machine_case()
        models = self.slow_models(case)
        state = initial_state(case, models)
        assert state.models == models
        options = ScenarioOptions(t_end=3.0)
        omitted = run_scenario(case, split_schedule(), options=options, state=state)
        explicit = run_scenario(case, split_schedule(), models, options, state)
        assert trace_to_csv(omitted[0]) == trace_to_csv(explicit[0])
        assert omitted[1] == explicit[1]
        assert omitted[0].events == explicit[0].events

    def test_state_stays_at_its_equilibrium(self):
        case = two_machine_case()
        state = initial_state(case, self.slow_models(case))
        trace, verdict = run_scenario(
            case, SwitchingSchedule(()), options=ScenarioOptions(t_end=1.0), state=state
        )
        assert verdict.overall == "stable"
        assert np.max(np.abs(trace.angles_deg[-1] - trace.angles_deg[0])) < 1e-9

    def test_other_models_rejected(self):
        case = two_machine_case()
        state = initial_state(case, self.slow_models(case))
        with pytest.raises(ValueError, match="models differ"):
            run_scenario(case, split_schedule(), default_machine_models(case),
                         ScenarioOptions(t_end=2.0), state)


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


class TestEngineEventSemantics:
    """Skips, re-openings and parallel circuits on the 118-bus case; the
    records and the verdict were recorded when every event rebuilt a
    reduced case."""

    SCHEDULE = SwitchingSchedule((
        (0.5, OutageAction.remove_substation(100)),
        (0.6, OutageAction.remove_substation(100)),  # already out
        (0.7, OutageAction.open_branch(103, 100)),  # removed with 100
        (0.8, OutageAction.open_branch(42, 49)),  # two circuits
        (0.9, OutageAction.open_branch(49, 42)),  # already open
        (1.0, OutageAction.open_branch(89, 92)),  # two circuits
    ))

    def test_records_verdict_and_trace(self, case118, models118):
        trace, verdict = run_scenario(case118, self.SCHEDULE, models=models118,
                                      options=ScenarioOptions(t_end=2.5))
        assert [(ev.time, ev.status, ev.cause, ev.island_count) for ev in trace.events] == [
            (0.5, "executed", None, 2),
            (0.6, "skipped", "substation 100 already removed", None),
            (0.7, "skipped", "no branch with endpoints [(100, 103)]", None),
            (0.8, "executed", None, 2),
            (0.9, "skipped", "branch 42-49 already open", None),
            (1.0, "executed", None, 2),
        ]
        assert [ev.action for ev in trace.events] == [a for _, a in self.SCHEDULE.events]
        assert verdict == dynamics.StabilityVerdict(
            overall="islanded_mixed",
            per_island={1: "stable", 103: "frequency_unstable"},
            time_of_first_violation=2.08,
        )
        assert len(trace.times) == 209
        # a skipped re-opening leaves the network as it was: the trace is
        # the one of the schedule without it, byte for byte
        without = SwitchingSchedule(tuple(
            (t, a) for t, a in self.SCHEDULE.events if t != 0.9))
        plain, plain_verdict = run_scenario(case118, without, models=models118,
                                            options=ScenarioOptions(t_end=2.5))
        assert plain_verdict == verdict
        assert trace_to_csv(trace) == trace_to_csv(plain)

    def test_substation_skip_causes(self):
        """A substation removed twice is skipped as already removed, one the
        case lacks as unknown."""
        sched = SwitchingSchedule((
            (0.1, OutageAction.remove_substation(3)),
            (0.2, OutageAction.remove_substation(3)),
            (0.3, OutageAction.remove_substation(9)),
        ))
        trace, _ = run_scenario(two_machine_case(), sched, options=ScenarioOptions(t_end=0.5))
        assert [(ev.status, ev.cause) for ev in trace.events] == [
            ("executed", None),
            ("skipped", "substation 3 already removed"),
            ("skipped", "unknown substation id 9"),
        ]


class TestRosenbrockStep:
    """The engine's one ROS34PW2 step per sample on the 118-bus case."""

    def test_four_rhs_evaluations_per_step(self, case118, models118, monkeypatch):
        """Combination 100's canonical run, 3,639 samples and so 3,638
        steps, evaluates the RHS 4 times a step (6 RK4 substeps took 24)."""
        state = initial_state(case118, models118)
        calls = 0
        rhs = dynamics._Engine._rhs

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return rhs(self, *args)

        monkeypatch.setattr(dynamics._Engine, "_rhs", counted)
        pairs = combination_branch_set(case118, OutageCombination((100,)))
        schedule = SwitchingSchedule.evenly_spaced(
            [OutageAction.open_branch(a, b) for a, b in pairs], interval=5.0
        )
        trace, verdict = run_scenario(case118, schedule, state=state)
        assert verdict.time_of_first_violation == 36.38
        assert len(trace.times) == 3639
        assert calls == 4 * 3638 == 14552

    def test_halved_step_changes_frequency_by_less_than_a_millihertz(
        self, case118, models118
    ):
        """AC08's dt halving on the 17-113 opening. Under RK4, dt = 0.005
        took 3 substeps of the length dt = 0.01 took 6 of, so both runs
        were the same arithmetic; each dt is now one step of its own."""
        state = initial_state(case118, models118)
        disturb = SwitchingSchedule(((1.0, OutageAction.open_branch(17, 113)),))
        coarse, _ = run_scenario(case118, disturb, state=state,
                                 options=ScenarioOptions(dt=0.01, t_end=8.0))
        fine, _ = run_scenario(case118, disturb, state=state,
                               options=ScenarioOptions(dt=0.005, t_end=8.0))
        f_c, f_f = coarse.island_freq[1], fine.island_freq[1][::2]
        assert f_c.shape == f_f.shape
        gap = np.max(np.abs(f_c - f_f))
        assert 0.0 < gap < 1e-3
