"""The cross-check matrix's derived values equal the stored ones they replaced.

``CrossCheckMatrix`` stores its records and counts and computes its
marginals and conditionals. The reference below is the code it replaced:
``cross_check`` storing all eight values, ``matrix_csv`` writing each row
by hand and the summary's hand-written probability lines. On generated
verdict tables, the rendered bytes must be equal and every value equal
by ``==``.
"""

from __future__ import annotations

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact.pipeline import (
    PipelineConfig,
    PipelineReport,
    _summary_text,
    cross_check,
    matrix_csv,
)
from gridimpact.screening import OutageCombination, PriorityList, ScreeningResult, ScreeningRun

from toys import two_machine_case

VALUES = (
    "n_critical_steady",
    "n_noncritical_steady",
    "p_critical_steady",
    "p_noncritical_steady",
    "p_dyn_critical_given_critical",
    "p_dyn_stable_given_critical",
    "p_dyn_critical_given_noncritical",
    "p_dyn_stable_given_noncritical",
)


def reference_values(records) -> dict:
    """The eight values as the replaced ``cross_check`` stored them."""
    n_crit = sum(1 for r in records if r.steady_verdict == "critical")
    n_non = len(records) - n_crit
    counts: dict[tuple[str, str], int] = {}
    for r in records:
        if r.dynamic_verdict is None:
            continue
        dyn = "dyn_critical" if r.dyn_critical else "dyn_stable"
        key = (r.steady_verdict, dyn)
        counts[key] = counts.get(key, 0) + 1

    def conditionals(steady):
        crit = counts.get((steady, "dyn_critical"), 0)
        stab = counts.get((steady, "dyn_stable"), 0)
        verified = crit + stab
        if verified == 0:
            return None, None
        return crit / verified, stab / verified

    p_cc, p_cs = conditionals("critical")
    p_nc, p_ns = conditionals("non_critical")
    return dict(
        total=n_crit + n_non,
        counts=counts,
        n_critical_steady=n_crit,
        n_noncritical_steady=n_non,
        p_critical_steady=n_crit / len(records),
        p_noncritical_steady=n_non / len(records),
        p_dyn_critical_given_critical=p_cc,
        p_dyn_stable_given_critical=p_cs,
        p_dyn_critical_given_noncritical=p_nc,
        p_dyn_stable_given_noncritical=p_ns,
    )


def _fmt_prob(x):
    return "" if x is None else f"{x:.12g}"


def reference_matrix_csv(m: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "value"])
    w.writerow(["combinations_screened", m["total"]])
    w.writerow(["n_critical_steady", m["n_critical_steady"]])
    w.writerow(["n_noncritical_steady", m["n_noncritical_steady"]])
    w.writerow(["p_critical_steady", _fmt_prob(m["p_critical_steady"])])
    w.writerow(["p_noncritical_steady", _fmt_prob(m["p_noncritical_steady"])])
    for steady in ("critical", "non_critical"):
        for dyn in ("dyn_critical", "dyn_stable"):
            w.writerow([f"count_{steady}_{dyn}", m["counts"].get((steady, dyn), 0)])
    w.writerow(["p_dyn_critical_given_critical", _fmt_prob(m["p_dyn_critical_given_critical"])])
    w.writerow(["p_dyn_stable_given_critical", _fmt_prob(m["p_dyn_stable_given_critical"])])
    w.writerow(
        ["p_dyn_critical_given_noncritical", _fmt_prob(m["p_dyn_critical_given_noncritical"])]
    )
    w.writerow(
        ["p_dyn_stable_given_noncritical", _fmt_prob(m["p_dyn_stable_given_noncritical"])]
    )
    return buf.getvalue()


def reference_summary_lines(m: dict) -> list[str]:
    return [
        "cross-check: "
        f"P(critical)={m['p_critical_steady']:.12g} "
        f"P(non-critical)={m['p_noncritical_steady']:.12g}",
        "  P(dyn-critical|critical)="
        + _fmt_prob(m["p_dyn_critical_given_critical"])
        + " P(dyn-stable|critical)="
        + _fmt_prob(m["p_dyn_stable_given_critical"]),
        "  P(dyn-critical|non-critical)="
        + _fmt_prob(m["p_dyn_critical_given_noncritical"])
        + " P(dyn-stable|non-critical)="
        + _fmt_prob(m["p_dyn_stable_given_noncritical"]),
    ]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["critical", "non_critical"]),
            st.sampled_from(
                ["stable", "transient_unstable", "frequency_unstable", "islanded_mixed", None]
            ),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_derived_matrix_equals_the_stored_one(rows):
    screened = tuple(
        ScreeningResult(
            combination=OutageCombination((i,)),
            verdict=sv,
            reason="diverged" if sv == "critical" else "clean",
            violations=(),
            island_count=1,
            unserved_mw=0.0,
        )
        for i, (sv, _) in enumerate(rows, 1)
    )
    m = cross_check(screened, {(i,): dv for i, (_, dv) in enumerate(rows, 1) if dv is not None})
    want = reference_values(m.records)

    assert m.total == want["total"]
    assert m.counts == want["counts"]
    for name in VALUES:
        assert getattr(m, name) == want[name], name
    assert matrix_csv(m) == reference_matrix_csv(want)

    run = ScreeningRun(levels=(PriorityList(1, screened),), evaluations=len(screened),
                       pruned=0, budget=None, coverage=1.0)
    report = PipelineReport(PipelineConfig(), run, (), m, ())
    lines = _summary_text(report, two_machine_case()).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("cross-check: "))
    assert lines[at:at + 3] == reference_summary_lines(want)
