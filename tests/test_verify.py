"""The verification suite object layer: configs, grids, reports, tables."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from eistrig import ConfigurationError
from eistrig.verify import (RunConfig, _check_ivp, _check_reciprocal_ode,
                            convergence_table, render_json, render_text, report_to_dict,
                            route_error_table, run_verification, strip_decay_table)

#: the default reports without generated_at, committed so that a change that
#: moves a report digit shows it in the diff of these files
GOLDEN = Path(__file__).parent / "data"

SMALL = RunConfig(real_points=6, complex_points=4, route_points=5,
                  y_values=(1, 2, 5))


def test_config_validation_rejects_contradictions():
    for bad in (RunConfig(symbolic_order=7), RunConfig(symbolic_order=18),
                RunConfig(real_points=1), RunConfig(tolerance="zero"),
                RunConfig(y_values=()), RunConfig(perturb_a0="much")):
        with pytest.raises(ConfigurationError):
            bad.context() if bad.perturb_a0 is None else run_verification(bad)


def test_real_grid_spans_the_unit_interval_interior():
    grid = RunConfig().real_grid()
    assert len(grid) == 64
    assert grid[0] == Fraction(1, 20) and grid[-1] == Fraction(19, 20)
    assert all(0 < q < 1 for q in grid)
    assert grid == sorted(grid)


def test_complex_grid_is_a_product_lattice():
    grid = RunConfig().complex_grid()
    assert len(grid) == 16
    res = sorted({q[0] for q in grid})
    ims = sorted({q[1] for q in grid})
    assert res[0] == Fraction(1, 10) and res[-1] == Fraction(9, 10)
    assert ims[0] == Fraction(1, 10) and ims[-1] == Fraction(2)


def test_small_run_produces_a_complete_passing_report():
    report = run_verification(SMALL)
    assert report.passed()
    ids = [item.check_id for item in report.items]
    assert ids == ["pole_cancellation", "implied_identities", "strip_decay",
                   "ode_second_order", "ode_first_order", "nonvanishing",
                   "reciprocal_ode", "ivp", "route_agreement", "pythagoras",
                   "cosec_identity", "pi_reference"]
    for item in report.items:
        assert item.status == "pass"
        assert isinstance(item.residual, str) and isinstance(item.bound, str)


def test_default_jet_residual_items_meet_the_tolerance():
    # both items read only the context, so these are the default report's items
    cfg = RunConfig()
    ctx = cfg.context()
    for item in (_check_reciprocal_ode(cfg, ctx), _check_ivp(cfg, ctx)):
        assert item.status == "pass"
        assert "h" not in item.parameters
        assert ctx.real(item.bound) <= ctx.tolerance


def test_self_contained_mode_omits_the_stored_constant_check():
    report = run_verification(RunConfig(real_points=4, complex_points=0,
                                        route_points=3, y_values=(1, 2),
                                        self_contained=True))
    assert report.passed()
    assert all(item.check_id != "pi_reference" for item in report.items)


def test_perturbed_constant_fails_exactly_the_second_order_check():
    report = run_verification(RunConfig(real_points=4, complex_points=0,
                                        route_points=3, y_values=(1, 2),
                                        perturb_a0="1e-3"))
    assert not report.passed()
    statuses = {item.check_id: item.status for item in report.items}
    assert statuses["ode_second_order"] == "fail"
    failing = [cid for cid, status in statuses.items() if status != "pass"]
    assert failing == ["ode_second_order"]


def test_json_rendering_is_deterministic_apart_from_timestamp():
    cfg = RunConfig(real_points=4, complex_points=0, route_points=3,
                    y_values=(1, 2))
    first = render_json(run_verification(cfg)).splitlines()
    second = render_json(run_verification(cfg)).splitlines()
    assert len(first) == len(second)
    diff = [(a, b) for a, b in zip(first, second) if a != b]
    assert all("generated_at" in a for a, _ in diff)


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_default_report_matches_its_golden_file(precision, tolerance):
    data = report_to_dict(run_verification(RunConfig(precision, tolerance)))
    del data["generated_at"]
    golden = (GOLDEN / f"verify_{precision}_{tolerance}.json").read_text()
    assert (json.dumps(data, indent=2) + "\n").splitlines() == golden.splitlines()


def test_json_schema_shape():
    data = json.loads(render_json(run_verification(SMALL)))
    assert data["schema"] == 1
    assert data["suite_status"] == "pass"
    assert data["config"]["real_points"] == 6
    assert {"check_id", "identity", "parameters", "residual", "bound",
            "status"} <= set(data["checks"][0])


def test_text_rendering_mentions_every_check():
    report = run_verification(SMALL)
    text = render_text(report)
    for item in report.items:
        assert item.check_id in text
    assert text.rstrip().endswith("(12/12 checks)")


def test_strip_decay_table_shape():
    table = strip_decay_table(SMALL)
    lines = table.splitlines()
    assert lines[0] == "y,f_abs,f_err,decay_bound"
    assert len(lines) == 1 + len(SMALL.y_values)
    y, f_abs, f_err, bound = lines[1].split(",")
    assert float(f_abs) < float(bound)
    assert float(f_err) < 1e-9


def test_convergence_table_errors_shrink_and_respect_bounds():
    lines = convergence_table(SMALL).splitlines()
    assert lines[0] == "N,value,tail_bound,abs_error_vs_ref"
    rows = [line.split(",") for line in lines[1:]]
    ns = [int(r[0]) for r in rows]
    assert ns == [4 * 2**i for i in range(len(ns))]
    errors = [float(r[3]) for r in rows]
    bounds = [float(r[2]) for r in rows]
    assert all(e <= b for e, b in zip(errors, bounds))
    assert errors[-1] < errors[0] / 100


def test_route_error_table_diffs_within_bounds():
    lines = route_error_table(SMALL).splitlines()
    assert lines[0] == "z,eisenstein_route,taylor_route,abs_diff,summed_bounds"
    assert len(lines) == 1 + SMALL.route_points
    for line in lines[1:]:
        _, _, _, diff, bound = line.split(",")
        assert float(diff) <= float(bound)
