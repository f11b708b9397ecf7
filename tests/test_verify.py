"""The verification suite object layer: configs, grids, reports, tables."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from eistrig import ConfigurationError, PoleProximityError, lattice, verify
from eistrig.lattice import (check_jet, first_order_ode_residual, nonvanishing_scan,
                             second_order_ode_residual)
from eistrig.trig import cosec_identity_check
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


#: the checks that read f, f' and f'' from the one jet per grid point
JET_CHECKS = {"ode_second_order", "ode_first_order", "nonvanishing", "cosec_identity"}


def test_a_default_verify_makes_one_jet_pass_per_grid_point(monkeypatch):
    # 80 grid points take one check_jet pass each, and the cosec g' jet and
    # pythagoras one more each: 240 of at most 295 (535 with a pass for each
    # of the four jet checks at each point)
    passes = []
    real = lattice._lattice_pass
    monkeypatch.setattr(lattice, "_lattice_pass", lambda *args: passes.append(1) or real(*args))
    assert run_verification(RunConfig()).passed()
    assert len(passes) <= 295


def test_the_jet_checks_read_the_jet_they_compute_alone(monkeypatch):
    # verify computes check_jet once per grid point and hands it to the four
    # checks; each of them, called alone, computes the same jet and so
    # returns the same ball
    supplied = []

    def recording(zp, ctx):
        supplied.append((zp, check_jet(zp, ctx)))
        return supplied[-1][1]
    monkeypatch.setattr(verify, "check_jet", recording)
    assert run_verification(SMALL).passed()
    ctx = SMALL.context()
    grid = [zp for zp, _ in supplied]
    assert len(grid) == len(set(grid)) == SMALL.real_points + SMALL.complex_points
    for zp, jet in supplied:
        assert second_order_ode_residual(zp, ctx) == second_order_ode_residual(zp, ctx, 0, jet)
        assert first_order_ode_residual(zp, ctx) == first_order_ode_residual(zp, ctx, jet)
        assert cosec_identity_check(zp, ctx) == cosec_identity_check(zp, ctx, jet)
    assert nonvanishing_scan(grid, ctx) == nonvanishing_scan(grid, ctx, [j for _, j in supplied])


def test_a_jet_that_raises_leaves_exactly_its_four_checks_inconclusive(monkeypatch):
    ctx = SMALL.context()
    bad = ctx.exact(SMALL.real_grid()[2])  # the grid's exact pair

    def failing(zp, ctx):
        if zp == bad:
            raise PoleProximityError("a jet that cannot be formed")
        return check_jet(zp, ctx)
    monkeypatch.setattr(verify, "check_jet", failing)
    report = run_verification(SMALL)
    statuses = {item.check_id: item.status for item in report.items}
    assert len(statuses) == 12
    assert {cid for cid, status in statuses.items() if status != "pass"} == JET_CHECKS
    assert all(statuses[cid] == "inconclusive" for cid in JET_CHECKS)


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
