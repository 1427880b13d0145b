import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import prnls as P

from prnls.snapshot import params_from_header
from prnls.solver import SolverConfig
from prnls.sweep import (
    RunConfig,
    check_uniform_bounds,
    emit,
    load_run_config,
    make_record,
    records_to_csv,
    records_to_json,
    run_config_from_dict,
    run_sweep,
)

def _reject(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_sweep")
    cfg = RunConfig(N=128, c_schedule=(4.0, 8.0), output_dir=str(out))
    return run_sweep(cfg), out

class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.c_schedule == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        assert cfg.params_at(math.inf).c == math.inf

    def test_mu_above_mc2_rejected(self):
        with pytest.raises(ValueError, match="mc|exceed"):
            RunConfig(m=1.0, mu=2.0, c_schedule=(1.0,))

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            RunConfig(c_schedule=(1.0, 4.0, 2.0))
        with pytest.raises(ValueError):
            RunConfig(c_schedule=())

    def test_c_below_one_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(c_schedule=(0.5, 1.0))

    def test_from_dict_and_file(self, tmp_path):
        raw = {"params": {"mu": 0.5}, "grid": {"N": 64}, "c_schedule": [2, 8],
               "solver": {"tol_residual": 1e-8}}
        cfg = run_config_from_dict(raw)
        assert cfg.mu == 0.5 and cfg.N == 64 and cfg.c_schedule == (2.0, 8.0)
        assert cfg.solver.tol_residual == 1e-8
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_run_config(path) == cfg

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_config_from_dict({"solver": {"step": 1.0}})

    @pytest.mark.parametrize("raw, section", [
        ({"params": {"mass": 2.0}}, "params"),
        ({"grid": {"n": 3}}, "grid"),
        ({"c_schedual": [1, 2]}, "top-level"),
    ])
    def test_unknown_keys_rejected_in_every_section(self, raw, section):
        with pytest.raises(ValueError, match=f"unknown {section} keys"):
            run_config_from_dict(raw)

    @pytest.mark.parametrize("raw", [{"params": {"n": 2.5}}, {"grid": {"N": 256.5}}])
    def test_non_integral_size_rejected(self, raw):
        with pytest.raises(ValueError, match="must be an integer"):
            run_config_from_dict(raw)

    def test_integral_float_size_accepted(self):
        cfg = run_config_from_dict({"params": {"n": 2.0}, "grid": {"N": 64.0}})
        assert (cfg.n, cfg.N) == (2, 64) and isinstance(cfg.N, int)

    def test_readme_config_block_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert run_config_from_dict(json.loads(block)) == RunConfig()

    def test_infinite_c_rejected(self):
        # the limit state is always solved; a scheduled c = inf would duplicate
        # its row and overwrite its snapshot
        with pytest.raises(ValueError, match="finite"):
            RunConfig(c_schedule=(1.0, math.inf))

    def test_colliding_snapshot_labels_rejected(self):
        # both values would write state_c32.*
        with pytest.raises(ValueError, match="snapshot labels"):
            RunConfig(c_schedule=(32.0, 32.00001))
        assert RunConfig(c_schedule=(32.0, 32.0001)).c_schedule == (32.0, 32.0001)

class TestRunSweep:
    def test_row_and_snapshot_counts(self, tiny_result):
        result, out = tiny_result
        assert len(result.records) == 2
        assert len(result.all_records()) == 3
        snapshots = sorted(p.name for p in out.glob("*.f64"))
        assert snapshots == ["state_c4.f64", "state_c8.f64", "state_cinf.f64"]
        assert (out / "sweep.csv").exists() and (out / "sweep.json").exists()

    def test_snapshots_load_back(self, tiny_result):
        result, out = tiny_result
        field, head = P.load_field(out / "state_cinf.f64")
        assert np.array_equal(field.values, result.limit_state.field.values)
        assert params_from_header(head).c == math.inf
        header = (out / "state_cinf.f64").read_bytes().split(b"\n", 1)[0]
        assert json.loads(header, parse_constant=_reject)["params"]["c"] == "inf"

    def test_report_sidecars(self, tiny_result):
        result, out = tiny_result
        side = json.loads((out / "state_c4.json").read_text())
        assert side["converged"] is True
        assert side["stop_reason"] == "converged"
        assert side["report"]["I"] == result.states[0].report.I
        assert side["params"]["mu"] == 1.0

    def test_all_rows_converged_and_flagged(self, tiny_result):
        result, _ = tiny_result
        assert all(r.converged for r in result.all_records())
        assert all(r.residual <= 1e-9 for r in result.all_records())

    def test_err_column(self, tiny_result):
        result, _ = tiny_result
        errs = [r.err_h1 for r in result.records]
        assert errs[0] > errs[1] > 0.0
        assert result.limit_record.err_h1 == 0.0

    def test_no_tmp_files_left(self, tiny_result):
        _, out = tiny_result
        assert not list(out.glob("*.tmp"))

    def test_default_sweep_errors_strictly_decreasing(self, sweep_result):
        errs = [r.err_h1 for r in sweep_result.records]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_nonconverged_rows_flagged_but_sweep_continues(self):
        from prnls.solver import SolverConfig

        cfg = RunConfig(N=64, c_schedule=(4.0, 8.0), solver=SolverConfig(max_iter=2))
        result = run_sweep(cfg)
        assert len(result.all_records()) == 3
        assert all(not r.converged for r in result.all_records())

    def test_energy_bounded_by_limit_level(self, sweep_result):
        top = sweep_result.limit_record.I
        assert all(r.I <= top + 1e-10 * abs(top) for r in sweep_result.records)

class TestUniformBounds:
    def test_report_on_default_sweep(self, sweep_result):
        rep = check_uniform_bounds(sweep_result.all_records(), 1.0, 1.0)
        assert rep.lp_ratio <= 2.0
        assert rep.sup_energy == pytest.approx(sweep_result.limit_record.I)
        limit_slack = [s for c, s, rel in rep.slacks if math.isinf(c)]
        assert len(limit_slack) == 1

    def test_needs_two_converged_rows(self, sweep_result):
        with pytest.raises(ValueError):
            check_uniform_bounds([sweep_result.records[0]], 1.0, 1.0)

class TestEmit:
    def test_empty_records_header_only(self, tmp_path):
        paths = emit([], tmp_path, formats=("csv",))
        assert paths[0].read_text() == ("c,I,lp,l2_sq,grad_sq,hhalf,err_h1,residual,"
                                        "iterations,radial_scatter,min_over_max,converged\n")

    def test_csv_row_count_and_inf_label(self, sweep_result, tmp_path):
        emit(sweep_result.all_records(), tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 7
        assert lines[-1].startswith("inf,")

    def test_json_mirrors_fields(self, sweep_result, tmp_path):
        emit(sweep_result.all_records(), tmp_path, formats=("json",))
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 7
        assert rows[0]["c"] == 1.0 and rows[-1]["c"] == "inf"
        assert rows[3]["lp"] == sweep_result.records[3].lp

    def test_unknown_format_rejected(self, sweep_result, tmp_path):
        with pytest.raises(ValueError):
            emit(sweep_result.all_records(), tmp_path, formats=("xml",))

    def test_same_records_give_identical_bytes(self, sweep_result, tmp_path):
        a = records_to_csv(sweep_result.all_records())
        b = records_to_csv(sweep_result.all_records())
        assert a == b

class TestMakeRecord:
    def test_zero_reference_gives_norm(self, limit_state):
        rec = make_record(math.inf, limit_state, limit_state.field)
        assert rec.err_h1 == 0.0
        assert rec.l2_sq == pytest.approx(P.norm_l2(limit_state.field) ** 2)
        assert rec.min_over_max >= -1e-10

    def test_state_without_positive_sample_is_not_sign_definite(self):
        # started from minus a Gaussian, the first step collapses the pairing and
        # leaves a state whose largest sample is a round-off negative
        grid = P.make_grid(2, 32.0, 64)
        params = P.PhysParams(m=1.0, mu=1.0, c=math.inf, p=3.0, n=2)
        init = P.RealField(grid, -P.gaussian_field(grid, 2.0).values)
        gs = P.solve_ground_state(params, grid, P.limit_multiplier(grid, params),
                                  SolverConfig(init_field=init))
        assert gs.stop_reason == "pairing_collapse"
        assert np.max(gs.field.values) <= 0.0
        rec = make_record(math.inf, gs, gs.field)
        assert rec.min_over_max == -math.inf
        assert records_to_csv([rec]).splitlines()[1].split(",")[-2] == "-inf"
        assert json.loads(records_to_json([rec]))[0]["min_over_max"] == "-inf"
