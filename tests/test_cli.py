import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crackspec
from crackspec.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(list(argv) + ["--output", str(out)])
    return code, out


def test_version(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "crackspec" in out and "schema" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out


def test_disk_ref_values(tmp_path):
    code, out = run(tmp_path, "disk-ref", "--radius", "1", "--count", "6")
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "lambda,ell,k,multiplicity"
    rows = [l.split(",") for l in lines[1:]]
    assert [round(float(r[0]), 2) for r in rows] == [5.78, 14.68, 26.37, 30.47]
    assert [int(r[3]) for r in rows] == [1, 2, 2, 1]


def test_annulus_ref_values(tmp_path):
    code, out = run(tmp_path, "annulus-ref", "--r1", "0.4356", "--ell", "0",
                    "--count", "2")
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert float(rows[0][0]) == pytest.approx(30.46, rel=1e-3)
    assert float(rows[1][0]) == pytest.approx(123.38, rel=1e-3)


def test_quarter_command(tmp_path):
    code, out = run(tmp_path, "quarter", "--case", "NND", "--epsilon", "1.5707",
                    "-M", "45", "-k", "3")
    assert code == 0
    text = out.read_text()
    assert "# epsilon = " in text and "# r1 = " in text  # snapped echoes
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert float(rows[0][3]) == pytest.approx(5.78, rel=0.01)


def test_solve_command_and_determinism(tmp_path):
    args = ["solve", "--n", "2", "--epsilon", "0.8", "--r1", "0.4356",
            "-M", "24", "-k", "4"]
    code1, out1 = run(tmp_path, *args)
    body1 = out1.read_text()
    out2 = tmp_path / "again.csv"
    code2 = main(args + ["--output", str(out2)])
    assert code1 == code2 == 0
    assert body1 == out2.read_text()  # byte-identical reruns
    rows = [l for l in body1.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "epsilon,sector,index,lambda,residual"
    assert len(rows) == 5


def test_solve_output_does_not_depend_on_blas_threads(tmp_path):
    # each solve runs on one BLAS thread, so the machine's core count, which
    # sets OpenBLAS's default, does not reach the residual columns
    src = str(Path(crackspec.__file__).resolve().parents[1])
    args = ["solve", "--n", "3", "--epsilon", "0.29", "--r1", "auto", "--r2", "1",
            "-M", "36", "-k", "6"]
    outs = []
    for threads in ("1", "2"):
        env = {"HOME": str(tmp_path), "PYTHONPATH": src, "PATH": os.environ.get("PATH", ""),
               "OPENBLAS_NUM_THREADS": threads}
        outs.append(subprocess.run([sys.executable, "-m", "crackspec.cli", *args], env=env,
                                   cwd=tmp_path, capture_output=True, text=True,
                                   check=True).stdout)
    assert "ell=1" in outs[0]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("m", ["33", "35"])
def test_fully_open_opening_is_written_as_pi_over_n(tmp_path, m):
    open_eps = repr(math.pi / 3)
    code, out = run(tmp_path, "solve", "--n", "3", "--epsilon", open_eps, "-M", m, "-k", "2")
    assert code == 0
    assert f"# epsilon = {open_eps}\n" in out.read_text()
    code, out = run(tmp_path, "sweep", "--n", "3", "--steps", "3", "--eps-max", open_eps,
                    "-M", m, "-k", "2")
    assert code == 0
    assert f"# epsilon_max = {open_eps}\n" in out.read_text()


def test_sweep_with_plot(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--r1", "0.4356", "--steps", "3",
                 "--eps-min", "0.4", "--eps-max", "1.2", "-M", "16", "-k", "2",
                 "--plot", "--output", str(out)])
    assert code == 0
    svg = tmp_path / "sweep.csv.svg"
    assert svg.exists()
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_sweep_rows_carry_their_own_residuals(tmp_path):
    from crackspec.cli import _fmt
    from crackspec.domain import build_cracked_disk, reduce_to_sectors
    from crackspec.spectra import solve_sector
    code, out = run(tmp_path, "sweep", "--n", "3", "--r1", "0.4356", "--steps", "3",
                    "--eps-min", "0.3", "--eps-max", "0.9", "-M", "16", "-k", "2")
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for eps, label, index, _, residual in rows:
        spec = build_cracked_disk(3, float(eps), 0.4356, 1.0)
        problem = next(p for p, tag in reduce_to_sectors(spec) if tag.label == label)
        sol = solve_sector(problem, 16, 2, tol=1e-8)
        assert residual == _fmt(float(sol.residuals[int(index) - 1]))
    assert len({row[4] for row in rows}) > 1


def test_crossings_header(tmp_path):
    code, out = run(tmp_path, "crossings", "--n", "2", "--r1", "0.4356",
                    "--steps", "3", "--eps-min", "0.3", "--eps-max", "1.2",
                    "-M", "16", "-k", "2", "--rank", "3")
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "epsilon_star,lambda_star,rank,multiplicity,sectorA,sectorB"


def test_capacity_command(tmp_path):
    code, out = run(tmp_path, "capacity", "--r1", "0.4356", "--delta-list",
                    "0.2,0.1", "-M", "36")
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 2
    assert 0.0 < float(rows[0][4]) <= 1.0


def test_asymptotics_with_fit(tmp_path):
    from crackspec.asymptotics import model, predict
    mod = model("DND", 0.4356, 1.0)
    curve = tmp_path / "curve.csv"
    lines = ["epsilon,lambda"]
    for d in (0.3, 0.2, 0.14, 0.1, 0.07, 0.05):
        e = math.pi / 2 - d
        lines.append(f"{e},{predict(mod, e)}")
    curve.write_text("\n".join(lines) + "\n")
    code, out = run(tmp_path, "asymptotics", "--case", "DND", "--r1", "0.4356",
                    "--fit", str(curve))
    assert code == 0
    body = out.read_text()
    assert "model,DND,inverse_log,proven" in body
    fit_rows = [l for l in body.splitlines() if l.startswith("fit_window")]
    assert len(fit_rows) == 3
    assert float(fit_rows[-1].split(",")[7]) == pytest.approx(1.0, rel=1e-6)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 2.0\ncount = 1\n")
    out = tmp_path / "a.csv"
    assert main(["disk-ref", "--radius", "1", "--count", "1", "--config",
                 str(cfg), "--output", str(out)]) == 0
    # explicit flag wins over the config value
    row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
    assert float(row.split(",")[0]) == pytest.approx(5.7832, abs=1e-3)
    # config values alone can drive the run (no flags at all)
    out2 = tmp_path / "b.csv"
    assert main(["disk-ref", "--config", str(cfg), "--output", str(out2)]) == 0
    row2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")][1]
    assert float(row2.split(",")[0]) == pytest.approx(5.7832 / 4, abs=1e-3)


def test_missing_required_option_reported():
    assert main(["disk-ref", "--radius", "1"]) == 1


def test_config_does_not_override_short_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 16\nk = 1\n")
    out = tmp_path / "q.csv"
    assert main(["quarter", "--case", "NND", "--epsilon", "1.5707",
                 "-M", "24", "-k", "2", "--config", str(cfg),
                 "--output", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2  # -k 2 kept despite config k = 1
    assert "# m = 24" in out.read_text()


def test_config_file_syntax_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("radius 2.0\n")
    assert main(["disk-ref", "--radius", "1", "--count", "1",
                 "--config", str(cfg)]) == 1


def test_exit_code_validation():
    assert main(["solve", "--n", "2", "--epsilon", "1.8", "--r1", "0.4356",
                 "-M", "16", "-k", "2"]) == 1
    assert main(["quarter", "--case", "QQQ", "--epsilon", "0.3"]) == 1


def test_exit_code_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["disk-ref", "--radius", "1", "--count", "1",
                 "--output", str(missing)]) == 3


def test_exit_code_solver_failure(monkeypatch):
    from crackspec import cli as climod
    from crackspec.eigensolve import SolverError

    def boom(args):
        raise SolverError("iteration stalled")

    monkeypatch.setattr(climod, "_cmd_disk_ref", boom)
    assert climod.main(["disk-ref", "--radius", "1", "--count", "1"]) == 2


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("count = 3\n")
    code, out = run(tmp_path, "disk-ref", "--radius", "1", f"--config={cfg}")
    assert code == 0
    assert "# count = 3" in out.read_text()


def test_config_flag_without_path_is_a_validation_error(capsys):
    assert main(["disk-ref", "--radius", "1", "--count", "1", "--config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crackspec: error:") and "Traceback" not in err


def test_config_value_is_checked_against_choices(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("case = QQQ\n")
    assert main(["quarter", "--epsilon", "0.3", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crackspec: error:") and "QQQ" in err


def test_config_value_keeps_the_option_type(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("delta_list = 0.4\n")
    code, out = run(tmp_path, "capacity", "--r1", "0.4356", "-M", "24",
                    "--config", str(cfg))
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 1 and rows[0].startswith("0.4,")


def test_config_keys_naming_no_option_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = solve\nfunc = x\nsteps = 9\nradius = 2.0\ncount = 1\n")
    code, out = run(tmp_path, "disk-ref", "--config", str(cfg))
    assert code == 0
    assert "# radius = 2.0" in out.read_text()


def test_config_switch_takes_true_or_false(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timestamps = maybe\n")
    assert main(["disk-ref", "--radius", "1", "--count", "1",
                 "--config", str(cfg)]) == 1
    cfg.write_text("timestamps = True\n")
    code, out = run(tmp_path, "disk-ref", "--radius", "1", "--count", "1",
                    "--config", str(cfg))
    assert code == 0 and "# generated = " in out.read_text()
