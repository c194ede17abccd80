import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crackspec
from crackspec import eigensolve
from crackspec.cli import main
from crackspec.discretize import assemble
from crackspec.domain import build_cracked_disk, quarter_problems, reduce_to_sectors


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


def test_import_loads_no_scipy_module_it_does_not_need(tmp_path):
    # set-up time: csgraph is imported where nodal domains are counted, and
    # nothing reads scipy.special or scipy.sparse.linalg
    src = str(Path(crackspec.__file__).resolve().parents[1])
    env = {"HOME": str(tmp_path), "PYTHONPATH": src, "PATH": os.environ.get("PATH", "")}
    script = ("import sys, crackspec; print(sorted(m for m in ('scipy.sparse.csgraph', "
              "'scipy.special', 'scipy.sparse.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


@pytest.mark.parametrize("m, rows", [
    ("24", ["0.4,5.4345242933,3.2265998132,3.2265998132,0.842144146767",
            "0.2,4.42830355977,2.52461896312,2.52461896312,0.87702414195",
            "0.1,2.94989635873,1.60387820917,1.60387820917,0.919613578468",
            "0.05,2.94989635873,1.60387820917,1.60387820917,0.919613578468"]),
    ("25", ["0.4,5.11558871233,2.93689950655,2.93689950655,0.870916539862",
            "0.2,4.54656873269,2.56186792342,2.56186792342,0.887354240851",
            "0.1,3.87856846945,2.14270696213,2.14270696213,0.905062740265",
            "0.05,2.99799683487,1.61694956723,1.61694956723,0.927053290849"]),
    ("180", ["0.4,4.82266648825,2.75425378607,2.75425378607,0.875494210561",
             "0.2,3.96717772546,2.20494357103,2.20494357103,0.899609808068",
             "0.1,3.29818510764,1.79820335705,1.79820335705,0.91707789742",
             "0.05,2.64586479193,1.41700064603,1.41700064603,0.933614532692"]),
])
def test_capacity_output_is_pinned(tmp_path, m, rows):
    # rows at M = 24 and 25 recorded with the direct elimination of the arc
    # unknowns (the oracle in test_capacity.py), and at M = 180, the
    # README's grid, with an earlier Green's-column solver; the
    # Green's-column solve repeats them byte for byte
    code, out = run(tmp_path, "capacity", "--r1", "0.4356", "--delta-list",
                    "0.4,0.2,0.1,0.05", "-M", m)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["delta,cap_total,cap_plus,cap_minus,ratio"] + rows


@pytest.mark.parametrize("argv, side, lambdas", [
    pytest.param(["quarter", "--case", "NND", "--epsilon", "0.3", "-k", "3"], "hole",
                 ["27.3251307742", "30.8804762417", "36.469623577"], id="NND-hole"),
    pytest.param(["quarter", "--case", "NND", "--epsilon", "1.2", "-k", "3"], "crack",
                 ["11.2544814865", "30.3932545964", "34.3051553882"], id="NND-crack"),
    pytest.param(["quarter", "--case", "DDD", "--epsilon", "0.3", "-k", "3"], "hole",
                 ["37.570904391", "61.6842154462", "99.5525648044"], id="DDD-hole"),
    pytest.param(["quarter", "--case", "DDD", "--epsilon", "1.2", "-k", "3"], "crack",
                 ["28.8325060857", "58.892539994", "76.2825090026"], id="DDD-crack"),
    pytest.param(["quarter", "--case", "NDD", "--epsilon", "0.3", "-k", "3"], "hole",
                 ["29.1628943999", "46.4663949093", "71.5218882936"], id="NDD-hole"),
    pytest.param(["quarter", "--case", "NDD", "--epsilon", "1.2", "-k", "3"], "crack",
                 ["15.7352149655", "43.0714398667", "50.0409572923"], id="NDD-crack"),
    pytest.param(["quarter", "--case", "DND", "--epsilon", "0.3", "-k", "3"], "hole",
                 ["31.3668319172", "47.7537968315", "79.0540851608"], id="DND-hole"),
    pytest.param(["quarter", "--case", "DND", "--epsilon", "1.2", "-k", "3"], "crack",
                 ["25.2263664737", "42.6327381009", "63.0323035168"], id="DND-crack"),
    pytest.param(["solve", "--n", "3", "--epsilon", "0.29", "-k", "6"], "hole",
                 ["26.5606503876", "29.5300305871", "29.5300305871",
                  "30.8097092047", "36.5091119954", "36.5091119954"], id="n3-hole"),
    pytest.param(["solve", "--n", "3", "--epsilon", "0.9", "-k", "6"], "crack",
                 ["12.4597256763", "19.2774827224", "19.2774827224",
                  "30.4446444084", "31.6099535427", "31.6099535427"], id="n3-crack"),
])
def test_eigenvalue_output_is_pinned_on_both_sides(tmp_path, argv, side, lambdas):
    # lambda cells at M = 40 recorded with a class per side of the r1 ring;
    # the openings at the smaller epsilon are solved on the hole's side and
    # those at the larger on the crack's, which the offsets below check
    code, out = run(tmp_path, *argv, "-M", "40")
    assert code == 0
    lines = out.read_text().splitlines()
    header = dict(l[2:].split(" = ") for l in lines if l.startswith("# ") and " = " in l)
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert rows[0] == ["epsilon", "sector", "index", "lambda", "residual"]
    assert [r[3] for r in rows[1:]] == lambdas
    spec = build_cracked_disk(int(header.get("n", 2)), float(header["epsilon_requested"]),
                              float(header["r1_requested"]), float(header["r2"]))
    problems = ([p for p in quarter_problems(spec) if p.quarter_case == header["case"]]
                if argv[0] == "quarter" else [p for p, _ in reduce_to_sectors(spec)])
    holes = [eigensolve._Secular(assemble(p, 40)).offset > 0 for p in problems]
    assert holes == [side == "hole"] * len(problems)


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


def test_asymptotics_fit_with_three_tail_points_and_the_endpoint_exits_1(tmp_path, capsys):
    from crackspec.asymptotics import model, predict
    mod = model("NDD", 0.4356, 1.0)
    curve = tmp_path / "curve.csv"
    lines = ["epsilon,lambda"]
    for d in (0.25, 0.07, 0.05):
        e = math.pi / 2 - d
        lines.append(f"{e},{predict(mod, e)}")
    lines.append(f"{math.pi / 2},{mod.lambda_limit}")
    curve.write_text("\n".join(lines) + "\n")
    code, out = run(tmp_path, "asymptotics", "--case", "NDD", "--r1", "0.4356",
                    "--fit", str(curve))
    assert code == 1
    assert "got 3" in capsys.readouterr().err


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_a_tol_that_is_not_finite_exits_1(tol, capsys):
    # NaN had failed every certificate (exit 2), and inf had certified any residual
    assert main(["solve", "--n", "3", "--epsilon", "0.3", "-M", "24", "-k", "2",
                 "--tol", tol]) == 1
    assert f"validation error: tol={tol} is not a finite number" in capsys.readouterr().err


def test_fully_open_nnd_at_m480_passes_the_certificate(tmp_path):
    # the open NND quarter at M = 480 had failed the unchanged 1e-8
    # certificate (residual 1.455e-07) while the inner rings' angular links
    # cancelled in the product; with T's product formed before D scales it
    # the largest residual is 5.985e-08, 1.96e-9 relative
    code, out = run(tmp_path, "quarter", "--case", "NND", "--epsilon", "1.5707963267948966",
                    "-M", "480", "-k", "3")
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert [row[2] for row in rows] == ["1", "2", "3"]
    assert all(float(row[4]) <= 1e-8 * float(row[3]) for row in rows)


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


def test_capacity_failure_exits_2(monkeypatch, capsys):
    # a harmonicity residual above its bound is a solver failure, not a traceback
    from crackspec import capacity
    monkeypatch.setattr(capacity, "_RESIDUAL_BOUND", -1.0)
    assert main(["capacity", "--r1", "0.4356", "--delta-list", "0.2", "-M", "24"]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "harmonicity residual" in err


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


def test_k_above_a_quarter_of_a_sectors_unknowns_exits_1(capsys):
    # ell=0 has 65 unknowns at M = 9: 40 eigenvalues cannot be certified
    assert main(["solve", "--n", "2", "--epsilon", "0.47123889803846897",
                 "--r1", "0.4356", "-M", "9", "-k", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k=40" in captured.err


def test_asymptotics_fit_refuses_several_curves(tmp_path, capsys):
    # a sweep CSV holds a curve per sector and index: one fit takes one
    curve = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--r1", "0.4356", "-M", "48", "-k", "2",
                 "--steps", "20", "--eps-min", "1.2", "--eps-max", "1.5707",
                 "--output", str(curve)]) == 0
    assert main(["asymptotics", "--case", "NND", "--r1", "0.4356",
                 "--fit", str(curve)]) == 1
    err = capsys.readouterr().err
    assert "holds 4 curves (distinct sector and index values)" in err
    # one sector and index of it is one curve, which fits
    rows = curve.read_text().splitlines()
    header = next(i for i, row in enumerate(rows) if row.startswith("epsilon,"))
    one = [row for row in rows[header + 1:] if ",ell=0,1," in row]
    curve.write_text("\n".join(rows[:header + 1] + one) + "\n")
    assert main(["asymptotics", "--case", "NND", "--r1", "0.4356",
                 "--fit", str(curve)]) == 0


@pytest.mark.parametrize("body,line", [
    ("epsilon,lambda\n1.3,15.0\n1.4\n", 3),        # a short row
    ("epsilon,lambda\n1.3,15.0\n1.4,abc\n", 3),    # a cell that is no number
    ("# curve\nepsilon,lambda\nx,15.0\n", 3),
], ids=["short-row", "text-lambda", "text-epsilon"])
def test_fit_csv_defect_is_a_one_line_validation_error(tmp_path, capsys, body, line):
    curve = tmp_path / "curve.csv"
    curve.write_text(body)
    assert main(["asymptotics", "--case", "DND", "--r1", "0.4356",
                 "--fit", str(curve)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{curve}:{line}:" in err
