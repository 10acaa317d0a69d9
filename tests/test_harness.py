import hashlib
from pathlib import Path

import numpy as np
import pytest

import pcdl
from pcdl import schemes
from pcdl.cli import main as cli_main
from pcdl.estimation import compute_alpha
from pcdl.geometry import ScenarioConfig, build_scenario
from pcdl.harness import (DEFAULT_M_VALUES, SweepConfig, _columns, _evaluate_drop,
                          emit_plot_script, load_sweep_config,
                          parse_antenna_count, run_sweep, sweep_config_from_dict,
                          with_seed, write_sweep_csv)
from pcdl.mc_oracle import verification_rows, write_report_csv
from pcdl.rate_core import Precoder
from pcdl.schemes import sym_rate_pd, sym_rate_sd, sym_rate_snd, sym_rate_tin

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_sweep.cfg"


def small_sweep_config(**kw):
    scenario = ScenarioConfig(K=4, n_drops=3, seed=9)
    defaults = dict(scenario=scenario, m_values=(16, 64), mu_grid=5)
    defaults.update(kw)
    return SweepConfig(**defaults)


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(small_sweep_config())


def test_single_drop_zero_std():
    cfg = SweepConfig(scenario=ScenarioConfig(K=3, n_drops=1),
                      m_values=(32,), schemes=("TIN",), precoders=("MRT",))
    res = run_sweep(cfg)
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row.std_se == 0.0 and row.n_drops == 1 and row.mean_se > 0
    assert row.mean_mu1 is None


def test_rows_cover_grid(small_result):
    combos = {(r.M, r.scheme, r.precoder) for r in small_result.rows}
    assert len(combos) == 2 * 4 * 2
    assert all(r.mean_se >= 0 for r in small_result.rows)


def test_pd_rows_carry_mu_means(small_result):
    for r in small_result.rows:
        if r.scheme == "PD":
            assert 0.0 <= r.mean_mu1 <= 1.0 and 0.0 <= r.mean_mu2 <= 1.0
        else:
            assert r.mean_mu1 is None and r.mean_mu2 is None


def test_per_drop_containment(small_result):
    for M in (16, 64):
        for prec in ("MRT", "ZF"):
            tin = small_result.per_drop[(M, prec, "TIN")]
            sd = small_result.per_drop[(M, prec, "SD")]
            snd = small_result.per_drop[(M, prec, "SND")]
            pd = small_result.per_drop[(M, prec, "PD")]
            assert np.all(pd >= tin)
            assert np.all(snd >= tin)
            assert np.all(snd >= sd)


def test_sweep_reproducible_csv(tmp_path):
    cfg = small_sweep_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_sweep(cfg), str(p1))
    write_sweep_csv(run_sweep(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_per_drop_rows_are_read_only(small_result):
    for row in small_result.per_drop.values():
        assert row.shape == (3,) and not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


def test_csv_format(tmp_path, small_result):
    out = tmp_path / "sweep.csv"
    write_sweep_csv(small_result, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "M,scheme,precoder,mean_se,std_se,n_drops,mean_mu1,mean_mu2"
    body = [l.split(",") for l in lines[1:]]
    assert all(len(cols) == 8 for cols in body)
    tin_row = next(c for c in body if c[1] == "TIN")
    assert tin_row[6] == "" and tin_row[7] == ""
    pd_row = next(c for c in body if c[1] == "PD")
    float(pd_row[6]), float(pd_row[7])  # parseable


def test_mean_invariant_to_drop_order(small_result):
    # aggregation happens on the collected per-drop table, so shuffling the
    # drops cannot change the mean
    key = (16, "MRT", "TIN")
    vals = small_result.per_drop[key]
    row = small_result.row(16, "TIN", "MRT")
    assert row.mean_se == pytest.approx(float(np.mean(vals[::-1])), rel=1e-15)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="ascending"):
        SweepConfig(m_values=(64, 16))
    with pytest.raises(ValueError, match="unknown scheme"):
        SweepConfig(schemes=("TIN", "XX"))
    with pytest.raises(ValueError, match="every M > K"):
        SweepConfig(scenario=ScenarioConfig(K=32), m_values=(16, 64))
    with pytest.raises(ValueError, match="pilot_index"):
        SweepConfig(pilot_index=99)
    with pytest.raises(ValueError, match="mu_grid"):
        SweepConfig(mu_grid=1)
    with pytest.raises(ValueError, match="every M must be an integer, got 64.5"):
        SweepConfig(m_values=(64.5, 100.25))


def test_sweep_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "K = 4\nn_drops = 2\nseed = 3\n"
        "m_values = 16, 32\nschemes = TIN, SND\nprecoders = zf\n"
        "pilot_index = 2\nmu_grid = 7\n", encoding="utf-8")
    cfg = load_sweep_config(str(path))
    assert cfg.m_values == (16, 32)
    assert cfg.schemes == ("TIN", "SND")
    assert cfg.precoders == ("ZF",)
    assert cfg.pilot_index == 2 and cfg.mu_grid == 7
    assert cfg.scenario.K == 4


def test_reference_config_is_the_default():
    # the acceptance tests run the defaults; the CSV pin and the benchmark run the file
    assert load_sweep_config(str(REFERENCE_CONFIG)) == SweepConfig()


def test_sweep_config_unknown_key():
    with pytest.raises(ValueError, match="unknown sweep key"):
        sweep_config_from_dict({"grid": "21"})


def test_with_seed():
    cfg = small_sweep_config()
    assert with_seed(cfg, 77).scenario.seed == 77
    assert cfg.scenario.seed == 9


def test_plot_script_emission(tmp_path, small_result):
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(small_result, str(csv_path))
    script = tmp_path / "plot.py"
    emit_plot_script(str(csv_path), str(script))
    src = script.read_text(encoding="utf-8")
    assert str(csv_path) in src
    compile(src, str(script), "exec")  # syntactically valid


def test_asymptotic_trends_zf():
    # TIN pinned to its ceiling while SND and PD keep climbing and close in
    # on each other (this geometry reaches the convergence regime at M ~ 1e9)
    cfg = SweepConfig(m_values=(10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9, 10 ** 10),
                      precoders=("ZF",), schemes=("TIN", "SND", "PD"))
    res = run_sweep(cfg)
    tin = [res.row(M, "TIN", "ZF").mean_se for M in cfg.m_values]
    snd = [res.row(M, "SND", "ZF").mean_se for M in cfg.m_values]
    pd = [res.row(M, "PD", "ZF").mean_se for M in cfg.m_values]
    assert all(b > a for a, b in zip(snd, snd[1:]))
    assert all(b > a for a, b in zip(pd, pd[1:]))
    assert max(tin) / min(tin) - 1 < 0.02
    gaps = [(p - s) / s for s, p in zip(snd, pd)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-2] < 0.05  # within 5% by M = 1e9


def test_cli_scenario_and_sweep(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 4\nn_drops = 2\nseed = 5\nm_values = 16, 32\n"
                   "mu_grid = 5\n", encoding="utf-8")
    out_scen = tmp_path / "scen.csv"
    assert cli_main(["scenario", "--config", str(cfg), "--out", str(out_scen)]) == 0
    assert out_scen.read_text(encoding="utf-8").startswith("cell,user,x_m,y_m")

    out_sweep = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out_sweep),
                     "--plot-script"]) == 0
    assert out_sweep.exists()
    assert (tmp_path / "sweep_plot.py").exists()


def test_cli_plot_script_stays_next_to_the_csv(tmp_path, monkeypatch):
    # a dot in a directory name is not the output's suffix
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 4\nn_drops = 1\nm_values = 16\nmu_grid = 5\n", encoding="utf-8")
    run_dir = tmp_path / "run.v2"
    run_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg), "--out", "run.v2/sweep",
                     "--plot-script"]) == 0
    script = run_dir / "sweep_plot.py"
    assert script.exists()
    assert not (tmp_path / "run_plot.py").exists()
    assert repr(str(Path("run.v2") / "sweep.png")) in script.read_text(encoding="utf-8")


def test_cli_verify(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 4\nn_drops = 2\nseed = 5\n", encoding="utf-8")
    out = tmp_path / "verify.csv"
    rc = cli_main(["verify", "--config", str(cfg), "--out", str(out),
                   "--trials", "1500", "--combos", "2", "--m", "16"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("quantity,")
    assert len(lines) > 2


def _verify_report(tmp_path, cfg_lines, *args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_lines, encoding="utf-8")
    out = tmp_path / "verify.csv"
    rc = cli_main(["verify", "--config", str(cfg), "--out", str(out), *args])
    return rc, out.read_text(encoding="utf-8")


def test_cli_verify_one_cell(tmp_path):
    rc, report = _verify_report(tmp_path, "L = 1\nK = 4\nn_drops = 2\nschemes = TIN\n",
                                "--m", "16", "--combos", "3", "--trials", "1000")
    assert rc == 0
    quantities = [line.split(",")[0] for line in report.splitlines()[1:]]
    assert len(quantities) == 3 * 4
    assert all(q.startswith('"p1_omega1@') for q in quantities[3::4])


def test_cli_verify_draws_every_cell_into_a_decode_set(tmp_path):
    _, report = _verify_report(tmp_path, "L = 3\nK = 4\nn_drops = 2\nschemes = TIN, SD\n",
                               "--m", "16", "--combos", "8", "--trials", "1000")
    tags = [line.split("@")[0].removeprefix('"p1_omega')
            for line in report.splitlines() if line.startswith('"p1_omega')]
    assert len(tags) == 8
    assert any("3" in tag for tag in tags)


def test_cli_verify_two_cell_report_unchanged(tmp_path):
    # the decode sets of L = 2 in the order of the fixed list the draw used
    # before every cell count had its own: same stream, same report
    rc, report = _verify_report(tmp_path, "K = 4\nn_drops = 3\nseed = 5\n",
                                "--m", "16,64", "--combos", "5", "--trials", "1000")
    cfg = ScenarioConfig(K=4, n_drops=3, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0xC0FFEE)))
    rows = []
    for _ in range(5):
        drop = int(rng.integers(cfg.n_drops))
        scenario = build_scenario(cfg, drop)
        stats = compute_alpha(scenario)
        receiver = (int(rng.integers(cfg.K)), int(rng.integers(cfg.L)))
        precoder = Precoder.MRT if rng.integers(2) == 0 else Precoder.ZF
        omega = [(0,), (1,), (0, 1)][int(rng.integers(3))]
        M = (16, 64)[int(rng.integers(2))]
        rows.extend(verification_rows(scenario, stats, M, precoder, receiver,
                                      omega, 1000, rng))
    expect = tmp_path / "expect.csv"
    write_report_csv(rows, str(expect))
    assert rc == (1 if any(not r.passed for r in rows) else 0)
    assert report == expect.read_text(encoding="utf-8")


def test_evaluate_drop_equals_public_rates(paper_config):
    # the harness shares one budget per (precoder, M) across the schemes;
    # each public sym_rate_* builds its own: the floats must be the same
    config = SweepConfig(scenario=paper_config)
    assert config.m_values == DEFAULT_M_VALUES
    assert config.precoders == ("MRT", "ZF")
    column = {name: c for c, name in enumerate(_columns(config.schemes))}
    for drop in range(5):
        out = _evaluate_drop(config, drop)
        scenario = build_scenario(paper_config, drop)
        stats = compute_alpha(scenario)
        for p, prec in enumerate((Precoder.MRT, Precoder.ZF)):
            for m, M in enumerate(DEFAULT_M_VALUES):
                at = {name: out[p, c, m] for name, c in column.items()}
                assert at["TIN"] == sym_rate_tin(scenario, stats, M, prec, 0)
                assert at["SD"] == sym_rate_sd(scenario, stats, M, prec, 0)
                assert at["SND"] == sym_rate_snd(scenario, stats, M, prec, 0)
                rate, split = sym_rate_pd(scenario, stats, M, prec, 0, grid=config.mu_grid)
                assert (at["PD"], at["PD mu1"], at["PD mu2"]) == (rate, split.mu1, split.mu2)


def test_evaluate_drop_reads_each_budget_once(monkeypatch, paper_config):
    # one unit-M_eff budget build per (drop, precoder); m_eff scales it to
    # every M
    calls = []
    original = schemes.link_budgets

    def counted(*args, **kwargs):
        calls.append((args[2], args[3]))
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes, "link_budgets", counted)
    config = SweepConfig(scenario=paper_config)
    for drop in range(5):
        calls.clear()
        _evaluate_drop(config, drop)
        assert calls == [(Precoder.parse(p), 0) for p in config.precoders]


def test_evaluate_drop_forms_each_bound_once(monkeypatch):
    # one capacity call per precoder, over its whole table; at each M that
    # holds 4 bounds per receiver (TIN's and the three of decoding both
    # cells) and sentinels (0 and +inf) elsewhere: 2 x (2 x 4) = 16 bounds
    # per drop and M, which every scheme then reads
    calls = []
    original = schemes.capacity_bits

    def counted(snr):
        calls.append(snr)
        return original(snr)

    monkeypatch.setattr(schemes, "capacity_bits", counted)
    config = load_sweep_config(str(REFERENCE_CONFIG))
    for drop in range(3):
        calls.clear()
        _evaluate_drop(config, drop)
        assert len(calls) == 2
        bounds = sum(int(np.sum((snr > 0) & np.isfinite(snr))) for snr in calls)
        assert bounds == 16 * len(config.m_values)


# sha256 of the CSV `pcdl sweep --config configs/reference_sweep.cfg` writes.
# A change that moves any bit of it updates this pin and writes up why.
REFERENCE_SWEEP_SHA256 = "de5d4c10976218cf8edf76dd231899a65bb659f521a1c7ac26f4a42d34ca30ad"


def test_reference_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "reference.csv"
    assert cli_main(["sweep", "--config", str(REFERENCE_CONFIG), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_SWEEP_SHA256


def test_cli_seed_override(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 4\nn_drops = 2\nm_values = 16\nmu_grid = 5\n",
                   encoding="utf-8")
    cli_main(["sweep", "--config", str(cfg), "--seed", "1", "--out", str(out1)])
    cli_main(["sweep", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--combos", "0"], "argument --combos: must be >= 1, got 0"),
    (["verify", "--trials", "10"], "argument --trials: must be >= 1000, got 10"),
    (["scenario", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["verify", "--trials", "999"], "argument --trials: must be >= 1000, got 999"),
    (["sweep", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["verify", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["scenario", "--drop", "-1"], "argument --drop: must be >= 0, got -1"),
])
def test_cli_rejects_bad_counts(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("n_drops = 2\nm_values = 32, 64\nbs_total_power_w = nan\n",
     "{path}: bs_total_power_w must be finite, got nan"),
    ("n_drops = 2\nK = 4\nK = 5\n", "{path}:3: duplicate key 'K'"),
    ("n_drops = 2\nradius = 400\n", "{path}: unknown sweep key: radius"),
    ("n_drops = 2\nseed = -3\n", "{path}: seed must be >= 0, got -3"),
    ("L = 3\nK = 4\nn_drops = 2\n",
     "{path}: scheme PD covers L = 2 cells only, got L = 3"),
    ("L = 1\nK = 4\nn_drops = 2\nschemes = TIN, SD\n",
     "{path}: scheme SD needs L >= 2 cells, got L = 1"),
    ("n_drops = 2\nprecoders = MRT\nm_values = 0, 16\n",
     "{path}: every M must be >= 1, got 0"),
    ("n_drops = 2\nprecoders = MRT\nm_values = -4, 16\n",
     "{path}: every M must be >= 1, got -4"),
    ("n_drops = 2\nschemes = TIN, tin\n", "{path}: schemes must not repeat"),
    ("n_drops = 2\nprecoders = MRT, mrt\n", "{path}: precoders must not repeat"),
    ("L = 2.5\nn_drops = 2\n", "{path}: L must be an integer, got '2.5'"),
    ("n_drops = 2\ncell_radius_m = abc\n",
     "{path}: cell_radius_m must be a number, got 'abc'"),
    ("n_drops = 2\npilot_index = first\n",
     "{path}: pilot_index must be an integer, got 'first'"),
    ("n_drops = 2\nmu_grid = 2.5\n", "{path}: mu_grid must be an integer, got '2.5'"),
    ("n_drops = 2\nm_values = 32, abc\n",
     "{path}: m_values: antenna count 'abc' is not an integer"),
])
@pytest.mark.parametrize("command", ["sweep", "verify", "scenario"])
def test_cli_rejects_bad_config_file(tmp_path, capsys, lines, message, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(lines, encoding="utf-8")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"pcdl: error: {message.format(path=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "small.cfg"],
    ["verify", "--config", "small.cfg", "--combos", "1", "--trials", "1000"],
    ["scenario"],
], ids=["sweep", "verify", "scenario"])
@pytest.mark.parametrize("option, path, reason", [
    ("--config", "missing.cfg", "No such file or directory"),
    ("--out", "missing/out.csv", "No such file or directory"),
    ("--out", ".", "Is a directory"),
])
def test_cli_rejects_paths_it_cannot_open(tmp_path, monkeypatch, capsys, argv,
                                          option, path, reason):
    # an unwritable --out fails once the work is done, before anything is printed
    monkeypatch.chdir(tmp_path)
    Path("small.cfg").write_text("K = 4\nn_drops = 2\nm_values = 16\nmu_grid = 5\n",
                                 encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + [option, path])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"pcdl: error: {path}: {reason}\n")


@pytest.mark.parametrize("m, message", [
    ("abc", "--m: antenna count 'abc' is not an integer"),
    ("64,", "--m: antenna count '' is not an integer"),
    ("64.5", "--m: antenna count '64.5' is not an integer"),
    ("64,10", "--m: M = 10 must exceed K + 1 = 16"),
    ("16", "--m: M = 16 must exceed K + 1 = 16"),
])
def test_cli_verify_rejects_bad_m(tmp_path, capsys, m, message):
    # K = 15 from the default config; checked before any sampling
    out = tmp_path / "verify.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--m", m, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pcdl: error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_verify_m_bound_follows_config_k(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 4\nn_drops = 2\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--config", str(cfg), "--m", "5",
                  "--out", str(tmp_path / "verify.csv")])
    assert exc.value.code == 2
    assert "--m: M = 5 must exceed K + 1 = 5" in capsys.readouterr().err


def test_parse_antenna_count():
    assert parse_antenna_count("1000000") == 10 ** 6
    assert parse_antenna_count(" 1e6") == 10 ** 6
    assert parse_antenna_count("123456789012345678901") == 123456789012345678901
    for text in ("32.5", "abc", "", "inf", "nan"):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_antenna_count(text)


def test_sweep_config_rejects_empty_lists():
    for name in ("m_values", "schemes", "precoders"):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            SweepConfig(**{name: ()})


@pytest.mark.parametrize("L, schemes, message", [
    (3, ("TIN", "SD", "SND", "PD"), "scheme PD covers L = 2 cells only, got L = 3"),
    (3, ("TIN", "PD"), "scheme PD covers L = 2 cells only, got L = 3"),
    (1, ("TIN", "SD"), "scheme SD needs L >= 2 cells, got L = 1"),
    (1, ("SND",), "scheme SND needs L >= 2 cells, got L = 1"),
])
def test_sweep_config_rejects_schemes_the_cells_cannot_run(L, schemes, message):
    with pytest.raises(ValueError, match=message):
        SweepConfig(scenario=ScenarioConfig(L=L, K=2), m_values=(8,), schemes=schemes)


@pytest.mark.parametrize("L, schemes", [(1, ("TIN",)), (3, ("TIN", "SD")),
                                        (3, ("TIN", "SD", "SND"))])
def test_sweep_runs_every_scheme_its_cells_allow(L, schemes):
    cfg = SweepConfig(scenario=ScenarioConfig(L=L, K=2, n_drops=2), m_values=(8,),
                      schemes=schemes)
    result = run_sweep(cfg)
    assert len(result.rows) == len(schemes) * 2
    assert all(np.isfinite(r.mean_se) and r.mean_se > 0 for r in result.rows)


def test_package_exports_import():
    namespace = {}
    exec("from pcdl import *", namespace)
    missing = [name for name in pcdl.__all__ if name not in namespace]
    assert not missing
