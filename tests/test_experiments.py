import dataclasses
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from privebc import cli
from privebc.experiments import (
    MASK_TOKENS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    SUMMARY_ID,
    _ba_edges,
    load_experiment_graph,
    mask_name,
    parse_csv,
    prepare_partition,
    relative_error,
    run_degree_sweep,
    run_error_sweep,
    run_mechanism_isolation,
    run_timing,
    select_egos,
    summarize_rows,
)
from privebc.protocol import ALL_MECHS


def _sweep_config(**kw):
    base = dict(synthetic=(60, 2), ego_count=3, epsilons=(0.5, 2.0),
                trials=1, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def _null_elapsed(row: ResultRow) -> ResultRow:
    return dataclasses.replace(row, elapsed_ms=None)


# ----------------------------------------------------------- construction

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(ego_count=1)  # no graph source
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="x", synthetic=(10, 2), ego_count=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2))  # no ego choice
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_ids=("a",), ego_count=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, epsilons=())
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, epsilons=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, clamp_mode="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, mech_masks=())
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, parallel=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_count=1, x_fraction=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 12), ego_count=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=(10, 2), ego_ids=("a",), stratified=True)


def test_dataset_name():
    assert _sweep_config().dataset_name == "synthetic-ba-n60-m2"
    cfg = ExperimentConfig(dataset="/tmp/some/graph.txt", ego_count=1)
    assert cfg.dataset_name == "graph.txt"


def test_mask_names():
    assert mask_name(ALL_MECHS) == "all"
    assert mask_name(frozenset()) == "none"
    assert mask_name(frozenset({"mech2"})) == "mech2"
    assert mask_name(frozenset({"mech1", "mech3"})) == "mech1+mech3"
    for token, mask in MASK_TOKENS.items():
        assert mask_name(mask) == token


def test_relative_error_definition():
    assert relative_error(2.0, 3.0) == 0.5
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(0.0, 1.0) is None
    assert relative_error(-1.0, 1.0) is None


def test_synthetic_graph_is_reproducible():
    g1 = load_experiment_graph(_sweep_config())
    g2 = load_experiment_graph(_sweep_config())
    assert g1.n == g2.n == 60
    assert g1.edge_count == g2.edge_count
    assert list(g1.edges_iter()) == list(g2.edges_iter())


@pytest.mark.parametrize("n, m", [(30, 2), (200, 3), (400, 3), (50, 1), (5000, 10), (10000, 15)])
def test_ba_edges_match_networkx(n, m):
    import networkx as nx
    want = {frozenset(e) for e in nx.barabasi_albert_graph(n, m, seed=0).edges()}
    got = _ba_edges(n, m, 0)
    assert len(got) == len(want) == (n - m - 1) * m + m
    assert {frozenset(e) for e in got} == want


def test_synthetic_graph_is_the_ba_edge_set():
    g = load_experiment_graph(_sweep_config())
    want = {frozenset(map(str, e)) for e in _ba_edges(60, 2, 0)}
    assert {frozenset((g.label_of(i), g.label_of(j))) for i, j in g.edges_iter()} == want


# ------------------------------------------------------------- selection

def test_select_egos_random_is_sorted_and_deterministic():
    cfg = _sweep_config()
    pg = prepare_partition(cfg)
    egos1, w1 = select_egos(pg, cfg)
    egos2, _ = select_egos(pg, cfg)
    assert egos1 == egos2 == sorted(egos1)
    assert len(egos1) == 3 and w1 == []
    assert all(pg.is_x(i) for i in egos1)


def test_select_egos_rejects_oversized_request():
    cfg = _sweep_config(ego_count=200)
    pg = prepare_partition(cfg)
    with pytest.raises(ConfigError):
        select_egos(pg, cfg)


def test_select_egos_stratified_spans_degrees():
    cfg = _sweep_config(ego_count=5, stratified=True)
    pg = prepare_partition(cfg)
    egos, _ = select_egos(pg, cfg)
    assert len(set(egos)) == 5
    degs = [pg.graph.degree(i) for i in egos]
    vx_degs = sorted(pg.graph.degree(int(i)) for i in pg.vx_indices)
    assert min(degs) == vx_degs[0] and max(degs) == vx_degs[-1]


def test_select_egos_explicit_warnings(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("a b\na c\nb c\n")
    for seed in range(60):
        cfg = ExperimentConfig(dataset=path, partition_seed=seed,
                               ego_ids=("zz", "a", "b"))
        pg = prepare_partition(cfg)
        if pg.is_x(pg.graph.index_of("a")) and not pg.is_x(pg.graph.index_of("b")):
            break
    else:
        pytest.fail("no seed split a/b across parties")
    egos, warnings = select_egos(pg, cfg)
    assert egos == [pg.graph.index_of("a")]
    assert any("'zz' unknown" in w for w in warnings)
    assert any("'b' not in party X" in w for w in warnings)


# ------------------------------------------------------------ sweep runs

def test_sweep_row_counts_and_order():
    text = run_error_sweep(_sweep_config())
    comments, rows = parse_csv(text)
    detail = [r for r in rows if not r.is_summary]
    summary = [r for r in rows if r.is_summary]
    assert len(detail) == 3 * 2  # egos x epsilons
    assert len(summary) == 2  # one per epsilon
    assert [r.epsilon for r in detail] == [0.5] * 3 + [2.0] * 3
    assert all(r.mech_mask == "all" for r in rows)
    assert all(r.dataset == "synthetic-ba-n60-m2" for r in rows)
    assert rows[-2:] == summary  # summaries come last
    assert any(c.startswith("priv-ebc sweep results") for c in comments)


def test_sweep_roundtrip_and_summary_arithmetic():
    text = run_error_sweep(_sweep_config(trials=3))
    comments, rows = parse_csv(text)
    detail = [r for r in rows if not r.is_summary]
    summary = [r for r in rows if r.is_summary]
    # the parsed rows regenerate the summary exactly
    assert summarize_rows(detail) == summary
    for s in summary:
        members = [r for r in detail if r.epsilon == s.epsilon]
        errs = [r.relative_error for r in members if r.relative_error is not None]
        assert s.relative_error == pytest.approx(math.fsum(errs) / len(errs))
        assert s.elapsed_ms == statistics.median(r.elapsed_ms for r in members)
        assert s.skipped_terms == sum(r.skipped_terms for r in members)
        assert s.trial is None and s.true_ebc is None


def test_sweep_rerun_identical_except_elapsed():
    cfg = _sweep_config(trials=2)
    c1, r1 = parse_csv(run_error_sweep(cfg))
    c2, r2 = parse_csv(run_error_sweep(cfg))
    assert c1 == c2
    assert [_null_elapsed(r) for r in r1] == [_null_elapsed(r) for r in r2]


def test_sweep_near_exact_at_huge_epsilon():
    text = run_error_sweep(_sweep_config(epsilons=(1e9,), ego_count=2, trials=2))
    _, rows = parse_csv(text)
    errs = [r.relative_error for r in rows
            if not r.is_summary and r.relative_error is not None]
    assert errs and max(errs) < 1e-3


def test_zero_true_ebc_rows(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("a b\na c\nb c\n")
    cfg = ExperimentConfig(dataset=path, x_fraction=1.0, ego_ids=("a",),
                           epsilons=(1.0,), trials=2)
    comments, rows = parse_csv(run_error_sweep(cfg))
    detail = [r for r in rows if not r.is_summary]
    assert all(r.true_ebc == 0.0 for r in detail)
    assert all(r.relative_error is None for r in detail)
    assert all(r.private_ebc == 0.0 for r in detail)  # clique is exact
    summary = [r for r in rows if r.is_summary]
    assert summary[0].relative_error is None  # no usable errors in group
    assert any("degenerate: ego 'a' path no-y-nodes" in c for c in comments)
    assert any("true_ebc=0" in c for c in comments)


def test_csv_structure():
    text = run_error_sweep(_sweep_config())
    assert "\r" not in text
    lines = text.splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == ("dataset,ego_id,ego_degree,epsilon,trial,mech_mask,"
                       "true_ebc,private_ebc,relative_error,elapsed_ms,skipped_terms")
    # every non-comment line below the header parses as a row
    _, rows = parse_csv(text)
    assert len(rows) == len(data) - 1


def test_parse_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")


def test_result_row_field_roundtrip():
    row = ResultRow(dataset="d", ego_id="7", ego_degree=3, epsilon=0.1,
                    trial=0, mech_mask="all", true_ebc=1.5,
                    private_ebc=1.25 + 1e-17, relative_error=None,
                    elapsed_ms=0.4242424242424242, skipped_terms=0)
    assert ResultRow.from_fields(row.to_fields()) == row
    with pytest.raises(ValueError):
        ResultRow.from_fields(["too", "short"])


def test_parallel_matches_serial():
    cfg = _sweep_config(trials=2)
    _, serial = parse_csv(run_error_sweep(cfg))
    _, par = parse_csv(run_error_sweep(dataclasses.replace(cfg, parallel=2)))
    assert [_null_elapsed(r) for r in serial] == [_null_elapsed(r) for r in par]


# -------------------------------------------------------- other families

def test_isolation_none_mask_is_exact():
    cfg = _sweep_config(epsilons=(1.0,),
                        mech_masks=(frozenset(), ALL_MECHS))
    comments, rows = parse_csv(run_mechanism_isolation(cfg))
    none_rows = [r for r in rows if not r.is_summary and r.mech_mask == "none"]
    assert none_rows
    assert all(r.relative_error == 0.0 for r in none_rows
               if r.relative_error is not None)
    assert all(r.private_ebc == pytest.approx(r.true_ebc) for r in none_rows)
    assert any(c.startswith("non-private-masks: none") for c in comments)
    assert any(c.startswith("isolation-medians:") for c in comments)


def test_isolation_rejects_compound_masks():
    cfg = _sweep_config(mech_masks=(frozenset({"mech1", "mech2"}),))
    with pytest.raises(ConfigError):
        run_mechanism_isolation(cfg)


def test_isolation_mask_order_preserved():
    masks = (MASK_TOKENS["mech2"], MASK_TOKENS["mech1"], ALL_MECHS)
    cfg = _sweep_config(epsilons=(1.0,), mech_masks=masks)
    _, rows = parse_csv(run_mechanism_isolation(cfg))
    detail_masks = []
    for r in rows:
        if not r.is_summary and r.mech_mask not in detail_masks:
            detail_masks.append(r.mech_mask)
    assert detail_masks == ["mech2", "mech1", "all"]


def test_timing_rejects_parallel():
    with pytest.raises(ConfigError):
        run_timing(_sweep_config(parallel=2))


def test_timing_rows_have_durations():
    text = run_timing(_sweep_config(epsilons=(1.0,)))
    _, rows = parse_csv(text)
    assert all(r.elapsed_ms is not None and r.elapsed_ms >= 0.0 for r in rows)


def test_degree_sweep_requires_stratified():
    with pytest.raises(ConfigError):
        run_degree_sweep(_sweep_config())


def test_degree_sweep_output():
    cfg = _sweep_config(ego_count=4, stratified=True, epsilons=(1.0,), trials=2)
    comments, rows = parse_csv(run_degree_sweep(cfg))
    detail = [r for r in rows if not r.is_summary]
    assert len({r.ego_id for r in detail}) == 4
    pg = prepare_partition(cfg)
    for r in detail:
        assert r.ego_degree == pg.graph.degree(pg.graph.index_of(r.ego_id))
    assert any(c.startswith("degree-spread:") for c in comments)


# -------------------------------------------------------------------- CLI

def test_cli_sweep_stdout(capsys):
    rc = cli.main(["sweep", "--synthetic", "n=40,m=2", "--egos", "2",
                   "--eps", "1", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    comments, rows = parse_csv(out)
    assert rows and any("priv-ebc sweep results" in c for c in comments)


def test_cli_out_file(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli.main(["sweep", "--synthetic", "n=40,m=2", "--egos", "2",
                   "--eps", "1", "--out", str(out)])
    assert rc == 0
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 3  # 2 detail + 1 summary


@pytest.mark.parametrize("args", [["--egos", "400"],
                                  ["--egos", "2", "--seed", "-1"],
                                  ["--egos", "2", "--partition-seed", "-1"]],
                         ids=["egos", "seed", "partition-seed"])
def test_cli_exit_code_config_error(args, capsys):
    rc = cli.main(["sweep", "--synthetic", "n=40,m=2", *args, "--eps", "1"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_exit_code_missing_graph(capsys):
    rc = cli.main(["sweep", "--graph", "/nonexistent/graph.txt", "--egos", "1",
                   "--eps", "1"])
    assert rc == 3


@pytest.mark.parametrize("data", [b"a b\njustone\n", b"a b\nc \xff\n"],
                         ids=["one-token", "not-utf8"])
def test_cli_exit_code_parse_error(data, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    rc = cli.main(["sweep", "--graph", str(bad), "--egos", "1", "--eps", "1"])
    assert rc == 3
    assert "cannot parse" in capsys.readouterr().err


def test_cli_exit_code_unwritable_out(tmp_path, capsys):
    rc = cli.main(["sweep", "--synthetic", "n=40,m=2", "--egos", "1",
                   "--eps", "1", "--out", str(tmp_path)])
    assert rc == 3


def test_cli_timing_parallel_conflict(capsys):
    rc = cli.main(["timing", "--synthetic", "n=40,m=2", "--egos", "1",
                   "--eps", "1", "--parallel", "2"])
    assert rc == 2


def test_cli_infinite_epsilon_is_config_error(capsys):
    # refused as configuration before any session runs, not a traceback
    rc = cli.main(["sweep", "--synthetic", "n=30,m=2", "--egos", "1", "--eps", "inf"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_cli_isolate_masks(capsys):
    rc = cli.main(["isolate", "--synthetic", "n=40,m=2", "--egos", "2",
                   "--masks", "none,all", "--eps", "1"])
    assert rc == 0
    comments, rows = parse_csv(capsys.readouterr().out)
    seen = {r.mech_mask for r in rows}
    assert seen == {"none", "all"}
    assert any(c.startswith("non-private-masks: none") for c in comments)


def test_cli_rejects_bad_tokens():
    with pytest.raises(SystemExit):
        cli.main(["isolate", "--synthetic", "n=40,m=2", "--egos", "1",
                  "--masks", "bogus"])
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--synthetic", "banana", "--egos", "1"])
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--synthetic", "n=40,m=2", "--egos", "1",
                  "--parallel", "zero"])
    with pytest.raises(SystemExit):
        cli.main(["degree", "--synthetic", "n=40,m=2", "--ego-ids", "a"])


def test_cli_explicit_ego_ids(capsys):
    # synthetic node labels are integers stringified by the loader
    rc = cli.main(["sweep", "--synthetic", "n=40,m=2", "--ego-ids", "0,1,2",
                   "--eps", "1"])
    assert rc == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert {r.ego_id for r in rows if not r.is_summary} <= {"0", "1", "2"}


def test_console_script_entry_point_runs_from_the_checkout():
    # the entry point pyproject.toml declares, imported from src/ without
    # installing the package: it must name an importable callable that
    # prints the CLI's help
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["priv-ebc"].partition(":")
    assert (module, attr) == ("privebc.cli", "main")
    code = (f"import sys, importlib; sys.argv[0] = 'priv-ebc'; "
            f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-c", code, "--help"], capture_output=True,
                         text=True, env=env, cwd=root, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "sweep" in res.stdout and "degree" in res.stdout


@pytest.mark.skipif(shutil.which("priv-ebc") is None, reason="priv-ebc console script not installed")
def test_console_script_installed():
    exe = shutil.which("priv-ebc")
    assert exe is not None
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "sweep" in res.stdout and "degree" in res.stdout
