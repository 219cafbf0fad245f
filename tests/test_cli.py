import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from rmtlab import cli
from rmtlab.cli import (
    RESULTS_HEADER,
    main,
    normalize_campaign,
    parse_campaign,
    run_campaign,
)
from rmtlab.errors import CampaignError
from rmtlab.linalg import read_matrix, write_matrix


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.csv")) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    assert lines[0] == RESULTS_HEADER
    return [ln.split(",") for ln in lines[1:]]


RANK_TAIL_CFG = """\
# half of all 2x2 sign matrices are singular
kind = rank-tail
seed = 31
n = 2
k = 1
trials = 20000
profile = rademacher
"""


# --- parsing ---


def test_parse_minimal_campaign():
    c = parse_campaign(RANK_TAIL_CFG)
    assert c.kind == "rank-tail"
    assert c.experiment_id == "rank-tail"  # defaults to the kind
    assert c.seed == 31
    assert c.get("n") == "2"
    assert c.get("missing", "fallback") == "fallback"


def test_parse_explicit_id_and_comments():
    c = parse_campaign("kind = sample\nid = demo  # trailing comment\nseed = 1\nn = 3\n")
    assert c.experiment_id == "demo"
    assert c.get("n") == "3"


def test_parse_rejects_unknown_key():
    with pytest.raises(CampaignError, match="line 2"):
        parse_campaign("kind = rank-tail\ntrails = 100\nseed = 1\n")


def test_parse_rejects_threads_key():
    with pytest.raises(CampaignError, match="line 3: unknown key 'threads'"):
        parse_campaign("kind = rank-tail\nseed = 1\nthreads = 2\n")


def test_parse_rejects_id_that_escapes_the_output_directory(tmp_path):
    text = "kind = sample\nseed = 1\nn = 2\nid = ../escaped,x\nprofile = rademacher\n"
    with pytest.raises(CampaignError, match="line 4"):
        parse_campaign(text)
    for bad in ("..", "a..b", "a/b", "a b", "a,b"):
        with pytest.raises(CampaignError, match="line 1"):
            parse_campaign(f"id = {bad}\nkind = sample\nseed = 1\n")
    assert parse_campaign("id = run-1.A_b\nkind = sample\nseed = 1\n").experiment_id \
        == "run-1.A_b"
    out = tmp_path / "out"
    assert main(["sample", "--config", write_config(tmp_path, "esc.campaign", text),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "escaped,x.matrix.csv").exists()


def test_parse_rejects_missing_kind_or_seed():
    with pytest.raises(CampaignError, match="kind"):
        parse_campaign("seed = 1\nn = 2\n")
    with pytest.raises(CampaignError, match="seed"):
        parse_campaign("kind = rank-tail\nn = 2\n")


def test_parse_rejects_bad_kind_and_seed():
    with pytest.raises(CampaignError):
        parse_campaign("kind = estimate\nseed = 1\n")
    with pytest.raises(CampaignError):
        parse_campaign("kind = rank-tail\nseed = yes\n")


def test_parse_rejects_non_assignment_line():
    with pytest.raises(CampaignError, match="line 2"):
        parse_campaign("kind = rank-tail\njust some words\nseed = 1\n")


def test_parse_law_rules_and_overrides():
    text = ("kind = sample\nseed = 1\nn = 2\n"
            "law.*.* = rademacher\nlaw.0.1 = gaussian\n")
    c = parse_campaign(text)
    assert len(c.law_rules) == 2
    with pytest.raises(CampaignError):
        parse_campaign("kind = sample\nseed = 1\nlaw.a.b.c = gaussian\n")


def test_parse_last_assignment_wins():
    c = parse_campaign("kind = rank-tail\nseed = 1\nn = 2\nn = 4\n")
    assert c.get("n") == "4"


def test_normalize_round_trips():
    c = parse_campaign(RANK_TAIL_CFG)
    canon = normalize_campaign(c, c.seed)
    assert canon.startswith("# generated by rmtlab")
    again = parse_campaign(canon)
    assert again.kind == c.kind
    assert again.seed == c.seed
    for key in ("n", "k", "trials", "profile"):
        assert again.get(key) == c.get(key)


# --- rank-tail campaigns ---


def test_rank_tail_campaign_end_to_end(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(RANK_TAIL_CFG)
    assert run_campaign(cfg, out_dir=out) == 0

    rows = read_results(out)
    assert len(rows) == 1
    est = float(rows[0][4])
    se = float(rows[0][5])
    assert abs(est - 0.5) <= 4 * se
    assert rows[0][0] == "rank-tail"
    assert rows[0][6] == "20000"
    assert os.path.exists(os.path.join(out, "rank-tail.ranktail.tsv"))
    assert os.path.exists(os.path.join(out, "manifest.txt"))


def test_rank_tail_campaign_is_reproducible(tmp_path):
    cfg_text = RANK_TAIL_CFG.replace("20000", "2000")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_campaign(parse_campaign(cfg_text), out_dir=out1)
    run_campaign(parse_campaign(cfg_text), out_dir=out2)
    for name in ("results.csv", "manifest.txt", "rank-tail.ranktail.tsv"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_manifest_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg_text = RANK_TAIL_CFG.replace("20000", "3000")
    run_campaign(parse_campaign(cfg_text), out_dir=out1)
    with open(os.path.join(out1, "manifest.txt")) as fh:
        manifest = fh.read()
    run_campaign(parse_campaign(manifest), out_dir=out2)
    for name in ("results.csv", "rank-tail.ranktail.tsv", "manifest.txt"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_thread_count_does_not_change_results(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg_text = RANK_TAIL_CFG.replace("20000", "5000")
    run_campaign(parse_campaign(cfg_text), out_dir=out1, n_threads=1)
    run_campaign(parse_campaign(cfg_text), out_dir=out2, n_threads=3)
    with open(os.path.join(out1, "results.csv"), "rb") as f1, \
            open(os.path.join(out2, "results.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_exact_rank_tail_campaign(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(
        "kind = rank-tail\nseed = 1\nn = 3\nk = 1,2\nmethod = exact\n")
    assert run_campaign(cfg, out_dir=out) == 0
    rows = read_results(out)
    assert float(rows[0][4]) == 0.625
    assert float(rows[1][4]) == 0.0625
    assert all(r[5] == "0.0" for r in rows)
    assert all(r[6] == "512" for r in rows)


# The table of keys per kind refuses these when the campaign is parsed.
_EXACT_PARSE_ERRORS = [
    ("profile = rademacher\nlaw.0.0 = gaussian\n", "line 7: method = exact"),
    ("law.*.* = rademacher\nprofile = uniform\n", "line 6: method = exact"),
    ("law.*.* = rademacher\n", "line 6: method = exact"),
    ("trials = 5\n", "line 6: method = exact takes no trials key"),
    ("tol = 0.5\n", "line 6: unknown key 'tol'"),
    ("gamma = 0.3\n", "line 6: method = exact takes no gamma key"),
]


@pytest.mark.parametrize("extra, message", _EXACT_PARSE_ERRORS + [
    ("profile = gaussian\n", "line 6: method = exact enumerates rademacher"),
    ("k = 4\n", "line 6: k = 4 lies outside \\[0, 3\\]"),
    ("k = -1,1\n", "line 6: k = -1 lies outside \\[0, 3\\]"),
    ("k = ,\n", "line 6: key 'k' lists no values"),
    ("method = exhaustive\n", "line 6: method must be mc or exact, got 'exhaustive'"),
    ("method = mc\nk = 4\n", "line 7: k = 4 lies outside \\[0, 3\\]"),
])
def test_exact_method_rejects_other_profiles(tmp_path, capsys, extra, message):
    text = "kind = rank-tail\nseed = 1\nn = 3\nk = 1\nmethod = exact\n" + extra
    if (extra, message) in _EXACT_PARSE_ERRORS:
        with pytest.raises(CampaignError, match=message):
            parse_campaign(text)
        return
    out = str(tmp_path / "out")
    assert run_campaign(parse_campaign(text), out_dir=out) == 2
    assert re.search(message, capsys.readouterr().err)
    assert read_results(out) == []


def test_exact_method_refuses_large_n(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = parse_campaign("kind = rank-tail\nseed = 1\nn = 7\nk = 1\nmethod = exact\n")
    assert run_campaign(cfg, out_dir=out) == 2
    assert "rmtlab:" in capsys.readouterr().err
    # partial flush: header-only results plus the manifest survive the failure
    assert read_results(out) == []
    assert os.path.exists(os.path.join(out, "manifest.txt"))


# --- other kinds, one smoke each ---


def test_sample_campaign_writes_matrix(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign("kind = sample\nid = m1\nseed = 5\nrows = 3\ncols = 4\n"
                         "profile = rademacher\n")
    assert run_campaign(cfg, out_dir=out) == 0
    mat = read_matrix(os.path.join(out, "m1.matrix.csv"))
    assert mat.shape == (3, 4)
    assert set(np.unique(mat)) <= {-1.0, 1.0}
    rows = read_results(out)
    assert float(rows[0][4]) >= 0.0  # smallest singular value


def test_singular_tail_campaign(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(
        "kind = singular-tail\nseed = 9\nn = 4\nk = 2\nepsilon = 0.0,0.5,1.0\n"
        "trials = 2000\nprofile = rademacher\n")
    assert run_campaign(cfg, out_dir=out) == 0
    rows = read_results(out)
    assert len(rows) == 3
    estimates = [float(r[4]) for r in rows]
    assert estimates == sorted(estimates)
    assert os.path.exists(os.path.join(out, "singular-tail.tail.tsv"))
    assert os.path.exists(os.path.join(out, "singular-tail.bound.tsv"))


def test_rlcd_campaign_brackets_scalar_landscape(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(
        "kind = rlcd\nseed = 2\nn = 1\nprofile = rademacher\nbasis = axis 1\n"
        "L = 1.0\nalpha = 0.5\nradius_cap = 3.0\nresolution = 0.001\n")
    assert run_campaign(cfg, out_dir=out) == 0
    with open(os.path.join(out, "rlcd.rlcd.csv")) as fh:
        header, data = fh.read().splitlines()
    assert header == "lower,upper,note"
    lower, upper, note = data.split(",")
    assert float(lower) == pytest.approx(2.0, abs=1e-9)
    assert float(upper) == pytest.approx(2.001, abs=1e-9)
    assert note == ""
    assert os.path.exists(os.path.join(out, "rlcd.trace.tsv"))


RLCD_CFG = ("kind = rlcd\nseed = 2\nn = 3\nprofile = rademacher\n"
            "L = 1.0\nalpha = 0.5\nradius_cap = 3.0\nresolution = 0.5\n")


@pytest.mark.parametrize("line, message", [
    ("basis = axis 9", "in \\[1, 3\\], got '9'"),
    ("basis = axis 0", "in \\[1, 3\\], got '0'"),
    ("basis = axis two", "in \\[1, 3\\], got 'two'"),
    ("basis = axis 1.5", "in \\[1, 3\\], got '1.5'"),
    ("basis = corner 1", "basis must be"),
    ("columns = 0,x", "comma list of integers"),
    ("columns = 0.5", "comma list of integers"),
    ("columns = 0,7", "column index 7 out of range for n = 3"),
    ("directions = -3", "key 'directions' must be at least 0, got '-3'"),
])
def test_rlcd_campaign_rejects_bad_basis_and_columns(tmp_path, capsys, line, message):
    cfg = parse_campaign(RLCD_CFG + line + "\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "line 9:" in err
    assert re.search(message, err)


def test_rlcd_campaign_with_zero_directions_searches_the_axes(tmp_path):
    cfg = parse_campaign(RLCD_CFG + "basis = axis 2\ndirections = 0\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 0


@pytest.mark.parametrize("text, shape, message", [
    ("kind = round\nseed = 1\nn = 12\nvectors_file = {path}\ndelta = 0.1\nrho = 0.3\n"
     "profile = rademacher\n", (5, 1), "line 4: vectors_file '{path}' has 5 rows, expected n = 12"),
    (RLCD_CFG + "basis = file {path}\n", (5, 2),
     "line 9: basis file '{path}' has 2 columns, expected n = 3"),
    (RLCD_CFG + "basis = file {path}\n", (0, 3), "line 9: basis file '{path}' has no rows"),
    ("kind = round\nseed = 1\nn = 12\nvectors_file = {path}\ndelta = 0.1\nrho = 0.3\n"
     "profile = rademacher\n", (12, 0), "line 4: vectors_file '{path}' has no columns"),
    ("kind = ri-select\nseed = 1\nmatrix_file = {path}\nl = 1\n", (0, 5),
     "line 3: matrix_file '{path}' has no rows"),
    ("kind = ri-select\nseed = 1\nmatrix_file = {path}\nl = 1\n", (5, 3),
     "line 3: matrix_file '{path}' has 5 rows and 3 columns, expected rows <= columns"),
], ids=["round", "rlcd", "rlcd-no-rows", "round-no-columns", "ri-select-no-rows",
        "ri-select-tall"])
def test_matrix_file_shape_errors_name_their_line(tmp_path, capsys, text, shape, message):
    path = str(tmp_path / "matrix.csv")
    write_matrix(path, np.ones(shape))
    cfg = parse_campaign(text.format(path=path))
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert message.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (RLCD_CFG + "basis = file {path}\n", "line 9: basis file '{path}' has non-finite entries"),
    ("kind = round\nseed = 1\nn = 3\nvectors_file = {path}\ndelta = 0.1\nrho = 0.3\n"
     "profile = rademacher\n", "line 4: vectors_file '{path}' has non-finite entries"),
    ("kind = ri-select\nseed = 1\nmatrix_file = {path}\nl = 1\n",
     "line 3: matrix_file '{path}' has non-finite entries"),
], ids=["rlcd-basis", "round-vectors", "ri-select-matrix"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_matrix_file_entries_name_their_line(tmp_path, capsys, text, message, bad):
    path = str(tmp_path / "matrix.csv")
    mat = np.eye(3)
    mat[1, 2] = bad
    write_matrix(path, mat)
    cfg = parse_campaign(text.format(path=path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"rmtlab: {message.format(path=path)}\n"


@pytest.mark.parametrize("text", [
    RLCD_CFG + "basis = file {path}\n",
    "kind = round\nseed = 1\nn = 3\nvectors_file = {path}\ndelta = 0.1\nrho = 0.3\n"
    "profile = rademacher\n",
    "kind = ri-select\nseed = 1\nmatrix_file = {path}\nl = 1\n",
], ids=["rlcd-basis", "round-vectors", "ri-select-matrix"])
def test_non_numeric_matrix_file_cells_name_the_file_line(tmp_path, capsys, text):
    path = str(tmp_path / "matrix.csv")
    Path(path).write_text("3,3\n1,0,0\n0,1,x\n0,0,1\n")
    cfg = parse_campaign(text.format(path=path))
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (f"rmtlab: {path}:3: could not convert string to "
                                       "float: 'x'\n")


def test_profile_rule_errors_name_their_line(tmp_path, capsys):
    cfg = parse_campaign("kind = sample\nseed = 1\nn = 2\nprofile = rademacher\n"
                         "law.0.1 = gaussian\nlaw.1.* = cauchy\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "a")) == 2
    assert "line 6: unknown law spec 'cauchy'" in capsys.readouterr().err
    cfg = parse_campaign("kind = sample\nseed = 1\nn = 2\nprofile = lognormal\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "b")) == 2
    assert "line 4: unknown law spec 'lognormal'" in capsys.readouterr().err


def test_non_finite_discrete_spec_names_its_first_line(tmp_path, capsys):
    spec = "discrete(nan:0.5,1:0.5)"
    cfg = parse_campaign(f"kind = sample\nseed = 1\nn = 3\nprofile = rademacher\n"
                         f"law.0.* = {spec}\nlaw.1.* = gaussian\nlaw.2.* = {spec}\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert "line 5: discrete law needs finite atoms and weights, got atom nan" in \
        capsys.readouterr().err


def test_profile_parses_each_distinct_spec_once(monkeypatch):
    rules = ["law.*.1 = gaussian", "law.2.* = sparse-bernoulli(0.3)", "law.*.4 = gaussian",
             "law.0.0 = discrete(0:0.5,1:0.25,3:0.25)", "law.4.* = sparse-bernoulli(0.3)",
             "law.3.3 = discrete(0:0.5,1:0.25,3:0.25)", "law.1.* = rademacher"]
    cfg = parse_campaign("kind = sample\nseed = 1\nn = 5\nk_cap = 3\nprofile = rademacher\n"
                         + "".join(rule + "\n" for rule in rules))
    parsed = []

    real_parse = cli.parse_law_spec

    def counting(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(cli, "parse_law_spec", counting)
    profile = cli._build_profile(cfg, 5, 5)
    assert sorted(parsed) == sorted({"rademacher", "gaussian", "sparse-bernoulli(0.3)",
                                     "discrete(0:0.5,1:0.25,3:0.25)"})
    rule_by_rule = [("*", "*", real_parse("rademacher"))]
    for rule in rules:
        key, _, value = rule.partition(" = ")
        rule_by_rule.append((*cli.parse_rule_key(key), real_parse(value)))
    want = cli.profile_from_rules(rule_by_rule, 5, 5, 3.0)
    assert profile == want and profile.codes.tobytes() == want.codes.tobytes()


@pytest.mark.parametrize("rule, message", [
    ("law.5.0 = gaussian", "profile rule row 5 out of range for 3 rows"),
    ("law.-1.0 = gaussian", "profile rule row -1 out of range for 3 rows"),
    ("law.0.3 = gaussian", "profile rule column 3 out of range for 3 columns"),
    ("law.*.-2 = gaussian", "profile rule column -2 out of range for 3 columns"),
])
def test_profile_rule_index_errors_name_their_line(tmp_path, capsys, rule, message):
    cfg = parse_campaign(f"kind = sample\nseed = 1\nn = 3\nprofile = rademacher\n{rule}\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert f"line 5: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("k_cap = 1.3\nlaw.0.* = sparse-bernoulli(0.1)\n",
     "line 6: sparse-bernoulli(0.1) declares psi2 2.04214 above k_cap 1.3"),
    ("k_cap = 1.3\nlaw.0.* = sparse-bernoulli(0.1)\nlaw.0.* = rademacher\n",
     "line 6: sparse-bernoulli(0.1) declares psi2 2.04214 above k_cap 1.3"),
    ("k_cap = -1\n", "line 5: k_cap must be positive, got -1.0"),
    ("k_cap = nan\n", "line 5: k_cap must be positive, got nan"),
])
def test_k_cap_errors_name_their_line(tmp_path, capsys, lines, message):
    cfg = parse_campaign("kind = sample\nseed = 1\nn = 3\nprofile = rademacher\n" + lines)
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


def test_round_campaign_writes_report(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(
        "kind = round\nseed = 3\nn = 30\nl = 2\ndelta = 0.05\nrho = 0.3\n"
        "profile = rademacher\nmc_trials = 200\n")
    assert run_campaign(cfg, out_dir=out) == 0
    with open(os.path.join(out, "round.rounding_report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "name,measured,threshold,pass"
    assert len(lines) == 8
    rows = read_results(out)
    assert 0.0 <= float(rows[0][4]) <= 1.0  # fraction of passed checks


def test_ri_select_campaign(tmp_path):
    out = str(tmp_path / "out")
    matrix_path = tmp_path / "cols.csv"
    from rmtlab.linalg import write_matrix

    write_matrix(matrix_path, np.hstack([np.eye(3), np.eye(3)]))
    cfg = parse_campaign(
        f"kind = ri-select\nseed = 4\nmatrix_file = {matrix_path}\nl = 1\n")
    assert run_campaign(cfg, out_dir=out) == 0
    with open(os.path.join(out, "ri-select.certificates.csv")) as fh:
        header, data = fh.read().splitlines()
    assert header == "indices,s_l,rhs,ratio"
    assert data.split(",")[0] == "0"
    assert float(data.split(",")[3]) == pytest.approx(1.0 / math.sqrt(3.0))


def test_tensorize_campaign(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign("kind = tensorize\nseed = 6\nn = 2\nt = 0.25,0.8\n")
    assert run_campaign(cfg, out_dir=out) == 0
    rows = read_results(out)
    # P(U1 + U2 <= 0.5) = 1/8 and P(U1 + U2 <= 1.6) = 1 - 0.4^2 / 2, both exact
    assert [float(r[4]) for r in rows] == [0.125, 0.92]
    assert [(r[5], r[6]) for r in rows] == [("", "1"), ("", "1")]
    assert os.path.exists(os.path.join(out, "tensorize.exact.tsv"))
    assert os.path.exists(os.path.join(out, "tensorize.bound.tsv"))


def test_norms_campaign(tmp_path):
    out = str(tmp_path / "out")
    cfg = parse_campaign(
        "kind = norms\nseed = 7\nprofile = rademacher\nn = 4,8\ntrials = 100\n")
    assert run_campaign(cfg, out_dir=out) == 0
    rows = read_results(out)
    ids = [r[0] for r in rows]
    assert ids == ["norms.op", "norms.hs", "norms.op", "norms.hs"]
    assert os.path.exists(os.path.join(out, "norms.opnorm.tsv"))
    assert os.path.exists(os.path.join(out, "norms.hsnorm.tsv"))


def test_norms_sizes_get_distinct_master_seeds(tmp_path, monkeypatch):
    norm_check, configs = cli.norm_concentration_mc, []

    def recording_check(config, c_op, c_hs):
        configs.append(config)
        return norm_check(config, c_op, c_hs)

    monkeypatch.setattr(cli, "norm_concentration_mc", recording_check)
    cfg = parse_campaign("kind = norms\nseed = 7\nprofile = uniform\nn = 4,8,8,16\ntrials = 20\n")
    assert run_campaign(cfg, out_dir=str(tmp_path / "out")) == 0
    assert [c.n for c in configs] == [4, 8, 8, 16]
    assert len({c.master_seed for c in configs}) == 4


@pytest.mark.parametrize("text, message", [
    ("kind = norms\nseed = 7\nprofile = rademacher\nn = 3\ntrials = 0\n",
     "line 5: key 'trials' must be at least 1, got '0'"),
    ("kind = round\nseed = 1\nn = 4\nl = 0\ndelta = 0.1\nrho = 0.3\nprofile = rademacher\n",
     "line 4: key 'l' must be at least 1, got '0'"),
    ("kind = round\nseed = 1\nn = 4\nl = -2\ndelta = 0.1\nrho = 0.3\nprofile = rademacher\n",
     "line 4: key 'l' must be at least 1, got '-2'"),
    ("kind = rank-tail\nseed = 1\nn = 3\nk = 1\ntrials = 0\nprofile = rademacher\n",
     "line 5: key 'trials' must be at least 1, got '0'"),
    ("kind = sample\nseed = 1\nn = -1\nprofile = rademacher\n",
     "line 3: key 'n' must be at least 1, got '-1'"),
    ("kind = sample\nseed = 1\nrows = 2\ncols = 0\nprofile = rademacher\n",
     "line 4: key 'cols' must be at least 1, got '0'"),
    ("kind = rank-tail\nseed = 1\nn = 0\nk = 0\ntrials = 5\nprofile = rademacher\n",
     "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = rank-tail\nseed = 1\nn = 0\nk = 0\nmethod = exact\n",
     "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = singular-tail\nseed = 1\nn = 0\nk = 1\nepsilon = 0.5\ntrials = 5\n"
     "profile = rademacher\n", "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = rlcd\nseed = 1\nn = 0\nL = 1\nalpha = 0.5\nradius_cap = 2\nresolution = 0.5\n"
     "profile = rademacher\n", "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = round\nseed = 1\nn = 0\ndelta = 0.1\nrho = 0.3\nprofile = rademacher\n",
     "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = ri-select\nseed = 1\nrows = 3\ncols = 0\nl = 1\nprofile = rademacher\n",
     "line 4: key 'cols' must be at least 1, got '0'"),
    ("kind = tensorize\nseed = 1\nn = 0\nt = 0.5\n",
     "line 3: key 'n' must be at least 1, got '0'"),
    ("kind = norms\nseed = 1\nprofile = rademacher\nn = 0,4\ntrials = 5\n",
     "line 4: key 'n' must list sizes of at least 1, got 0"),
    ("kind = round\nseed = 1\nn = 4\ndelta = 0.1\nrho = 0.3\nmc_trials = 0\nprofile = gaussian\n",
     "line 6: key 'mc_trials' must be at least 1, got '0'"),
], ids=["norms-trials", "round-l-zero", "round-l-negative",
        "rank-tail-trials", "sample-n", "sample-cols", "rank-tail-n", "rank-tail-exact-n",
        "singular-tail-n", "rlcd-n", "round-n", "ri-select-cols", "tensorize-n", "norms-n",
        "round-mc-trials"])
def test_counts_below_one_fail_with_their_line(tmp_path, capsys, text, message):
    out = str(tmp_path / "out")
    assert run_campaign(parse_campaign(text), out_dir=out) == 2
    assert message in capsys.readouterr().err
    assert read_results(out) == []


@pytest.mark.parametrize("extra, message", [
    ("k = 7\n", "line 9: key 'k' must lie in [1, 4], got '7'"),
    ("k = 0\n", "line 9: key 'k' must lie in [1, 4], got '0'"),
    ("epsilon = -0.1\n", "line 9: key 'epsilon' must lie in [0, inf), got '-0.1'"),
    ("epsilon = 0,nan\n", "line 9: key 'epsilon' must lie in [0, inf), got '0,nan'"),
    ("gamma = 0.7\n", "line 9: key 'gamma' must lie in (0, 1/2), got '0.7'"),
    ("gamma = 0\n", "line 9: key 'gamma' must lie in (0, 1/2), got '0'"),
    ("comparison_c = nan\n", "line 9: key 'comparison_c' must lie in (0, inf), got 'nan'"),
    ("comparison_c = -1\n", "line 9: key 'comparison_c' must lie in (0, inf), got '-1'"),
])
def test_singular_tail_errors_name_their_line(tmp_path, capsys, extra, message):
    text = ("kind = singular-tail\nseed = 1\nn = 4\nk = 2\nepsilon = 0.1\ntrials = 5\n"
            "profile = rademacher\ngamma = 0.25\n" + extra)
    out = str(tmp_path / "out")
    assert run_campaign(parse_campaign(text), out_dir=out) == 2
    assert message in capsys.readouterr().err
    assert read_results(out) == []


ROUND_CFG = "kind = round\nseed = 1\nn = 4\ndelta = 0.1\nrho = 0.3\nprofile = rademacher\n"
RI_CFG = "kind = ri-select\nseed = 1\nrows = 3\ncols = 5\nprofile = rademacher\n"
TENSORIZE_CFG = "kind = tensorize\nseed = 1\n"
NORMS_CFG = "kind = norms\nseed = 1\nprofile = rademacher\nn = 3\ntrials = 5\n"


@pytest.mark.parametrize("text, message", [
    (RLCD_CFG + "mc_trials = 50\n", "line 9: key 'mc_trials' must lie in [100, inf), got '50'"),
    (RLCD_CFG + "alpha = 1.5\n", "line 9: key 'alpha' must lie in (0, 1), got '1.5'"),
    (RLCD_CFG + "L = nan\n", "line 9: key 'L' must lie in (0, inf), got 'nan'"),
    (RLCD_CFG + "radius_cap = -1\n", "line 9: key 'radius_cap' must lie in (0, inf), got '-1'"),
    (RLCD_CFG + "radius_cap = inf\n", "line 9: key 'radius_cap' must lie in (0, inf), got 'inf'"),
    (RLCD_CFG + "resolution = 4\n", "line 9: key 'resolution' must lie in (0, 3.0), got '4'"),
    (ROUND_CFG + "delta = -0.1\n", "line 7: key 'delta' must lie in (0, inf), got '-0.1'"),
    (ROUND_CFG + "rho = 1\n", "line 7: key 'rho' must lie in (0, 1), got '1'"),
    (ROUND_CFG + "tau = 0\n", "line 7: key 'tau' must lie in (0, 1), got '0'"),
    (ROUND_CFG + "r = 0\n", "line 7: key 'r' must lie in (0, inf), got '0'"),
    (ROUND_CFG + "c_op = -2\n", "line 7: key 'c_op' must lie in (0, inf), got '-2'"),
    (ROUND_CFG + "vector_scale = 0\n",
     "line 7: key 'vector_scale' must be finite and nonzero, got '0'"),
    (ROUND_CFG + "vector_scale = nan\n",
     "line 7: key 'vector_scale' must be finite and nonzero, got 'nan'"),
    (ROUND_CFG + "vector_scale = inf\n",
     "line 7: key 'vector_scale' must be finite and nonzero, got 'inf'"),
    (RI_CFG + "l = 7\n", "line 6: key 'l' must lie in [1, 2], got '7'"),
    (RI_CFG + "l = 0\n", "line 6: key 'l' must lie in [1, 2], got '0'"),
    (RI_CFG.replace("rows = 3\ncols = 5", "rows = 5\ncols = 3") + "l = 2\n",
     "line 4: key 'cols' must lie in [5, inf), got '3'"),
    (TENSORIZE_CFG + "n = 25\nt = 0.5\n", "line 3: key 'n' must lie in [1, 20], got '25'"),
    (TENSORIZE_CFG + "n = 3\nt = 0.5,1.5\n", "line 4: key 't' must lie in (0, 1], got '0.5,1.5'"),
    (TENSORIZE_CFG + "n = 3\nt = nan\n", "line 4: key 't' must lie in (0, 1], got 'nan'"),
    (NORMS_CFG + "c_op = -1\n", "line 6: key 'c_op' must lie in (0, inf), got '-1'"),
    (NORMS_CFG + "c_hs = nan\n", "line 6: key 'c_hs' must lie in (0, inf), got 'nan'"),
    ("kind = rank-tail\nseed = 1\nn = 7\nk = 1\nmethod = exact\n",
     "line 3: rank histogram of 7 x 7 sign matrices is infeasible"),
    (RI_CFG + "l = 1\nmode = fancy\n",
     "line 7: mode must be 'exhaustive' or 'greedy', got 'fancy'"),
    (RI_CFG.replace("rows = 3\ncols = 5", "rows = 11\ncols = 40") + "l = 10\n",
     "line 6: exhaustive search over C(40,10) = 847660528 subsets exceeds the 1000000 budget"),
    (NORMS_CFG.replace("rademacher", "gaussian"),
     "line 3: the operator-norm check needs bounded entry laws"),
], ids=["rlcd-mc-trials", "rlcd-alpha", "rlcd-L", "rlcd-radius-cap", "rlcd-radius-cap-inf",
        "rlcd-resolution",
        "round-delta", "round-rho", "round-tau", "round-r", "round-c-op",
        "round-vector-scale-zero", "round-vector-scale-nan", "round-vector-scale-inf",
        "ri-select-l-big",
        "ri-select-l-zero", "ri-select-tall", "tensorize-n", "tensorize-t", "tensorize-t-nan",
        "norms-c-op", "norms-c-hs-nan", "rank-tail-exact-n-7", "ri-select-mode",
        "ri-select-budget", "norms-unbounded"])
def test_parameter_ranges_name_their_line(tmp_path, capsys, text, message):
    out = str(tmp_path / "out")
    assert run_campaign(parse_campaign(text), out_dir=out) == 2
    assert message in capsys.readouterr().err
    assert read_results(out) == []


def test_negative_vector_scale_runs(tmp_path):
    out = str(tmp_path / "out")
    assert run_campaign(parse_campaign(ROUND_CFG + "vector_scale = -2\n"), out_dir=out) == 0
    assert len(read_results(out)) == 1


def test_norms_campaign_rejects_law_rules():
    with pytest.raises(CampaignError, match="line 4: kind = norms takes no law"):
        parse_campaign("kind = norms\nseed = 7\nprofile = rademacher\nlaw.0.0 = gaussian\n"
                       "n = 4\ntrials = 50\n")


# --- keys per kind ---

# A value for every key some kind reads; "law" is the law of a law.0.0 rule.
_KEY_VALUES = {
    "n": "3", "rows": "2", "cols": "3", "k": "2", "epsilon": "0.1,0.5", "gamma": "0.3",
    "trials": "20", "method": "mc", "k_cap": "2.5", "profile": "rademacher",
    "law": "gaussian", "L": "1.0", "alpha": "0.5", "radius_cap": "2.0", "resolution": "0.5",
    "mc_trials": "100", "basis": "axis 1", "columns": "0,1", "directions": "4", "l": "1",
    "delta": "0.05", "rho": "0.3", "tau": "0.5", "r": "0.05", "c_op": "3.0", "c_hs": "1.0",
    "comparison_c": "2.0", "t": "0.25,0.8", "mode": "exhaustive", "vector_scale": "2.0",
}
_ROWS = list(cli._KIND_KEYS)


def _row_id(row):
    kind, branch = row
    return f"{kind} with {branch}" if branch else kind


def _row_campaign(tmp_path, row):
    """Campaign text setting every key of the row, one line each after kind and seed."""
    kind, branch = row
    values = dict(_KEY_VALUES, matrix_file=str(tmp_path / "matrix.csv"),
                  vectors_file=str(tmp_path / "vectors.csv"))
    write_matrix(values["matrix_file"], np.arange(12.0).reshape(3, 4) % 5 - 2)
    write_matrix(values["vectors_file"], np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]]))
    if " = " in branch:
        key, _, values[key] = branch.partition(" = ")
    if kind == "norms":
        values["n"] = "3,4"
    lines = [f"kind = {kind}", "seed = 5"]
    lines += [f"law.0.0 = {values[key]}" if key == "law" else f"{key} = {values[key]}"
              for key in cli._KIND_KEYS[row].split()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("row", _ROWS, ids=_row_id)
def test_kind_refuses_keys_outside_its_row(tmp_path, row):
    text = _row_campaign(tmp_path, row)
    parse_campaign(text)
    line = len(text.splitlines()) + 1
    reads = set(cli._KIND_KEYS[row].split())
    # a key that selects another row of the same kind is covered below
    selectors = {branch.partition(" = ")[0] for kind, branch in _ROWS if kind == row[0]}
    for key in sorted(cli._KNOWN_KEYS - reads - selectors - {"kind", "id", "seed"}):
        with pytest.raises(CampaignError, match=f"^line {line}: .* takes no {key} key$"):
            parse_campaign(text + f"{key} = 1\n")
    if "law" not in reads:
        with pytest.raises(CampaignError, match=f"^line {line}: .* takes no law"):
            parse_campaign(text + "law.0.0 = gaussian\n")


@pytest.mark.parametrize("text, message", [
    ("kind = singular-tail\nseed = 1\nn = 3\nk = 2\nepsilon = 0.1\ntrials = 5\n"
     "method = exact\nprofile = rademacher\n", "line 7: kind = singular-tail takes no method"),
    ("kind = sample\nseed = 1\nn = 3\ncols = 5\nprofile = rademacher\n",
     "line 4: kind = sample without rows takes no cols key"),
    ("kind = tensorize\nseed = 1\nn = 2\nt = 0.5\nprofile = cauchy\n",
     "line 5: kind = tensorize takes no profile key"),
    ("kind = rank-tail\nseed = 1\nn = 3\nk = 1\ntrials = 5\ngamma = 0.3\n",
     "line 6: kind = rank-tail takes no gamma key"),
    ("kind = rank-tail\nseed = 1\nn = 3\nk = 1\nmethod = exact\nk_cap = 5\nepsilon = 0.5\n"
     "comparison_c = 3\n", "line 6: method = exact takes no k_cap key"),
    ("kind = sample\nseed = 1\nn = 3\nprofile = rademacher\ntrials = 100\nmethod = exact\n",
     "line 5: kind = sample without rows takes no trials key"),
    ("kind = sample\nseed = 1\nn = 3\nrows = 2\nprofile = rademacher\n",
     "line 3: kind = sample with rows takes no n key"),
    ("kind = round\nseed = 1\nn = 3\nl = 2\nvectors_file = v.csv\ndelta = 0.1\nrho = 0.3\n",
     "line 4: kind = round with vectors_file takes no l key"),
    ("kind = ri-select\nseed = 1\nrows = 2\ncols = 3\nmatrix_file = m.csv\nl = 1\n",
     "line 3: kind = ri-select with matrix_file takes no rows key"),
])
def test_parse_refuses_keys_the_kind_does_not_read(text, message):
    with pytest.raises(CampaignError, match=message):
        parse_campaign(text)


def test_readme_key_table_is_the_kind_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("| kind, branch | keys |\n|---|---|\n", 1)[1].splitlines()
    table = []
    for line in lines[:lines.index("")]:
        head, keys = line.strip("|").split("|")
        kind, *branch = re.findall(r"`([^`]+)`", head)
        table.append(((kind, "".join(branch)), " ".join(re.findall(r"`([^`]+)`", keys))))
    assert table == list(cli._KIND_KEYS.items())


class _ReadLog(dict):
    """Campaign values that note each key looked up."""

    def __init__(self, values, seen):
        super().__init__(values)
        self.seen = seen

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


class _RuleLog(list):
    """Law rules that note, as the key "law", that they were read."""

    def __init__(self, rules, seen):
        super().__init__(rules)
        self.seen = seen

    def __iter__(self):
        self.seen.add("law")
        return super().__iter__()


@pytest.mark.parametrize("row", _ROWS, ids=_row_id)
def test_runner_reads_every_key_of_its_row(tmp_path, monkeypatch, row):
    campaign = parse_campaign(_row_campaign(tmp_path, row))
    seen: set = set()
    write_manifest = cli.normalize_campaign

    def manifest_then_log(c, seed):
        text = write_manifest(c, seed)
        seen.clear()  # the manifest copies every key; only the runner's reads count
        return text

    monkeypatch.setattr(cli, "normalize_campaign", manifest_then_log)
    campaign.values = _ReadLog(campaign.values, seen)
    campaign.law_rules = _RuleLog(campaign.law_rules, seen)
    assert run_campaign(campaign, out_dir=str(tmp_path / "out")) == 0
    assert sorted(set(cli._KIND_KEYS[row].split()) - seen) == []


# --- output files ---


def _files(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("row", _ROWS, ids=_row_id)
def test_outputs_replace_links_instead_of_writing_through_them(tmp_path, row):
    campaign = parse_campaign(_row_campaign(tmp_path, row))
    assert run_campaign(campaign, out_dir=str(tmp_path / "fresh")) == 0
    names = sorted(os.listdir(tmp_path / "fresh"))
    listed = {f"{row[0]}.{suffix}" for suffix in cli._KIND_ARTIFACTS[row[0]].split()}
    assert set(names) - {"manifest.txt", "results.csv"} <= listed  # what a rerun removes
    out = tmp_path / "out"
    out.mkdir()
    for i, name in enumerate(names):
        (tmp_path / f"outside{i}.txt").write_bytes(b"keep\n")
        os.symlink(f"../outside{i}.txt", out / name)
    assert run_campaign(campaign, out_dir=str(out)) == 0
    for i, name in enumerate(names):
        assert (tmp_path / f"outside{i}.txt").read_bytes() == b"keep\n", name
        assert not (out / name).is_symlink() and (out / name).is_file(), name
    assert _files(out) == _files(tmp_path / "fresh")


def test_rerun_leaves_a_hard_link_to_the_old_results(tmp_path):
    out = tmp_path / "out"
    campaign = parse_campaign(RANK_TAIL_CFG.replace("20000", "500"))
    run_campaign(campaign, out_dir=str(out))
    old = (out / "results.csv").read_bytes()
    os.link(out / "results.csv", tmp_path / "kept.csv")
    campaign.seed = 32
    run_campaign(campaign, out_dir=str(out))
    assert (tmp_path / "kept.csv").read_bytes() == old
    assert (out / "results.csv").read_bytes() != old
    assert os.stat(tmp_path / "kept.csv").st_nlink == 1


@pytest.mark.parametrize("row", _ROWS, ids=_row_id)
def test_rerun_into_the_same_directory_writes_a_fresh_run(tmp_path, row):
    campaign = parse_campaign(_row_campaign(tmp_path, row))
    rerun = str(tmp_path / "rerun")
    campaign.seed = 6  # a different first run, so the rerun replaces other bytes
    assert run_campaign(campaign, out_dir=rerun) == 0
    campaign.seed = 5
    assert run_campaign(campaign, out_dir=rerun) == 0
    assert run_campaign(campaign, out_dir=str(tmp_path / "fresh")) == 0
    assert _files(rerun) == _files(tmp_path / "fresh")


def test_failed_rerun_leaves_no_artifact_of_the_earlier_run(tmp_path, capsys):
    out = tmp_path / "out"
    text = ("kind = singular-tail\nid = st\nseed = 3\nn = 4\nk = 2\nepsilon = 0.1,0.5\n"
            "trials = 50\nprofile = rademacher\n")
    assert run_campaign(parse_campaign(text), out_dir=str(out)) == 0
    assert (out / "st.tail.tsv").is_file() and (out / "st.bound.tsv").is_file()
    # another id's artifact, another kind's artifact for this id, and a user's file
    others = {"other.tail.tsv": b"1\t2\n", "st.exact.tsv": b"3\t4\n", "notes.txt": b"mine\n"}
    for name, data in others.items():
        (out / name).write_bytes(data)
    assert run_campaign(parse_campaign(text + "gamma = 0.7\n"), out_dir=str(out)) == 2
    assert sorted(os.listdir(out)) == sorted(["manifest.txt", "results.csv", *others])
    assert {name: (out / name).read_bytes() for name in others} == others
    assert "gamma = 0.7" in (out / "manifest.txt").read_text()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    assert "has a header but no data row" in capsys.readouterr().err


# --- argument-level entry point ---


def test_main_runs_rank_tail(tmp_path):
    cfg_path = write_config(tmp_path, "c.cfg", RANK_TAIL_CFG.replace("20000", "500"))
    out = str(tmp_path / "out")
    assert main(["rank-tail", "--config", cfg_path, "--out", out]) == 0
    assert read_results(out)


@pytest.mark.parametrize("kind, keys", [("rank-tail", "k = 1"),
                                       ("singular-tail", "k = 2\nepsilon = 0.1")])
def test_main_refuses_a_tol_key_with_its_line(tmp_path, capsys, kind, keys):
    text = f"kind = {kind}\nseed = 1\nn = 3\n{keys}\ntrials = 5\nprofile = rademacher\ntol = 0.5\n"
    cfg_path = write_config(tmp_path, "c.cfg", text)
    assert main([kind, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert f"line {len(text.splitlines())}: unknown key 'tol'" in capsys.readouterr().err


def test_main_rejects_kind_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "c.cfg", RANK_TAIL_CFG)
    assert main(["sample", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_main_rejects_missing_config(tmp_path, capsys):
    assert main(["rank-tail", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "rmtlab:" in capsys.readouterr().err


def test_main_reports_parse_errors_with_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "c.cfg",
                            "kind = rank-tail\ntrails = 100\nseed = 1\n")
    assert main(["rank-tail", "--config", cfg_path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_main_seed_override_lands_in_manifest(tmp_path):
    cfg_path = write_config(tmp_path, "c.cfg", RANK_TAIL_CFG.replace("20000", "1000"))
    base, over, rerun = (str(tmp_path / d) for d in ("base", "over", "rerun"))
    assert main(["rank-tail", "--config", cfg_path, "--out", base]) == 0
    assert main(["rank-tail", "--config", cfg_path, "--out", over, "--seed", "99"]) == 0

    with open(os.path.join(base, "results.csv")) as fh:
        base_results = fh.read()
    with open(os.path.join(over, "results.csv")) as fh:
        over_results = fh.read()
    assert base_results != over_results
    assert ",99" in over_results.splitlines()[1]

    manifest_path = write_config(tmp_path, "m.cfg",
                                 Path(over, "manifest.txt").read_text())
    assert main(["rank-tail", "--config", manifest_path, "--out", rerun]) == 0
    with open(os.path.join(rerun, "results.csv")) as fh:
        assert fh.read() == over_results


def test_main_rejects_out_of_range_seed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "c.cfg", RANK_TAIL_CFG)
    assert main(["rank-tail", "--config", cfg_path, "--seed", str(2**64)]) == 2
    assert "64 bits" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_main_rejects_thread_count_below_one(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path, "c.cfg", RANK_TAIL_CFG)
    out = tmp_path / "out"
    assert main(["rank-tail", "--config", cfg_path, "--out", str(out),
                 "--threads", threads]) == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()  # refused before the campaign started


def test_report_subcommand(tmp_path, capsys):
    out = str(tmp_path / "out")
    run_campaign(parse_campaign(RANK_TAIL_CFG.replace("20000", "500")), out_dir=out)
    capsys.readouterr()
    assert main(["report", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "results: 1 row(s)" in captured
    assert "manifest: present" in captured


@pytest.mark.parametrize("row", _ROWS, ids=_row_id)
def test_report_passes_a_clean_run(tmp_path, capsys, row):
    out = tmp_path / "out"
    assert run_campaign(parse_campaign(_row_campaign(tmp_path, row)), out_dir=str(out)) == 0
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_report_names_another_kinds_leftovers(tmp_path, capsys):
    out = tmp_path / "out"
    tail = ("kind = singular-tail\nid = x\nseed = 3\nn = 4\nk = 2\nepsilon = 0.1,0.5\n"
            "trials = 50\nprofile = rademacher\n")
    assert run_campaign(parse_campaign(tail), out_dir=str(out)) == 0
    tensorize = "kind = tensorize\nid = x\nseed = 1\nn = 2\nt = 0.5\n"
    assert run_campaign(parse_campaign(tensorize), out_dir=str(out)) == 0
    (out / "notes.txt").write_text("mine\n")
    names = sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" is not written")[0] for line in err] == [
        f"rmtlab: {out / name}" for name in ("notes.txt", "x.tail.tsv")]
    assert sorted(os.listdir(out)) == names  # report removes nothing
    (out / "manifest.txt").write_text("kind = tensorize\nseed = 1\ntrials = 5\n")
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"rmtlab: {out / 'manifest.txt'}: line 3:")
    assert sorted(os.listdir(out)) == names
    (out / "manifest.txt").unlink()
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"rmtlab: {out / 'manifest.txt'}: ")


def test_report_subcommand_empty_dir(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "no results.csv" in capsys.readouterr().err


def test_report_subcommand_empty_results_file(tmp_path, capsys):
    for text, message in (("", "is empty"),
                          (RESULTS_HEADER + "\n", "has a header but no data row")):
        (tmp_path / "results.csv").write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert f"rmtlab: {tmp_path / 'results.csv'} {message}" in capsys.readouterr().err
