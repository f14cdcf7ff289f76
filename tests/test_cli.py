"""Smoke tests for the command-line interface."""

import csv
import json

import pytest

from dsprism import cli, setfn, solver
from dsprism.cli import main
from dsprism.experiments import gen_random_ds
from dsprism.setfn import as_table


@pytest.fixture
def instance_path(tmp_path):
    inst = gen_random_ds(4, "cut_minus_modular", 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    return str(path)


def test_solve_command(instance_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.jsonl"
    rc = main(["solve", "--instance", instance_path,
               "--report", str(report), "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimal set" in out and "optimal" in out
    payload = json.loads(report.read_text())
    assert payload["termination_reason"] == "optimal"
    lines = trace.read_text().splitlines()
    assert lines and all(json.loads(line)["action"] for line in lines)


def test_solve_command_limit_exit_code(instance_path, capsys):
    rc = main(["solve", "--instance", instance_path, "--max-iters", "0"])
    assert rc == 2
    assert "iteration_limit" in capsys.readouterr().out


def test_baseline_command(instance_path, tmp_path, capsys):
    for method in ("ssp", "greedy"):
        report = tmp_path / ("%s.json" % method)
        rc = main(["baseline", "--method", method, "--instance", instance_path,
                   "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["method"] == method
        assert isinstance(payload["set"], list)
    out = capsys.readouterr().out
    assert "ssp:" in out and "greedy:" in out


def test_bench_command(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc = main(["bench", "--p", "5", "--n", "20", "--k", "2",
               "--lambdas", "1.0", "--reps", "2", "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 reps x 1 lambda x 3 methods
    agg = json.loads((tmp_path / "bench.csv.agg.json").read_text())
    assert {a["method"] for a in agg} == {"prism", "ssp", "greedy"}
    assert "wrote 6 rows" in capsys.readouterr().out


def test_verify_command(capsys):
    rc = main(["verify", "--n", "3,4", "--families", "cut_minus_modular",
               "--reps", "2", "--seed", "0"])
    assert rc == 0
    assert "all instances exact" in capsys.readouterr().out


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


MODULAR = '{"type": "modular", "weights": [1.0]}'


@pytest.mark.parametrize("command", [["solve"], ["baseline", "--method", "greedy"]],
                         ids=["solve", "baseline"])
@pytest.mark.parametrize("text, reason", [
    pytest.param("{not json", "Expecting property name", id="invalid_json"),
    pytest.param('{"f": %s, "g": %s}' % (MODULAR, MODULAR), "missing key 'n'", id="no_n"),
    pytest.param('{"n": 1, "g": %s}' % MODULAR, "missing key 'f'", id="no_f"),
    pytest.param('{"n": 1, "f": %s}' % MODULAR, "missing key 'g'", id="no_g"),
    pytest.param('{"n": 1, "f": {"type": "matroid"}, "g": %s}' % MODULAR,
                 "unknown set-function type 'matroid'", id="unknown_type"),
    # each constructor checks its parameters: a non-finite one is named by
    # its index, a nested vector by its shape
    pytest.param('{"n": 2, "f": {"type": "nuclear", "X": [[1.0, 0.0], [2.0, NaN]]}, "g": %s}'
                 % MODULAR, "X[1, 1] is nan; values must be finite", id="nan_in_nuclear_X"),
    pytest.param('{"n": 1, "f": {"type": "nuclear", "X": [[1.0]], "scale": NaN}, "g": %s}'
                 % MODULAR, "scale is nan; values must be finite", id="nan_scale"),
    pytest.param('{"n": 1, "f": %s, "g": {"type": "neg_residual", "X": [[1.0], [2.0]], '
                 '"y": [0.5, NaN]}}' % MODULAR, "y[1] is nan; values must be finite",
                 id="nan_in_neg_residual_y"),
    # a finite y whose squared norm, f(empty) = -||y||^2, overflows: named,
    # with no numpy warning (pytest turns one into an error, as -W error does)
    pytest.param('{"n": 1, "f": %s, "g": {"type": "neg_residual", "X": [[1.0], [2.0]], '
                 '"y": [0.5, 1e200]}}' % MODULAR, "||y||^2 is inf; values must be finite",
                 id="neg_residual_y_norm_overflows"),
    pytest.param('{"n": 2, "f": {"type": "gaussian_entropy", "sigma": [[1.0, NaN], [NaN, 1.0]]}, '
                 '"g": %s}' % MODULAR, "sigma[0, 1] is nan; values must be finite",
                 id="nan_in_sigma"),
    pytest.param('{"n": 1, "f": {"type": "modular", "weights": [[1.0]]}, "g": %s}' % MODULAR,
                 "weights must be a vector, got shape (1, 1)", id="nested_modular_weights"),
])
def test_malformed_instance_exits_with_message(command, text, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(command + ["--instance", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("dsprism: cannot load instance %s: " % path)
    assert reason in err
    assert err.count("\n") == 1


# finite parameters whose Gram matrix X^T X overflows
GRAM_OVERFLOW = {"n": 2, "f": {"type": "nuclear", "X": [[1.0, 0.0], [0.0, 1e200]]},
                 "g": {"type": "modular", "weights": [0.5, 0.5]}}


@pytest.mark.parametrize("command", [["solve"], ["baseline", "--method", "ssp"],
                                     ["baseline", "--method", "greedy"]],
                         ids=["solve", "ssp", "greedy"])
def test_non_finite_oracle_value_exits_with_message(command, tmp_path, capsys):
    # an oracle value that overflows stops the command where it is computed
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(GRAM_OVERFLOW))
    assert main(command + ["--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dsprism: cannot evaluate instance %s: overflow encountered "
                            "in matmul\n" % path)


@pytest.mark.parametrize("f, g, reason", [
    pytest.param([1.0, -2.0, 0.5, -0.25], [0.5, 0.0, 1.5], "oracle f has 4 elements, but n is 3",
                 id="f_larger_than_n"),
    pytest.param([1.0, -2.0, 0.5], [0.5, 0.0], "oracle g has 2 elements, but n is 3",
                 id="f_and_g_differ"),
])
def test_instance_ground_sets_must_match_n(f, g, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "f": {"type": "modular", "weights": f},
                                "g": {"type": "modular", "weights": g}}))
    assert main(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == "dsprism: cannot load instance %s: %s\n" % (path, reason)


MODULAR_3 = {"f": {"type": "modular", "weights": [1.0, -2.0, 0.5]},
             "g": {"type": "modular", "weights": [0.5, 0.0, 1.5]}}


@pytest.mark.parametrize("fields, reason", [
    pytest.param({"n": 2.7}, "n is 2.7; n must be an integer", id="fractional_n"),
    pytest.param({"n": True}, "n is True; n must be an integer", id="bool_n"),
    pytest.param({"n": "3"}, "n is '3'; n must be an integer", id="string_n"),
    pytest.param({"n": 3, "seed": 0.5}, "seed is 0.5; seed must be an integer",
                 id="fractional_seed"),
    pytest.param({"n": 3, "seed": False}, "seed is False; seed must be an integer",
                 id="bool_seed"),
    pytest.param({"n": 3, "seed": None}, "seed is None; seed must be an integer",
                 id="null_seed"),
])
def test_instance_n_and_seed_must_be_integers(fields, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(MODULAR_3, **fields)))
    assert main(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == "dsprism: cannot load instance %s: %s\n" % (path, reason)


@pytest.mark.parametrize("n", [-1, 0, 1e18], ids=["negative", "zero", "huge"])
def test_table_instance_n_must_give_its_value_count(n, tmp_path, capsys):
    # n is checked before 2^n is formed: no shift of a negative or huge n
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": n, "f": {"type": "table", "values": [0.0, 1.0]},
                                "g": {"type": "table", "values": [0.0, 2.0]}}))
    assert main(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == (
        "dsprism: cannot load instance %s: a table on n = %d elements needs n >= 1 "
        "and 2^n values, got 2 values\n" % (path, n))


def test_instance_takes_integral_floats(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(MODULAR_3, n=3.0, seed=2.0)))
    assert main(["solve", "--instance", str(path)]) == 0
    assert capsys.readouterr().out.startswith("optimal set [1, 2]  value -3 ")


def test_solve_tabulates_each_oracle_once(tmp_path, monkeypatch):
    n = 10
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": n, "f": {"type": "modular", "weights": [0.5 - 0.1 * i for i in range(n)]},
        "g": {"type": "cut", "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}}))
    seen = []

    def spy(oracle):
        seen.append(oracle.name)
        return as_table(oracle)

    for module in (cli, setfn, solver):
        monkeypatch.setattr(module, "as_table", spy)
    assert main(["solve", "--instance", str(path)]) == 0
    assert [name for name in seen if not name.startswith("table(")] == ["modular", "cut"]


# a modular pair above ENUM_CAP, and a pair whose g has the second
# difference g({0, 1}) + g({}) - g({0}) - g({1}) = 3 > 0
MODULAR_30 = {"n": 30, "f": {"type": "modular", "weights": [1.0] * 30},
              "g": {"type": "modular", "weights": [0.5] * 30}}
NOT_SUBMODULAR = {"n": 2, "f": {"type": "modular", "weights": [1.0, -1.0]},
                  "g": {"type": "table", "values": [0.0, 0.0, 0.0, 3.0]}}


@pytest.mark.parametrize("argv, reason", [
    pytest.param(["solve", "--max-iters", "-1"], "max_iters must be nonnegative, got -1",
                 id="solve_negative_max_iters"),
    pytest.param(["solve", "--eps", "nan"], "eps must be finite and nonnegative, got nan",
                 id="solve_nan_eps"),
    pytest.param(["baseline", "--method", "ssp", "--init", "9"],
                 "--init must be a subset mask in 0..3, got 9", id="ssp_init_outside_cube"),
    pytest.param(["verify", "--n", "11"], "--n values must lie in 1..10, got 11",
                 id="verify_n_too_large"),
    pytest.param(["verify", "--n", "3,x"], "--n must be comma-separated integers, got '3,x'",
                 id="verify_n_not_integer"),
    pytest.param(["verify", "--families", "nope"], "unknown family 'nope'",
                 id="verify_unknown_family"),
    pytest.param(["verify", "--reps", "0"], "--reps must be at least 1, got 0",
                 id="verify_zero_reps"),
    pytest.param(["verify", "--seed", "-100000"], "--seed must be nonnegative, got -100000",
                 id="verify_negative_seed"),
    pytest.param(["bench", "--lambdas", "x"],
                 "--lambdas must be comma-separated finite nonnegative numbers, got 'x'",
                 id="bench_lambda_not_number"),
    pytest.param(["bench", "--lambdas", "1.0,-0.5"],
                 "--lambdas must be comma-separated finite nonnegative numbers, got '1.0,-0.5'",
                 id="bench_negative_lambda"),
    pytest.param(["bench", "--lambdas", "inf"],
                 "--lambdas must be comma-separated finite nonnegative numbers, got 'inf'",
                 id="bench_infinite_lambda"),
    pytest.param(["bench", "--p", "0"], "invalid feature-selection spec: need 0 < k <= p",
                 id="bench_p_zero"),
    pytest.param(["bench", "--p", "25"], "--p must be at most 12, got 25",
                 id="bench_p_above_enum_cap"),
    pytest.param(["bench", "--p", "13"], "--p must be at most 12, got 13: the prism solve "
                 "repairs each pair through the exhaustive submodularity check",
                 id="bench_p_above_check_cap"),
    pytest.param(["bench", "--k", "20"], "invalid feature-selection spec: need 0 < k <= p",
                 id="bench_k_above_p"),
    pytest.param(["bench", "--n", "0"], "invalid feature-selection spec: need 0 < k <= p",
                 id="bench_no_samples"),
    pytest.param(["bench", "--reps", "-1"], "--reps must be at least 1, got -1",
                 id="bench_negative_reps"),
    pytest.param(["bench", "--seed", "-1"], "--seed must be nonnegative, got -1",
                 id="bench_negative_seed"),
    # a last argv entry that is a dict is the instance file's content
    pytest.param(["solve", MODULAR_30], "solve tabulates all 2^n subsets, so n <= 24; "
                 "the instance has n = 30", id="solve_n_above_enum_cap"),
    pytest.param(["baseline", "--method", "ssp", MODULAR_30], "baseline --method ssp "
                 "tabulates all 2^n subsets, so n <= 24", id="ssp_n_above_enum_cap"),
    pytest.param(["solve", dict(NOT_SUBMODULAR, f=NOT_SUBMODULAR["g"], g=NOT_SUBMODULAR["f"])],
                 "side f of the instance is not submodular", id="solve_f_not_submodular"),
    pytest.param(["solve", NOT_SUBMODULAR], "side g of the instance is not submodular "
                 "(is_submodular at tol 1e-8); setfn.ds_decompose repairs the pair",
                 id="solve_g_not_submodular"),
    # an output path is checked before the solve or experiment it records;
    # a file the check creates is removed again
    pytest.param(["solve", "--report", "missing/report.json"],
                 "cannot write missing/report.json: No such file or directory",
                 id="solve_report_in_missing_directory"),
    pytest.param(["solve", "--report", "report.json", "--trace", "missing/trace.jsonl"],
                 "cannot write missing/trace.jsonl: No such file or directory",
                 id="solve_trace_in_missing_directory"),
    pytest.param(["solve", "--trace", "trace.jsonl", "--report", "missing/report.json"],
                 "cannot write missing/report.json: No such file or directory",
                 id="solve_report_after_writable_trace"),
    pytest.param(["baseline", "--method", "ssp", "--report", "missing/ssp.json"],
                 "cannot write missing/ssp.json: No such file or directory",
                 id="ssp_report_in_missing_directory"),
    pytest.param(["baseline", "--method", "greedy", "--report", "missing/greedy.json"],
                 "cannot write missing/greedy.json: No such file or directory",
                 id="greedy_report_in_missing_directory"),
    pytest.param(["bench", "--out", "missing/bench.csv"],
                 "cannot write missing/bench.csv: No such file or directory",
                 id="bench_out_in_missing_directory"),
    pytest.param(["bench", "--out", "."], "cannot write .: Is a directory",
                 id="bench_out_is_a_directory"),
])
def test_bad_argument_exits_with_message(argv, reason, tmp_path, capsys, monkeypatch):
    # rejected before any solve, with a one-line reason and no traceback
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(gen_random_ds(2, "cut_minus_modular", 0).to_dict()))
    if isinstance(argv[-1], dict):
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1]
    if argv[0] in ("solve", "baseline"):
        argv = argv + ["--instance", str(path)]
    monkeypatch.chdir(tmp_path)  # bench writes bench.csv here if it runs
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("dsprism: " + reason)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


def test_greedy_takes_an_instance_above_enum_cap(tmp_path, capsys):
    path = tmp_path / "n30.json"
    path.write_text(json.dumps(MODULAR_30))
    assert main(["baseline", "--method", "greedy", "--instance", str(path)]) == 0
    assert capsys.readouterr().out == "greedy: set []  value 0\n"


def test_fractional_edge_endpoint_is_not_loaded(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "f": {"type": "cut", "edges": [[0.5, 1.7, 1.0]]},
                                "g": {"type": "modular", "weights": [0.0, 0.0, 0.0]}}))
    assert main(["solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dsprism: cannot load instance %s: " % path)
    assert "endpoints must be integers" in err
