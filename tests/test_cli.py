import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import nsgap
from nsgap import cli, markov, rayleigh
from nsgap.spaces import MetricSpace, space_to_json


@pytest.fixture
def flip_chain_file(tmp_path):
    chain = markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(markov.chain_to_json(chain)))
    return str(path)


@pytest.fixture
def lazy_cycle_file(tmp_path):
    A = np.array([[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]])
    chain = markov.lazy_power(markov.build_reversible_chain(A), 1)
    path = tmp_path / "lazy4.json"
    path.write_text(json.dumps(markov.chain_to_json(chain)))
    return str(path)


@pytest.fixture
def hilbert_space_file(tmp_path):
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(space_to_json(MetricSpace.lp(2.0, 2))))
    return str(path)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = cli.run(argv + ["--output", str(out)])
    return code, out


def test_gap_exact_flip(tmp_path, flip_chain_file, hilbert_space_file):
    code, out = run_to_file(tmp_path, [
        "gap", "--chain", flip_chain_file, "--space", hilbert_space_file,
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "gap"
    assert payload["report"]["value"] == pytest.approx(0.5)
    assert payload["report"]["provenance"] == "exact"
    assert "config_hash" in payload


def test_gap_brute_finite(tmp_path, flip_chain_file):
    space = tmp_path / "two_point.json"
    space.write_text(json.dumps(space_to_json(
        MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]])))))
    code, out = run_to_file(tmp_path, [
        "gap", "--chain", flip_chain_file, "--space", str(space), "--p", "1",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["value"] == pytest.approx(0.5)
    assert payload["report"]["provenance"] == "brute_force"


def test_john_subcommand(tmp_path):
    space = tmp_path / "linf2.json"
    space.write_text(json.dumps(space_to_json(MetricSpace.lp(float("inf"), 2))))
    code, out = run_to_file(tmp_path, ["john", "--space", str(space)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["D_X"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert payload["report"]["provenance"] == "exact"


@pytest.mark.parametrize("p", [3.0, float("inf")])
def test_john_reports_mvee_record(tmp_path, p):
    """A report whose ellipsoid came from the MVEE carries its iterations,
    stop reason and residual, the same on a rerun; a Euclidean one, which
    runs no MVEE, carries none."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps(space_to_json(MetricSpace.lp(p, 3))))
    reports = []
    for name in ("a.json", "b.json"):
        code, out = run_to_file(tmp_path, ["john", "--space", str(space)], name=name)
        assert code == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["stop"] == "converged"
    assert reports[0]["iterations"] >= 0
    assert abs(reports[0]["residual"]) <= 1e-7
    space.write_text(json.dumps(space_to_json(MetricSpace.lp(2.0, 3))))
    _, out = run_to_file(tmp_path, ["john", "--space", str(space)], name="l2.json")
    assert not {"iterations", "stop", "residual"} & set(json.loads(out.read_text())["report"])


def test_embed_then_verify_duality(tmp_path, lazy_cycle_file):
    dist = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(dist))
    code, emb_out = run_to_file(tmp_path, [
        "embed", "--metric", str(metric), "--theta", "0.5",
    ], name="emb.json")
    assert code == 0
    emb = json.loads(emb_out.read_text())
    assert emb["report"]["D_achieved"] == pytest.approx(1.0, abs=1e-4)
    assert emb["report"]["stop"] == "converged"
    assert 0.0 <= emb["report"]["gap"] <= 1e-5 * emb["report"]["dual_bound"]
    assert emb["report"]["D_lower"] <= emb["report"]["D_achieved"] * (1.0 + 1e-12)
    weights = np.array(emb["report"]["dual_weights"])
    assert np.array_equal(weights, weights.T) and np.all(np.diag(weights) == 0)

    code, dual_out = run_to_file(tmp_path, [
        "verify-duality", "--embedding", str(emb_out), "--chain", lazy_cycle_file,
        "--metric", str(metric), "--theta", "0.5",
    ], name="dual.json")
    assert code == 0
    dual = json.loads(dual_out.read_text())
    assert dual["report"]["product_ok"]
    assert dual["report"]["slack"] >= -1e-9


def test_verify_duality_loads_report_without_solver_diagnostics(tmp_path, lazy_cycle_file):
    """Embed reports written before the solver diagnostics existed carry no
    stop, dual_bound, D_lower, gap or dual_weights; they still load."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) - 0.5
    report = {"G": (square @ square.T).tolist(), "factor": square.tolist(),
              "lip": 1.0, "spread": 1.0, "D_achieved": 1.0, "iterations": 5000,
              "provenance": "heuristic"}
    emb = tmp_path / "old_emb.json"
    emb.write_text(json.dumps({"command": "embed", "report": report}))
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]))
    code, out = run_to_file(tmp_path, [
        "verify-duality", "--embedding", str(emb), "--chain", lazy_cycle_file,
        "--metric", str(metric), "--theta", "0.5",
    ])
    assert code == 0
    assert json.loads(out.read_text())["report"]["product_ok"]


@pytest.mark.parametrize("case", ["chain_rows", "chain_pi", "metric_nan", "metric_inf",
                                  "mu_nan"])
def test_non_finite_input_exit_2(tmp_path, hilbert_space_file, case):
    """NaN passes every `>` test, so each input validator checks finiteness
    itself; a NaN chain row used to end in a LinAlgError traceback and a NaN
    metric in an embedding with lip "nan" and exit 0."""
    flip = [[0.0, 1.0], [1.0, 0.0]]
    kind, payload = {
        "chain_rows": ("chain", {"rows": [[math.nan, 1.0], [1.0, 0.0]]}),
        "chain_pi": ("chain", {"rows": flip, "pi": [math.nan, 0.5]}),
        "metric_nan": ("metric", [[0.0, math.nan], [math.nan, 0.0]]),
        "metric_inf": ("metric", [[0.0, math.inf], [math.inf, 0.0]]),
        "mu_nan": ("mu", [math.nan, 1.0]),
    }[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))  # NaN / Infinity literals, read back by json.load
    metric = tmp_path / "flip_metric.json"
    metric.write_text(json.dumps(flip))
    argv = {
        "chain": ["gap", "--chain", str(path), "--space", hilbert_space_file],
        "metric": ["embed", "--metric", str(path)],
        "mu": ["embed", "--metric", str(metric), "--mu", str(path)],
    }[kind]
    code, out = run_to_file(tmp_path, argv)
    assert code == 2
    assert not out.exists()


def test_expander_subcommand(tmp_path):
    code, out = run_to_file(tmp_path, ["expander", "--n", "16", "--d", "3"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["graph"]["n"] == 16
    assert payload["report"]["distance_spread"]["holds"]


def test_bounds_subcommand(tmp_path):
    code, out = run_to_file(tmp_path, [
        "bounds", "--formula", "distortion", "--n", "16", "--d", "4",
        "--gamma", "2.0", "--q", "2.0",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["value"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_calibrate_subcommand(tmp_path, monkeypatch):
    """The report is the only file written: no second copy in the working
    directory."""
    monkeypatch.chdir(tmp_path)
    code, out = run_to_file(tmp_path, [
        "calibrate", "--constant", "C_pq", "--family-size", "4",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["constant"] == "C_pq"
    assert payload["report"]["fitted"] > 0
    assert [path.name for path in tmp_path.iterdir()] == [out.name]


def test_csv_format(tmp_path, flip_chain_file, hilbert_space_file):
    code, out = run_to_file(tmp_path, [
        "gap", "--chain", flip_chain_file, "--space", hilbert_space_file,
        "--format", "csv",
    ], name="out.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("value,0.5") for line in lines)


def test_output_overwrites_longer_file_exactly(tmp_path):
    bounds = ["bounds", "--formula", "distortion", "--n", "16", "--d", "4",
              "--gamma", "2.0", "--q", "2.0"]
    _, fresh = run_to_file(tmp_path, bounds, name="fresh.json")
    reused = tmp_path / "reused.json"
    reused.write_bytes(b"x" * (len(fresh.read_bytes()) + 4096))
    assert cli.run(bounds + ["--output", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert json.loads(fresh.read_text())["report"]["value"] > 0


def test_output_to_stdout_pipe(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsgap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nsgap.cli", "expander", "--n", "16", "--d", "3",
         "--output", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["report"]["graph"]["n"] == 16


# runs each argv of the JSON list in argv[1] through cli.run in this one
# process; prints the scipy modules loaded at import and after each command
SCIPY_PROBE = """
import json, sys
import nsgap.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [("import nsgap.cli", 0, scipy_modules())]
for argv in json.loads(sys.argv[1]):
    loaded.append((" ".join(argv[:1]), nsgap.cli.run(argv), scipy_modules()))
print(json.dumps(loaded))
"""


def test_scipy_free_commands_load_no_scipy(tmp_path, flip_chain_file, lazy_cycle_file):
    """Only embeddings, graphs, polytope spaces and chains given without pi
    need scipy; importing the CLI and running anything else loads none of it."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    lp3 = write("lp3.json", space_to_json(MetricSpace.lp(3.0, 3)))
    linf = write("linf.json", space_to_json(MetricSpace.lp(float("inf"), 3)))
    ellipsoid = write("ellipsoid.json", {"kind": "ellipsoid", "Q": [[2.0, 0.5], [0.5, 1.0]]})
    finite = write("finite.json", space_to_json(
        MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]]))))
    f = write("f.json", {"weights": [0.5, 0.5], "values": [[1.0, 0.0, 2.0], [0.0, 2.0, 1.0]]})
    g = write("g.json", {"weights": [0.5, 0.5], "values": [[0.5, 1.0, 0.0], [1.0, 0.0, 1.0]]})
    metric = write("metric.json", [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    emb = write("emb.json", {"report": {"D_achieved": 1.0}})
    runs = [
        ["gap", "--chain", lazy_cycle_file, "--space", lp3, "--restarts", "2",
         "--iters", "20"],
        ["gap", "--chain", lazy_cycle_file, "--space", ellipsoid],
        ["gap", "--chain", flip_chain_file, "--space", finite, "--p", "1"],
        ["gap-plus", "--chain", flip_chain_file, "--space", finite],
        ["john", "--space", lp3],
        ["john", "--space", linf],
        ["mazur-check", "--function", f, "--space", lp3, "--p", "1", "--q", "2"],
        ["mazur-check", "--function", f, "--function-b", g, "--space", lp3,
         "--p", "1", "--q", "2"],
        ["rayleigh-check", "--chain", lazy_cycle_file],
        ["extrapolate", "--chain", lazy_cycle_file, "--space", lp3, "--p", "1", "--q", "2"],
        ["verify-duality", "--embedding", emb, "--chain", lazy_cycle_file,
         "--metric", metric, "--theta", "0.5"],
        ["bounds", "--formula", "dimension"],
        ["bounds", "--formula", "distortion"],
        ["bounds", "--formula", "coarse"],
    ]
    runs = [argv + ["--output", str(tmp_path / f"out{k}.json")]
            for k, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsgap.__file__)))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == len(runs) + 1
    for step, code, modules in loaded:
        assert (step, code, modules) == (step, 0, []), proc.stderr


def test_unknown_subcommand_exit_64(capsys):
    assert cli.run(["no-such-command"]) == 64


def test_cached_parser_keeps_exit_codes_and_outputs(capsys, flip_chain_file,
                                                    hilbert_space_file):
    """The parser is built once per process; a parse error, an unknown
    subcommand and a good request, in either order, keep their exit codes and
    give the same bytes on stdout and stderr."""
    requests = (["gap", "--chain", flip_chain_file, "--p", "x"],
                ["no-such-command"],
                ["gap", "--chain", flip_chain_file, "--space", hilbert_space_file])

    def once(argv):
        code = cli.run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    first = [once(argv) for argv in requests]
    assert [code for code, _, _ in first] == [2, 64, 0]
    assert first[2][1] and not first[2][2]
    again = [once(argv) for argv in reversed(requests)]
    assert again == first[::-1]
    assert cli._build_parser() is cli._build_parser()


def test_missing_file_exit_2(tmp_path, hilbert_space_file):
    code = cli.run(["gap", "--chain", str(tmp_path / "absent.json"),
                    "--space", hilbert_space_file])
    assert code == 2


def test_invalid_json_exit_2(tmp_path, hilbert_space_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["gap", "--chain", str(bad), "--space", hilbert_space_file]) == 2


@pytest.mark.parametrize("case", ["ragged_rows", "string_entry", "scalar_rows",
                                  "dim_string", "space_array", "metric_object",
                                  "metric_scalar", "directory"])
def test_malformed_input_file_exit_2(tmp_path, lazy_cycle_file, hilbert_space_file,
                                     capsys, case):
    """Content that cannot be converted (and a path that is no file) is
    invalid input: one line on stderr, no traceback."""
    kind, payload = {
        "ragged_rows": ("chain", {"rows": [[0.5, 0.5], [1.0]]}),
        "string_entry": ("chain", {"rows": [["a", 1.0], [1.0, 0.0]]}),
        "scalar_rows": ("chain", {"rows": 3}),
        "dim_string": ("space", {"kind": "lp", "p": 2, "dim": "x"}),
        "space_array": ("space", ["lp", 2, 2]),
        "metric_object": ("metric", {"a": [0.0, 1.0]}),
        "metric_scalar": ("metric", 5),
        "directory": ("chain", None),
    }[case]
    path = tmp_path / f"{kind}.json"
    if payload is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(payload))
    argv = {
        "chain": ["gap", "--chain", str(path), "--space", hilbert_space_file],
        "space": ["gap", "--chain", lazy_cycle_file, "--space", str(path)],
        "metric": ["embed", "--metric", str(path)],
    }[kind]
    code, out = run_to_file(tmp_path, argv)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("theta, D_achieved", [("0", 1.0), ("-1", 1.0), ("2", 1.0),
                                               ("0.5", "inf"), ("0.5", "nan"),
                                               ("0.5", -3.0)])
def test_verify_duality_rejects_bad_theta_and_distortion(tmp_path, lazy_cycle_file,
                                                         theta, D_achieved):
    """theta = 0 turns every distance into 1, so the product test held and was
    tagged exact; theta < 0 gave lhs inf and rhs nan; an infinite D made any
    inequality hold, and a negative D passed as its absolute value."""
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps({"report": {"D_achieved": D_achieved}}))
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]))
    code, out = run_to_file(tmp_path, [
        "verify-duality", "--embedding", str(emb), "--chain", lazy_cycle_file,
        "--metric", str(metric), "--theta", theta,
    ])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                    [0.0, 1.0, 2.0, 3.0]])
def test_rayleigh_check_rejects_points_of_wrong_shape(tmp_path, lazy_cycle_file,
                                                      capsys, points):
    """Three rows on a four-state chain, and a flat list, are not n x d."""
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out = run_to_file(tmp_path, ["rayleigh-check", "--chain", lazy_cycle_file,
                                       "--points", str(path)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_unavailable_gap_exit_2(tmp_path, flip_chain_file):
    """The identity chain has no finite gap, which is an input problem."""
    ident = tmp_path / "ident.json"
    chain = markov.build_reversible_chain(np.eye(2), np.full(2, 0.5))
    ident.write_text(json.dumps(markov.chain_to_json(chain)))
    space = tmp_path / "l2_3.json"
    space.write_text(json.dumps(space_to_json(MetricSpace.lp(2.0, 3))))
    code = cli.run(["extrapolate", "--chain", str(ident), "--space", str(space),
                    "--p", "2", "--q", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [["gap", "--method", "brute", "--p", "1"],
                                  ["gap-plus", "--q", "1"]])
def test_one_point_metric_exit_2(tmp_path, flip_chain_file, capsys, argv):
    """Every configuration of a one-point metric is constant: no certificate."""
    space = tmp_path / "one_point.json"
    space.write_text(json.dumps({"kind": "finite", "dist": [[0.0]]}))
    code, out = run_to_file(tmp_path, argv + ["--chain", flip_chain_file,
                                              "--space", str(space)])
    assert code == 2
    assert not out.exists()
    assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["embed"],
    ["verify-duality", "--embedding", "emb.json", "--chain", "one_state.json", "--theta", "0.5"],
])
def test_one_point_metric_embedding_exit_2(tmp_path, capsys, argv):
    """A one-point metric embeds only as a constant, which has no spread;
    embed used to report that as a numerical failure (exit 3).  The one-state
    chain that verify-duality would pair with it has no spectral gap."""
    (tmp_path / "one_point.json").write_text("[[0.0]]")
    (tmp_path / "one_state.json").write_text('{"rows": [[1.0]]}')
    (tmp_path / "emb.json").write_text(json.dumps({"report": {
        "G": [[0.0]], "factor": [[0.0]], "lip": 0.0, "spread": 1.0, "D_achieved": 1.0}}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out = run_to_file(tmp_path, argv + ["--metric", str(tmp_path / "one_point.json")])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("constant" if argv[0] == "embed" else "at least two states") in err


def test_oversized_polytope_exit_2(tmp_path, flip_chain_file):
    space = tmp_path / "poly13.json"
    space.write_text(json.dumps({"kind": "polytope", "vertices": np.eye(13).tolist()}))
    assert cli.run(["gap", "--chain", flip_chain_file, "--space", str(space),
                    "--method", "heuristic"]) == 2


def test_numerical_failure_exit_3(monkeypatch, tmp_path):
    from nsgap.errors import ResampleBudgetExceeded

    def boom(n, d, seed):
        raise ResampleBudgetExceeded("no sample found")

    monkeypatch.setattr(cli.expander, "random_regular_graph", boom)
    assert cli.run(["expander", "--n", "16", "--d", "3"]) == 3


def test_expander_over_the_spectral_cap_exits_before_sampling(monkeypatch, capsys):
    def sample(n, d, seed):
        raise AssertionError("a graph over the cap was sampled")

    monkeypatch.setattr(cli.expander, "random_regular_graph", sample)
    assert cli.run(["expander", "--n", "100000", "--d", "4"]) == 2
    assert f"dense graph ops capped at n = {markov.SPECTRAL_N_CAP}" in capsys.readouterr().err


def test_repeat_invocations_bit_identical(tmp_path, flip_chain_file,
                                          hilbert_space_file):
    _, out1 = run_to_file(tmp_path, [
        "gap", "--chain", flip_chain_file, "--space", hilbert_space_file,
        "--seed", "5",
    ], name="a.json")
    _, out2 = run_to_file(tmp_path, [
        "gap", "--chain", flip_chain_file, "--space", hilbert_space_file,
        "--seed", "5",
    ], name="b.json")
    assert out1.read_bytes() == out2.read_bytes()


PROVENANCE = {"exact", "brute_force", "heuristic", "fitted"}


def _provenances(node):
    if isinstance(node, dict):
        own = [node["provenance"]] if "provenance" in node else []
        return own + [tag for value in node.values() for tag in _provenances(value)]
    if isinstance(node, list):
        return [tag for value in node for tag in _provenances(value)]
    return []


def _every_subcommand(tmp_path, flip_chain_file, lazy_cycle_file, hilbert_space_file):
    """(output file, argv) runs covering every subcommand; verify-duality reads
    the embed output, so the runs go in this order."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    finite = write("finite.json", space_to_json(
        MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]]))))
    linf = write("linf.json", space_to_json(MetricSpace.lp(float("inf"), 2)))
    f = write("f.json", {"weights": [0.5, 0.5], "values": [[1.0, 0.0], [0.0, 2.0]]})
    g = write("g.json", {"weights": [0.5, 0.5], "values": [[0.5, 1.0], [1.0, 0.0]]})
    metric = write("metric.json", [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1],
                                   [1, 2, 1, 0]])
    runs = [
        ("gap-exact.json", ["gap", "--chain", lazy_cycle_file,
                            "--space", hilbert_space_file]),
        ("gap-brute.json", ["gap", "--chain", flip_chain_file, "--space", finite,
                            "--p", "1"]),
        ("gap-heuristic.json", ["gap", "--chain", lazy_cycle_file, "--space", linf,
                                "--restarts", "2", "--iters", "20"]),
        ("gap-plus.json", ["gap-plus", "--chain", flip_chain_file, "--space", finite]),
        ("rayleigh.json", ["rayleigh-check", "--chain", lazy_cycle_file]),
        ("roundtrip.json", ["mazur-check", "--function", f,
                            "--space", hilbert_space_file, "--p", "1", "--q", "2"]),
        ("holder.json", ["mazur-check", "--function", f, "--function-b", g,
                         "--space", hilbert_space_file, "--p", "1", "--q", "2"]),
        ("extrapolate-mixed.json", ["extrapolate", "--chain", lazy_cycle_file,
                                    "--space", hilbert_space_file,
                                    "--p", "1", "--q", "2"]),
        ("extrapolate-finite.json", ["extrapolate", "--chain", flip_chain_file,
                                     "--space", finite, "--p", "1", "--q", "2"]),
        ("john.json", ["john", "--space", linf]),
        ("emb.json", ["embed", "--metric", metric, "--theta", "0.5"]),
        ("dual.json", ["verify-duality", "--embedding", str(tmp_path / "emb.json"),
                       "--chain", lazy_cycle_file, "--metric", metric,
                       "--theta", "0.5"]),
        ("expander.json", ["expander", "--n", "16", "--d", "3"]),
        ("bounds.json", ["bounds", "--formula", "coarse"]),
        ("calibrate.json", ["calibrate", "--constant", "C_pq", "--family-size", "2"]),
        ("suite.json", ["suite"]),
    ]
    assert {argv[0] for _, argv in runs} == set(cli.SUBCOMMANDS)
    return runs


def test_every_subcommand_reports_documented_provenance(
        tmp_path, flip_chain_file, lazy_cycle_file, hilbert_space_file):
    runs = _every_subcommand(tmp_path, flip_chain_file, lazy_cycle_file, hilbert_space_file)
    tags = {}
    for name, argv in runs:
        code, out = run_to_file(tmp_path, argv, name=name)
        assert code == 0, argv
        tags[name] = _provenances(json.loads(out.read_text())["report"])
        assert tags[name] and set(tags[name]) <= PROVENANCE, (argv, tags[name])
    # a heuristic p-gap next to the exact Euclidean q-gap is reported heuristic
    assert tags["extrapolate-mixed.json"] == ["heuristic"]
    assert tags["extrapolate-finite.json"] == ["brute_force"]


def _jsonable(value):
    """Report values as plain JSON values: the conversion the one-pass writer
    replaced, kept as its reference."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _reference_json(report, config):
    config = _jsonable(config)
    payload = {
        "command": config["command"],
        "version": nsgap.__version__,
        "seed": config["seed"],
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "report": _jsonable(report),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _reference_csv(report):
    lines = ["key,value"]

    def walk(prefix, node):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(f"{prefix}{k}.", node[k])
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]},{node}")

    walk("", _jsonable(report))
    return "\n".join(lines) + "\n"


def test_writer_matches_json_dumps_on_every_subcommand(
        tmp_path, monkeypatch, flip_chain_file, lazy_cycle_file, hilbert_space_file):
    emitted = []
    emit = cli._emit

    def record(report, config, args):
        emitted.append((report, config, args.output))
        emit(report, config, args)

    monkeypatch.setattr(cli, "_emit", record)
    runs = _every_subcommand(tmp_path, flip_chain_file, lazy_cycle_file, hilbert_space_file)
    for name, argv in runs:
        assert run_to_file(tmp_path, argv, name=name)[0] == 0, argv
    assert len(emitted) == len(runs)
    for (report, config, output), (_, argv) in zip(emitted, runs):
        with open(output, "rb") as fh:
            assert fh.read() == _reference_json(report, config).encode(), argv
        csv = tmp_path / "out.csv"
        emit(report, config, argparse.Namespace(format="csv", output=str(csv)))
        assert csv.read_text(encoding="utf-8") == _reference_csv(report), argv


def test_writer_matches_json_dumps_on_edge_values():
    value = {
        "nan": float("nan"), "inf": [float("inf"), -float("inf"), np.float64(np.nan)],
        "numpy": [np.float32(0.1), np.float64(-0.0), np.int64(-3), np.uint8(7),
                  np.bool_(True), np.bool_(False), True, None, 10**30, 1e-310, 1e300],
        "empty": [[], {}, (), [[]], [{}], ""],
        "tuples": (1, 2.5, (3, "x"), ()),
        "text": "ünïcode ✓ \u2028 \"q\" \\ \t\x00",
        1: "int key", "1": "str key after it", 2.5: "float key", None: "none key",
        (0, 1): "tuple key",
        "arrays": [np.arange(6).reshape(2, 3), np.array([0.1, np.inf, np.nan]),
                   np.array([True, False]), np.zeros((0, 2)), np.float64(2.0)],
        "nested": {"b": {"a": [1, 2.0, [3, {"z": -1}]]}, "a": []},
    }
    assert cli._json(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2)
    assert cli._json(value, None) == json.dumps(_jsonable(value), sort_keys=True)
    for scalar in (0, -1, 0.5, float("inf"), "s", None, False, np.int32(4)):
        assert cli._json(scalar) == json.dumps(_jsonable(scalar))
    with pytest.raises(TypeError):
        cli._json({"x": [object()]})


# 3-state chain whose gap over l_2 with theta = 1/2 and p = 2 is the cut value
# 20/21: l_2 embeds in L_1 and theta p = 1, while 1/(1 - lambda_2) is larger
SNOWFLAKE_CHAIN = {"rows": [[0.2, 0.5, 0.3], [0.5, 0.1, 0.4], [0.3, 0.4, 0.3]]}
SNOWFLAKE_L2 = {"kind": "lp", "p": 2, "dim": 2, "theta": 0.5}


def _gap_report(tmp_path, space, *extra):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(SNOWFLAKE_CHAIN))
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, out = run_to_file(tmp_path, ["gap", "--chain", str(chain), "--space", str(path),
                                       "--restarts", "4", "--iters", "60", *extra])
    return code, (json.loads(out.read_text())["report"] if code == 0 else None)


def test_auto_gap_on_snowflaked_l2_is_not_exact(tmp_path):
    code, report = _gap_report(tmp_path, SNOWFLAKE_L2)
    assert code == 0
    assert report["provenance"] == "heuristic"
    assert report["value"] <= 20.0 / 21.0 + 1e-9


@pytest.mark.parametrize("space, p", [
    ({"kind": "lp", "p": 2, "dim": 2}, "1"),
    ({"kind": "lp", "p": "inf", "dim": 2}, "2"),
    (SNOWFLAKE_L2, "2"),
])
def test_exact_method_outside_l2_theta1_p2_exit_2(tmp_path, capsys, space, p):
    code, _ = _gap_report(tmp_path, space, "--method", "exact", "--p", p)
    assert code == 2
    assert "closed-form gap" in capsys.readouterr().err


@pytest.mark.parametrize("space, p, kind", [
    ({"kind": "finite", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}, "2", "brute_force"),
    ({"kind": "finite", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "theta": 0.5}, "1",
     "brute_force"),
    ({"kind": "lp", "p": 2, "dim": 2}, "2", "exact_hilbert"),
    ({"kind": "lp", "p": 2, "dim": 2}, "1", "heuristic_lower_bound"),
    ({"kind": "lp", "p": 2, "dim": 2}, "3", "heuristic_lower_bound"),
    (SNOWFLAKE_L2, "2", "heuristic_lower_bound"),
    ({"kind": "lp", "p": 1, "dim": 2}, "2", "heuristic_lower_bound"),
    ({"kind": "lp", "p": "inf", "dim": 2}, "2", "heuristic_lower_bound"),
    ({"kind": "ellipsoid", "Q": [[2, 0], [0, 1]]}, "2", "exact_hilbert"),
    ({"kind": "polytope", "vertices": [[1, 0], [0, 1], [1, 1]]}, "2",
     "heuristic_lower_bound"),
    ({"kind": "ellipsoid", "Q": [[2, 0], [0, 1]], "theta": 0.5}, "2", "heuristic_lower_bound"),
])
def test_auto_gap_method_table(tmp_path, space, p, kind):
    code, report = _gap_report(tmp_path, space, "--p", p)
    assert code == 0
    assert report["kind"] == kind
    # only the ascent reports its evaluations and its stop reason
    heuristic = kind == "heuristic_lower_bound"
    assert ("iterations" in report) == ("stop" in report) == heuristic
    if heuristic:
        assert report["iterations"] > 0 and report["stop"] in ("stalled", "iteration_cap")


def test_exact_method_on_ellipsoid(tmp_path):
    """An ellipsoid norm sqrt(y^T Q y) is ||R y||_2 for Q = R^T R, so the
    closed form holds there as it does for l_2."""
    code, report = _gap_report(tmp_path, {"kind": "ellipsoid", "Q": [[2, 0], [0, 1]]},
                               "--method", "exact")
    assert code == 0
    assert report["kind"] == "exact_hilbert" and report["provenance"] == "exact"
    _, l2 = _gap_report(tmp_path, {"kind": "lp", "p": 2, "dim": 2}, "--method", "exact")
    assert report["value"] == l2["value"]


def test_heuristic_above_the_cap_exit_2(tmp_path, capsys):
    """Each heuristic evaluation builds n x n x d pair arrays; the default
    run at 512 states over lp(3, 4) took 91 s of CPU before the cap."""
    n = math.isqrt(rayleigh.HEURISTIC_CAP // 4) + 1
    chain = tmp_path / "uniform.json"
    chain.write_text(json.dumps({"rows": np.full((n, n), 1.0 / n).tolist()}))
    space = tmp_path / "l3.json"
    space.write_text(json.dumps({"kind": "lp", "p": 3, "dim": 4}))
    start = time.process_time()
    code, out = run_to_file(tmp_path, ["gap", "--chain", str(chain), "--space", str(space)])
    assert time.process_time() - start < 2.0
    assert code == 2
    assert not out.exists()
    assert "exceeds" in capsys.readouterr().err


def test_heuristic_over_a_polytope_counts_its_facets(tmp_path, capsys):
    """A polytope norm scores every pair difference against each of its F
    facets, so the cap counts n^2 max(d, F): the 12-dimensional
    cross-polytope has 4,096 facets, and 16 states put it above the cap."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(markov.chain_to_json(
        markov.random_reversible_chain(16, np.random.default_rng(0)))))
    space = tmp_path / "cross12.json"
    space.write_text(json.dumps({"kind": "polytope", "vertices": np.eye(12).tolist()}))
    start = time.process_time()
    code, out = run_to_file(tmp_path, ["gap", "--chain", str(chain), "--space", str(space)])
    assert time.process_time() - start < 2.0
    assert code == 2
    assert not out.exists()
    assert "exceeds" in capsys.readouterr().err
