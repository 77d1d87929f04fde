"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import build_parser, main
from repro.dataset.io import write_csv
from repro.dataset.relation import Relation


@pytest.fixture
def csv_path(tmp_path):
    rows = [(f"z{i % 5}", f"c{i % 5}", f"s{(i % 5) % 2}") for i in range(200)]
    rel = Relation.from_rows(["zip", "city", "state"], rows)
    path = tmp_path / "data.csv"
    write_csv(rel, path)
    return str(path)


def test_discover_command(csv_path, capsys):
    assert main(["discover", csv_path]) == 0
    out = capsys.readouterr().out
    assert "discovered" in out
    assert "zip" in out


def test_discover_with_heatmap(csv_path, capsys):
    assert main(["discover", csv_path, "--heatmap", "--sparsity", "0.1"]) == 0
    assert "autoregression" in capsys.readouterr().out


def test_discover_explain_prints_evidence_table(csv_path, capsys):
    assert main(["discover", csv_path, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "evidence: threshold=" in out
    assert "margin=" in out


def test_discover_explain_out_writes_ledger(csv_path, tmp_path, capsys):
    out_path = tmp_path / "evidence.json"
    assert main([
        "discover", csv_path, "--explain-out", str(out_path)
    ]) == 0
    assert "wrote evidence ledger" in capsys.readouterr().out
    with open(out_path) as fh:
        evidence = json.load(fh)
    assert evidence["records"], "fixture FDs must produce evidence records"
    assert all(r["margin"] > 0 for r in evidence["records"])


def test_discover_json_output_parses(csv_path, capsys):
    assert main(["discover", csv_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"fds", "attribute_order", "autoregression"}
    assert payload["attribute_order"] and all(
        set(fd) == {"lhs", "rhs"} for fd in payload["fds"]
    )
    # The JSON output is the documented wire format: from_dict accepts it.
    from repro.core.fdx import FDXResult

    rebuilt = FDXResult.from_dict(payload)
    assert rebuilt.to_dict() == payload


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_discover_has_no_workers_flag(capsys):
    """Discovery is one serial pipeline: ``discover`` takes no worker count."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["discover", "data.csv", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_sweep_has_no_backend_flag(capsys):
    """``--workers`` alone decides a sweep's fan-out: no ``--backend``."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            ["sweep", "--input", "db.sqlite", "--backend", "process"]
        )
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_serve_subcommand_registered():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0", "--workers", "2"])
    assert args.port == 0 and args.workers == 2
    assert args.func.__name__ == "_cmd_serve"


def test_experiment_table(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "Noise Rate" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_dataset_list(capsys):
    assert main(["dataset", "list"]) == 0
    out = capsys.readouterr().out
    assert "hospital" in out and "tic-tac-toe" in out


def test_dataset_export(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    assert main(["dataset", "mammographic", "--output", str(out_path)]) == 0
    assert out_path.exists()
    assert "830 rows" in capsys.readouterr().out


def test_constraints_command(csv_path, capsys):
    assert main(["constraints", csv_path, "--cfds"]) == 0
    out = capsys.readouterr().out
    assert "denial constraints" in out
    assert "possible keys" in out


def test_compare_command(csv_path, capsys):
    assert main(["compare", csv_path, "--time-limit", "30"]) == 0
    out = capsys.readouterr().out
    assert "FDX" in out and "TANE" in out


# -- CLI hardening: bad inputs exit non-zero with one-line diagnostics -------

def test_discover_missing_file_is_one_line_error(tmp_path, capsys):
    assert main(["discover", str(tmp_path / "nope.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "nope.csv" in captured.err


@pytest.mark.parametrize("option", [
    ["--max-rows", "1"], ["--sparsity", "-1"], ["--lam", "-1"],
])
def test_discover_bad_option_is_one_line_error(csv_path, option, capsys):
    assert main(["discover", csv_path, *option]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "discovered" not in captured.out


def test_sweep_bad_option_is_one_line_error(tmp_path, capsys):
    assert main(["sweep", "--input-dir", str(tmp_path), "--lam", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_discover_empty_csv_is_one_line_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["discover", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing header row" in err


def test_discover_malformed_csv_is_one_line_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,c\n1,2,3\n4,5\n")
    assert main(["discover", str(ragged)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "arity" in err


def test_discover_header_only_csv_is_one_line_error(tmp_path, capsys):
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,c\n")
    assert main(["discover", str(header_only)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no rows" in err
